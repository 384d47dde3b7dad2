#!/usr/bin/env python3
"""Compare end-to-end benchmark results.

    python3 bench/e2e/compare.py --agree A.json B.json
        A and B are two `run_e2e.py --out` reports of the same code. Every
        (metric, workload) of BENCHMARK.json must be in both, and B's value
        must lie within the metric's bound of A's. Exit 1 otherwise.

    python3 bench/e2e/compare.py --pairs 10 --parent DIR --change DIR \
            [--workload NAME] [--seconds S] [--seed N]
        Runs the benchmark in two checkouts as >= 10 pairs, alternating which
        side runs first, pair i at seed N+i. Per (metric, workload) it prints
        both sides' median and quartiles, the change's win fraction and a
        verdict. Exit 1 if any verdict is a regression, or if a run lacks
        a (metric, workload).

Verdicts, per metric and workload, with bounds from BENCHMARK.json:
  regression  the change's median is worse than the parent's by more than
              the bound;
  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and the medians differ by more than the parent's IQR;
  unresolved  the parent's IQR, as a share of its median, is wider than the
              bound, unless every change run beats every parent run;
  unchanged   otherwise.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
GAIN_WIN_FRACTION = 0.9
MIN_PAIRS = 10


def load_spec(root=ROOT):
    """(workload names, {metric: (better, bound)}) of the end-to-end
    metrics in BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]],
            {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]})


def value(report, workload, metric):
    """A metric's value in a run_e2e.py report, or None when absent."""
    entry = report["workloads"].get(workload, {}).get("metrics", {})
    return entry.get(metric, {}).get("value")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def better(a, b, direction):
    """True when value a is strictly better than value b."""
    return a < b if direction == "lower" else a > b


def worsening(parent, change, direction):
    """How much worse change is than parent, as a share of parent."""
    delta = change - parent if direction == "lower" else parent - change
    return delta / abs(parent)


def verdict(parent, change, direction, bound):
    """Judge paired runs; parent[i] and change[i] ran as pair i."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    q1, q3 = quartiles(parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    row = {"parent_median": p_med, "parent_q1": q1, "parent_q3": q3,
           "change_median": c_med, "change_q1": quartiles(change)[0],
           "change_q3": quartiles(change)[1],
           "win_fraction": wins / len(parent)}
    every_better = all(better(c, p, direction)
                       for c in change for p in parent)
    if worsening(p_med, c_med, direction) > bound:
        row["verdict"] = "regression"
    elif (len(parent) >= MIN_PAIRS
          and wins >= GAIN_WIN_FRACTION * len(parent)
          and better(c_med, p_med, direction)
          and abs(c_med - p_med) > q3 - q1):
        row["verdict"] = "gain"
    elif (q3 - q1) / abs(p_med) > bound and not every_better:
        row["verdict"] = "unresolved"
    else:
        row["verdict"] = "unchanged"
    return row


def agree(a, b, workloads, metrics):
    """Rows (workload, metric, a, b, share, ok) for two reports, one per
    (workload, metric) of BENCHMARK.json. A pair missing from either
    report has share None and does not agree."""
    rows = []
    for name in workloads:
        for metric, (_, bound) in metrics.items():
            va, vb = value(a, name, metric), value(b, name, metric)
            if va is None or vb is None:
                rows.append((name, metric, va, vb, None, False))
                continue
            share = abs(vb - va) / abs(va)
            rows.append((name, metric, va, vb, share, share <= bound))
    return rows


def run_side(checkout, pair, seed, extra):
    out = checkout / "bench" / "e2e" / "out" / f"pair_{pair}.json"
    out.parent.mkdir(exist_ok=True)
    cmd = ["python3", "bench/e2e/run_e2e.py", "--seed", str(seed),
           "--out", str(out), *extra]
    subprocess.run(cmd, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text())


def run_pairs(args, workloads, metrics):
    extra = []
    if args.workload:
        extra += ["--workload", args.workload]
        workloads = [args.workload]
    if args.seconds:
        extra += ["--seconds", str(args.seconds)]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    values = {"parent": {}, "change": {}}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            report = run_side(sides[side], i, args.seed + i, extra)
            for name in workloads:
                for metric in metrics:
                    v = value(report, name, metric)
                    if v is not None:
                        values[side].setdefault((name, metric), []).append(v)
    failures = 0
    print(f"{'workload':<28} {'metric':<15} {'parent med [q1,q3]':>30} "
          f"{'change med [q1,q3]':>30} {'wins':>5}  verdict")
    for name in workloads:
        for metric, (direction, bound) in metrics.items():
            parent = values["parent"].get((name, metric), [])
            change = values["change"].get((name, metric), [])
            if len(parent) != args.pairs or len(change) != args.pairs:
                print(f"{name:<28} {metric:<15} missing: parent "
                      f"{len(parent)}, change {len(change)} of {args.pairs} "
                      "runs")
                failures += 1
                continue
            failures += print_verdict(name, metric,
                                      verdict(parent, change, direction,
                                              bound))
    return 1 if failures else 0


def print_verdict(name, metric, row):
    """Print one verdict row; 1 when it is a regression."""
    p = (f"{row['parent_median']:.4g} "
         f"[{row['parent_q1']:.4g}, {row['parent_q3']:.4g}]")
    c = (f"{row['change_median']:.4g} "
         f"[{row['change_q1']:.4g}, {row['change_q3']:.4g}]")
    print(f"{name:<28} {metric:<15} {p:>30} {c:>30} "
          f"{row['win_fraction']:>5.2f}  {row['verdict']}")
    return 1 if row["verdict"] == "regression" else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--agree", nargs=2, type=Path, metavar=("A", "B"))
    ap.add_argument("--pairs", type=int)
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    workloads, metrics = load_spec()

    if args.agree:
        a, b = (json.loads(p.read_text()) for p in args.agree)
        rows = agree(a, b, workloads, metrics)
        for name, metric, va, vb, share, ok in rows:
            bound = f"(bound {100 * metrics[metric][1]:.0f}%)"
            if share is None:
                print(f"{name:<28} {metric:<15} missing from "
                      f"{'A' if va is None else 'B'}: DISAGREE {bound}")
                continue
            print(f"{name:<28} {metric:<15} {va:>12.6g} {vb:>12.6g} "
                  f"{100 * share:6.2f}% "
                  f"{'ok' if ok else 'DISAGREE'} {bound}")
        return 0 if rows and all(r[-1] for r in rows) else 1
    if args.pairs is not None:
        if args.pairs < MIN_PAIRS or not (args.parent and args.change):
            ap.error(f"--pairs needs >= {MIN_PAIRS} and --parent/--change")
        return run_pairs(args, workloads, metrics)
    ap.error("give --agree or --pairs")


if __name__ == "__main__":
    sys.exit(main())
