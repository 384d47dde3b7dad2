#!/usr/bin/env python3
"""End-to-end train-step and inference benchmark of the Split-CNN executor.

Builds bench_e2e as a target of the repository's CMake project (see
bench_e2e.cmake), runs the replay self-test, then runs every
requested workload as a closed loop with one client in fresh processes
("rounds"), pools the step samples and checks each process's scalar
verification against reference.json.

    python3 bench/e2e/run_e2e.py                  # all workloads, untraced
    python3 bench/e2e/run_e2e.py --trace          # per-layer metrics + traces
    python3 bench/e2e/run_e2e.py --workload NAME --seed N --seconds S --trace 0
    python3 bench/e2e/run_e2e.py --write-reference

Metric names, units and bounds come from BENCHMARK.json at the repository
root. With --workload the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is nonzero on
any self-test, verification or build failure.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
BUILD_HOOK = HERE / "bench_e2e.cmake"
ROUNDS = 5
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


# ---------------------------------------------------------------- statistics


def percentile(xs, q):
    """Linear-interpolated q-th percentile (0..100) of a non-empty list."""
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def beyond(xs, value):
    """Samples strictly above value."""
    return sum(1 for x in xs if x > value)


def pool(rounds):
    """Metrics from the per-process results of one workload. step_ms_p95
    is reported but not bounded: on a shared machine its run-to-run spread
    is set by co-tenants (see README.md)."""
    samples = [x for r in rounds for x in r["step_ms"]]
    if not samples:
        raise BenchError("no timed steps")
    timed_s = sum(r["timed_s"] for r in rounds)
    p95 = percentile(samples, 95)
    return {
        "step_ms_p50": percentile(samples, 50),
        "samples_per_s": rounds[0]["batch"] * len(samples) / timed_s,
        "setup_s": statistics.median(x for r in rounds for x in r["setup_s"]),
        "peak_rss_mib": max(r["maxrss_kib"] for r in rounds) / 1024.0,
        "step_ms_p95": p95,
        "samples": len(samples),
        "beyond_p95": beyond(samples, p95),
    }


def check_rounds(name, rounds, reference):
    """(attempted, failed) steps; verification mismatches count as failed."""
    expected = reference.get(name)
    attempted = failed = 0
    for r in rounds:
        attempted += (len(r["step_ms"]) + r["warmup_steps"]
                      + len(r["verify"]))
        failed += r["nonfinite"]
        if expected is None or len(expected) != len(r["verify"]):
            failed += len(r["verify"])
        else:
            failed += sum(a != b for a, b in zip(r["verify"], expected))
    return attempted, failed


# ------------------------------------------------------------------- running


def child_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("SCNN_")}


def cache_value(cache, name):
    """Value of a CMakeCache.txt entry, or "" when it is absent."""
    if not cache.exists():
        return ""
    for line in cache.read_text().splitlines():
        key, _, value = line.partition("=")
        if key.split(":", 1)[0] == name:
            return value.strip()
    return ""


def build(build_dir):
    """Build the bench_e2e target of the repository's own CMake project in
    build_dir; refuse a Debug build. The tree is configured only when it
    does not include BUILD_HOOK yet, so it keeps its build type and
    options. An empty build type is the root CMakeLists.txt default."""
    cache = build_dir / "CMakeCache.txt"
    try:
        if cache_value(cache, "CMAKE_PROJECT_INCLUDE") != str(BUILD_HOOK):
            subprocess.run(
                ["cmake", "-S", str(ROOT), "-B", str(build_dir),
                 f"-DCMAKE_PROJECT_INCLUDE={BUILD_HOOK}"],
                stdout=sys.stderr, check=True, env=child_env())
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", str(build_dir), "-j", jobs,
             "--target", "bench_e2e"],
            stdout=sys.stderr, check=True, env=child_env())
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"build failed: {e}")
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    if build_type.lower() == "debug":
        raise BenchError(f"refusing to time a Debug build ({build_dir})")
    return build_dir / "bench_e2e", build_type


def run_child(binary, args):
    try:
        p = subprocess.run([str(binary), *args], capture_output=True,
                           text=True, env=child_env(), cwd=ROOT,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"bench_e2e {' '.join(args)} timed out")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    out = json.loads(lines[-1]) if lines else {}
    if p.returncode != 0 and out.get("mode") != "selftest":
        raise BenchError(f"bench_e2e {' '.join(args)} exited "
                         f"{p.returncode}")
    return out


def selftest(binary, names, seed):
    bad = []
    for name in names:
        r = run_child(binary, ["--workload", name, "--seed", str(seed),
                               "--selftest"])
        if r.get("mismatch_count", 1) != 0:
            bad.append(f"{name}: {r.get('mismatches')}")
    return bad


def timed(binary, name, seed, seconds, trace_file=None):
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", f"{seconds:.3f}"]
    if trace_file is not None:
        args += ["--trace-out", str(trace_file)]
    return run_child(binary, args)


def run_untraced(binary, names, seed, seconds):
    """ROUNDS rounds; each starts one fresh process per workload in order."""
    per_round = seconds / ROUNDS
    results = {n: [] for n in names}
    for _ in range(ROUNDS):
        for n in names:
            results[n].append(timed(binary, n, seed, per_round))
    return results


def run_traced(binary, names, seed, seconds):
    """Per workload: an untraced process, then a traced one, each half the
    run; the pair gives trace_overhead_frac."""
    OUT_DIR.mkdir(exist_ok=True)
    results = {}
    for n in names:
        plain = timed(binary, n, seed, seconds / 2)
        traced = timed(binary, n, seed, seconds / 2,
                       OUT_DIR / f"trace_{n}.json")
        base = percentile(plain["step_ms"], 50)
        traced["layers"]["trace_overhead_frac"] = (
            percentile(traced["step_ms"], 50) - base) / base
        results[n] = [plain, traced]
    return results


# ----------------------------------------------------------------- reporting


def git_commit():
    """HEAD of the checkout, read from .git without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(build_type, seed, results):
    first = {n: rs[0] for n, rs in results.items()}
    knobs = {k: v for k, v in os.environ.items() if k.startswith("SCNN_")}
    return {
        "commit": git_commit(),
        "build_type": build_type,
        "simd": sorted({r["simd"] for r in first.values()}),
        "nproc": os.cpu_count(),
        "threads": {n: r["threads"] for n, r in first.items()},
        "seed": seed,
        "caller_scnn_env": knobs,
        "rounds": len(next(iter(results.values()))),
    }


def summarize(spec, results, traced, reference):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    out = {}
    for name, rounds in results.items():
        attempted, failed = check_rounds(name, rounds, reference)
        entry = {"attempted": attempted, "failed": failed}
        if traced:
            layers = rounds[-1]["layers"]
            missing = set(layer_units) - set(layers)
            if missing:
                raise BenchError(f"{name}: no value for {sorted(missing)}")
            entry["metrics"] = {k: {"value": layers[k], "unit": u}
                                for k, u in layer_units.items()}
        else:
            pooled = pool(rounds)
            entry["metrics"] = {k: {"value": pooled[k], "unit": u}
                                for k, u in units.items()}
            entry["tail"] = {k: pooled[k] for k in
                             ("step_ms_p95", "samples", "beyond_p95")}
        out[name] = entry
    return out


def print_report(hdr, report):
    print("# split-cnn end-to-end benchmark")
    for k, v in hdr.items():
        print(f"#   {k}: {v}")
    for k in hdr["caller_scnn_env"]:
        print(f"warning: {k} is set in the caller's environment; the "
              "benchmark processes run without it", file=sys.stderr)
    print(f"{'workload':<28} {'metric':<30} {'value':>14}  unit")
    for name, entry in report.items():
        for m, v in entry["metrics"].items():
            print(f"{name:<28} {m:<30} {v['value']:>14.6g}  {v['unit']}")
        tail = entry.get("tail")
        if tail:
            print(f"{name:<28} {'step_ms_p95 (unbounded)':<30} "
                  f"{tail['step_ms_p95']:>14.6g}  ms  samples="
                  f"{tail['samples']} beyond={tail['beyond_p95']}")
            if tail["beyond_p95"] < 10:
                print(f"warning: {name}: fewer than 10 samples beyond p95",
                      file=sys.stderr)
        print(f"{name:<28} attempted={entry['attempted']} "
              f"failed={entry['failed']}")


def write_reference(binary, names):
    values = {n: timed(binary, n, 1, 0.0)["verify"] for n in names}
    REFERENCE.write_text(json.dumps({
        "about": "Scalar-kernel (SIMD off) results of 2 steps at seed 1: "
                 "losses (train) or logits FNV-1a checksums (inference), "
                 "as hex. Regenerate with run_e2e.py --write-reference.",
        "values": values}, indent=2) + "\n")
    print(f"wrote {REFERENCE}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="timed seconds per workload (default: "
                         "run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1], help="traced run (per-layer metrics)")
    ap.add_argument("--build", type=Path, default=ROOT / "build",
                    help="the repository's build directory (default build)")
    ap.add_argument("--out", type=Path, help="write the full report here")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload is not None:
            if args.workload not in names:
                raise BenchError(f"unknown workload {args.workload}")
            names = [args.workload]
        binary, build_type = build(args.build.resolve())
        if args.write_reference:
            write_reference(binary, names)
            return 0
        failures = selftest(binary, names, args.seed)
        if failures:
            for f in failures:
                print(f"selftest failed: {f}", file=sys.stderr)
            return 1
        reference = json.loads(REFERENCE.read_text())["values"]
        started = time.monotonic()
        run = run_traced if args.trace else run_untraced
        results = run(binary, names, args.seed,
                      args.seconds or spec["run_seconds"])
        report = summarize(spec, results, args.trace, reference)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"run_e2e: {e}", file=sys.stderr)
        return 1

    hdr = header(build_type, args.seed, results)
    hdr["wall_s"] = round(time.monotonic() - started, 1)
    print_report(hdr, report)
    correct = all(e["failed"] == 0 for e in report.values())
    if args.out:
        args.out.write_text(json.dumps(
            {"header": hdr, "traced": bool(args.trace), "correct": correct,
             "workloads": report}, indent=1) + "\n")
    if args.workload is not None:
        entry = report[args.workload]
        print(json.dumps({"correct": correct,
                          "attempted": entry["attempted"],
                          "failed": entry["failed"],
                          "metrics": entry["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
