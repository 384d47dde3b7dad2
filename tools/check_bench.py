#!/usr/bin/env python3
"""Perf/robustness gate over the benchmark JSON reports.

Auto-detects the report flavour:
 - bench_kernels output (key "split_conv_summary"): fails when the
   split-conv numbers regress past the thresholds below, or when a
   required section (small-map convs, elementwise loops) is missing;
 - bench_serving output (key "scenarios"): fails when the request
   accounting leaks, percentiles are malformed, the chaos scenario
   exercised none of the fault machinery, or the degradation
   ablation does not serve strictly more concurrent tenants with
   the Split-CNN ladder enabled than disabled.

Also prints a side-by-side diff against the committed baseline JSON
so a regression is diagnosable from the CI log alone.

Usage:
    check_bench.py <fresh.json> [<baseline.json>]

Thread-scaling checks are skipped when the reporting machine has
fewer than 4 hardware threads (the speedup is then physically
unmeasurable); the overhead-ratio checks always run. Serving checks
deliberately avoid gating on throughput or completion ratios — those
depend on the CI machine — and gate only on machine-independent
invariants.
"""
import json
import sys

# ---------------------------------------------------------------------------
# Thresholds — the single place to tune the gate.
#
# split_overhead_ratio = split ms / unsplit ms at 1 thread. Both
# sides run the same engine (unsplit is the one-piece scheme) and the
# band execution runs the GEMM at the unsplit shape, so the ratio is
# the split's own cost: per-patch im2col flanks and shorter copy rows.
SPLIT_OVERHEAD_MAX = {
    "2x2": 1.15,
    "4x4": 1.15,
}
# Patch-parallel scaling: 4 threads over a 2x2 split must reach at
# least this speedup over 1 thread (checked only when the machine has
# >= 4 hardware threads).
SPEEDUP_4T_MIN = {
    "2x2": 2.5,
    "4x4": 2.5,
}
# Split pooling runs the same patch kernels as the unsplit pool,
# writing the strided parent output directly (no per-patch tensors,
# no concat), so it must stay close to the unsplit pool.
SPLIT_POOL_OVERHEAD_MAX = {
    "2x2": 1.1,
    "4x4": 1.1,
}
# Split backward (dgrad + wgrad + bias) vs conv2dBackward at 1
# thread. Both sides run the same band-pipelined engine, so the ratio
# isolates the per-patch staging and halo-scatter bookkeeping.
SPLIT_BACKWARD_OVERHEAD_MAX = {
    "2x2": 1.15,
    "4x4": 1.15,
}
# The batched-GEMM Winograd kernel is benched on a shape the cost
# model selects it for (64 channels), so it must not be materially
# slower than im2col there (0.9 absorbs CI noise).
WINOGRAD_SPEEDUP_MIN = 0.9
# The small_spatial_conv rows that must be present (timings ungated).
SMALL_SPATIAL_LAYERS = {"infer_conv6", "infer_conv10", "infer_conv13",
                        "train_conv13"}
# The elementwise loops that must be present (timings ungated).
ELEMENTWISE_LOOPS = {"relu_fwd", "relu_bwd", "batchnorm_fwd_stats",
                     "batchnorm_bwd", "maxpool_fwd", "im2col_b_stage",
                     "im2col_bt_stage", "pack_a_grad_out", "col2im"}
# ---------------------------------------------------------------------------


def fail(msg):
    print(f"FAIL: {msg}")
    return 1


def check_serving(fresh, baseline):
    """Gate the bench_serving report on machine-independent invariants."""
    rc = 0
    scenarios = fresh.get("scenarios", {})
    if not scenarios:
        return fail("no scenarios in serving report")

    if baseline is not None:
        print("\nsummary (fresh vs committed baseline):")
        base = baseline.get("scenarios", {})
        for name, s in scenarios.items():
            b = base.get(name, {})
            print(f"  {name}: completed {s['completed']} "
                  f"(baseline {b.get('completed', '?')}), "
                  f"p99 {s['p99']:.4f} (baseline {b.get('p99', '?')}), "
                  f"shed {s['shed']} (baseline {b.get('shed', '?')})")

    for name, s in scenarios.items():
        # Conservation identity: every submitted request reached
        # exactly one terminal outcome. This must hold on any machine.
        leak = s["accounting_leak"]
        terminal = (s["completed"] + s["shed"] +
                    s["deadline_exceeded"] + s["failed"])
        if leak != 0 or terminal != s["submitted"]:
            rc |= fail(f"{name}: accounting leak {leak} "
                       f"(submitted {s['submitted']}, terminal {terminal})")
        else:
            print(f"ok: {name} accounting exact "
                  f"({s['submitted']} requests)")
        if s["completed"] > 0:
            if not (0 <= s["p50"] <= s["p99"] <= s["p999"]):
                rc |= fail(f"{name}: malformed percentiles "
                           f"p50 {s['p50']} p99 {s['p99']} "
                           f"p999 {s['p999']}")
            if s["goodput"] <= 0:
                rc |= fail(f"{name}: completed requests but "
                           f"goodput {s['goodput']}")

    chaos = next((s for n, s in scenarios.items() if "chaos" in n),
                 None)
    if chaos is None:
        rc |= fail("no chaos scenario in serving report")
    elif (chaos["retries"] + chaos["watchdog_kills"] +
          chaos["failed"]) == 0:
        rc |= fail("chaos scenario exercised no fault machinery "
                   "(no retries, watchdog kills, or failures)")
    else:
        print(f"ok: chaos exercised faults (retries "
              f"{chaos['retries']}, watchdog kills "
              f"{chaos['watchdog_kills']}, failed {chaos['failed']})")

    abl = fresh.get("degradation_ablation")
    if abl is None:
        return rc | fail("no degradation_ablation in serving report")
    on, off = abl["enabled"], abl["disabled"]
    for side, s in (("enabled", on), ("disabled", off)):
        if s["accounting_leak"] != 0:
            rc |= fail(f"ablation {side}: accounting leak "
                       f"{s['accounting_leak']}")
    # The Split-CNN serving-capacity lever: under memory pressure the
    # ladder must buy strictly more concurrent tenant reservations.
    if on["peak_concurrent"] <= off["peak_concurrent"]:
        rc |= fail(f"degradation enabled peak_concurrent "
                   f"{on['peak_concurrent']} <= disabled "
                   f"{off['peak_concurrent']}")
    else:
        print(f"ok: degradation peak_concurrent "
              f"{on['peak_concurrent']} > {off['peak_concurrent']} "
              f"(degraded batches: {on['degraded_plans']})")
    if on["degraded_plans"] == 0:
        rc |= fail("ablation served no degraded plans with the "
                   "ladder enabled")
    return rc


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    fresh = json.load(open(sys.argv[1]))
    baseline = None
    if len(sys.argv) > 2:
        try:
            baseline = json.load(open(sys.argv[2]))
        except OSError:
            print(f"note: no baseline at {sys.argv[2]}")

    hw = int(fresh.get("hardware_threads", 0))
    if "scenarios" in fresh:
        print(f"serving report: {hw} hardware threads, time scale "
              f"{fresh.get('time_scale', '?')}")
        return check_serving(fresh, baseline)
    print(f"machine: {hw} hardware threads, "
          f"simd kernel {fresh.get('simd_kernel', '?')}")

    if baseline is not None:
        print("\nsummary (fresh vs committed baseline):")
        base = baseline.get("split_conv_summary", {})
        for depth, s in fresh.get("split_conv_summary", {}).items():
            b = base.get(depth, {})
            print(f"  {depth}: overhead_1t "
                  f"{s['split_overhead_ratio_1t']:.3f} "
                  f"(baseline {b.get('split_overhead_ratio_1t', '?')}), "
                  f"speedup_4t {s.get('speedup_4t', '-')} "
                  f"(baseline {b.get('speedup_4t', '-')})")
        base_pool = baseline.get("split_pool_summary", {})
        for depth, s in fresh.get("split_pool_summary", {}).items():
            b = base_pool.get(depth, {})
            print(f"  pool {depth}: overhead_1t "
                  f"{s['split_pool_overhead_ratio_1t']:.3f} "
                  f"(baseline "
                  f"{b.get('split_pool_overhead_ratio_1t', '?')})")
        base_bwd = baseline.get("split_backward_summary", {})
        for depth, s in fresh.get("split_backward_summary",
                                  {}).items():
            b = base_bwd.get(depth, {})
            print(f"  backward {depth}: overhead_1t "
                  f"{s['split_backward_overhead_ratio_1t']:.3f} "
                  f"(baseline "
                  f"{b.get('split_backward_overhead_ratio_1t', '?')})")
        fw = fresh.get("winograd")
        bw = baseline.get("winograd", {})
        if fw:
            print(f"  winograd_speedup "
                  f"{fw['winograd_speedup']:.3f} "
                  f"(baseline {bw.get('winograd_speedup', '?')})")
        base_small = {layer["name"]: layer for layer in
                      baseline.get("small_spatial_conv", {})
                      .get("layers", [])}
        for layer in fresh.get("small_spatial_conv", {}).get("layers",
                                                              []):
            b = base_small.get(layer["name"], {})
            print(f"  small conv {layer['name']} ({layer['kernel']}): "
                  f"fwd {layer['fwd_ms']:.4f} ms "
                  f"(baseline {b.get('fwd_ms', '?')}), "
                  f"group speedup {layer['fwd_group_speedup']:.2f} "
                  f"(baseline {b.get('fwd_group_speedup', '?')})")
        base_el = {e["name"]: e for e in
                   baseline.get("elementwise", {}).get("loops", [])}
        for e in fresh.get("elementwise", {}).get("loops", []):
            b = base_el.get(e["name"], {})
            print(f"  elementwise {e['name']}: {e['gbps']:.2f} GB/s "
                  f"(baseline {b.get('gbps', '?')})")
        fi = fresh.get("im2col_strided")
        bi = baseline.get("im2col_strided", {})
        if fi:
            print(f"  im2col fill stride1 "
                  f"{fi['stride1_fill_gbps']:.2f} GB/s "
                  f"(baseline {bi.get('stride1_fill_gbps', '?')}), "
                  f"stride2 {fi['stride2_fill_gbps']:.2f} GB/s "
                  f"(baseline {bi.get('stride2_fill_gbps', '?')})")

    rc = 0
    summary = fresh.get("split_conv_summary")
    if not summary:
        return fail("no split_conv_summary in report")
    for depth, max_ratio in SPLIT_OVERHEAD_MAX.items():
        if depth not in summary:
            rc |= fail(f"no {depth} split measurement in report")
            continue
        ratio = summary[depth]["split_overhead_ratio_1t"]
        if ratio > max_ratio:
            rc |= fail(f"{depth} split_overhead_ratio_1t {ratio:.3f} "
                       f"> {max_ratio}")
        else:
            print(f"ok: {depth} split_overhead_ratio_1t "
                  f"{ratio:.3f} <= {max_ratio}")

    if hw >= 4:
        for depth, min_speedup in SPEEDUP_4T_MIN.items():
            if depth not in summary:
                continue
            speedup = summary[depth]["speedup_4t"]
            if speedup < min_speedup:
                rc |= fail(f"{depth} speedup_4t {speedup:.2f} "
                           f"< {min_speedup}")
            else:
                print(f"ok: {depth} speedup_4t {speedup:.2f} "
                      f">= {min_speedup}")
    else:
        print(f"skip: thread-scaling checks need >= 4 hardware "
              f"threads, machine has {hw}")

    pool = fresh.get("split_pool_summary")
    if not pool:
        rc |= fail("no split_pool_summary in report")
    else:
        for depth, max_ratio in SPLIT_POOL_OVERHEAD_MAX.items():
            if depth not in pool:
                rc |= fail(f"no {depth} split-pool measurement "
                           f"in report")
                continue
            ratio = pool[depth]["split_pool_overhead_ratio_1t"]
            if ratio > max_ratio:
                rc |= fail(f"{depth} split_pool_overhead_ratio_1t "
                           f"{ratio:.3f} > {max_ratio}")
            else:
                print(f"ok: {depth} split_pool_overhead_ratio_1t "
                      f"{ratio:.3f} <= {max_ratio}")

    bwd = fresh.get("split_backward_summary")
    if not bwd:
        rc |= fail("no split_backward_summary in report")
    else:
        for depth, max_ratio in SPLIT_BACKWARD_OVERHEAD_MAX.items():
            if depth not in bwd:
                rc |= fail(f"no {depth} split-backward measurement "
                           f"in report")
                continue
            ratio = bwd[depth]["split_backward_overhead_ratio_1t"]
            if ratio > max_ratio:
                rc |= fail(f"{depth} split_backward_overhead_ratio_1t "
                           f"{ratio:.3f} > {max_ratio}")
            else:
                print(f"ok: {depth} split_backward_overhead_ratio_1t "
                      f"{ratio:.3f} <= {max_ratio}")

    # Fill rates are machine-dependent, so only presence is gated; the
    # baseline diff above is the reviewable measurement.
    if "im2col_strided" not in fresh:
        rc |= fail("no im2col_strided measurement in report")
    else:
        i2c = fresh["im2col_strided"]
        print(f"ok: im2col fill rates measured (stride1 "
              f"{i2c['stride1_fill_gbps']:.2f} GB/s, stride2 "
              f"{i2c['stride2_fill_gbps']:.2f} GB/s)")

    # Small-map convs (the deep layers of a split network, where conv
    # work items group images) and the packed-GEMM N sweep behind
    # kSplitConvGroupCols: machine-dependent timings, so only presence
    # is gated; the baseline diff above is the reviewable measurement.
    small = fresh.get("small_spatial_conv")
    if not small:
        rc |= fail("no small_spatial_conv measurement in report")
    else:
        layers = {layer["name"]: layer for layer in small.get("layers", [])}
        missing = sorted(SMALL_SPATIAL_LAYERS - layers.keys())
        if missing:
            rc |= fail(f"small_spatial_conv lacks {', '.join(missing)}")
        elif "bwd_ms" not in layers["train_conv13"]:
            rc |= fail("small_spatial_conv train_conv13 has no backward")
        elif not small.get("gemm_n_sweep"):
            rc |= fail("small_spatial_conv has no gemm_n_sweep")
        else:
            print("ok: small_spatial_conv measured (" + ", ".join(
                f"{n} {layers[n]['fwd_ms']:.3f} ms"
                for n in sorted(SMALL_SPATIAL_LAYERS)) + ")")

    # The per-element loops around the GEMM at one VGG-19 layer shape:
    # machine-dependent bandwidths, so only presence is gated.
    elementwise = fresh.get("elementwise")
    if not elementwise:
        rc |= fail("no elementwise measurement in report")
    else:
        loops = {e["name"]: e for e in elementwise.get("loops", [])}
        missing = sorted(ELEMENTWISE_LOOPS - loops.keys())
        if missing:
            rc |= fail(f"elementwise lacks {', '.join(missing)}")
        else:
            print("ok: elementwise measured (" + ", ".join(
                f"{n} {loops[n]['gbps']:.2f} GB/s"
                for n in sorted(ELEMENTWISE_LOOPS)) + ")")

    wino = fresh.get("winograd")
    if not wino:
        rc |= fail("no winograd measurement in report")
    elif wino["winograd_speedup"] < WINOGRAD_SPEEDUP_MIN:
        rc |= fail(f"winograd_speedup "
                   f"{wino['winograd_speedup']:.3f} "
                   f"< {WINOGRAD_SPEEDUP_MIN} on a cost-model-"
                   f"selected shape ({wino['workload']})")
    else:
        print(f"ok: winograd_speedup "
              f"{wino['winograd_speedup']:.3f} >= "
              f"{WINOGRAD_SPEEDUP_MIN}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
