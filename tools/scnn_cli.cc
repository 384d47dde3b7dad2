/**
 * @file
 * splitcnn command-line tool.
 *
 *   scnn profile  <model> [--batch N] [--image N] [--recompute-bn]
 *       Figure-1-style forward profile and offload limit.
 *   scnn plan     <model> [--batch N] [--planner hmms|layerwise|none]
 *                 [--cap F] [--split D] [--grid HxW]
 *       Build and describe an offload/prefetch plan + memory pools.
 *   scnn maxbatch <model> [--split D] [--grid HxW] [--naive]
 *                 [--recompute-bn]
 *       Binary-search the largest trainable batch on the device.
 *   scnn lint     <model> [--batch N] [--planner hmms|layerwise|none]
 *                 [--cap F] [--split D] [--grid HxW] [--recompute-bn]
 *                 [--json]
 *       Run the static plan/graph verifier over the planned model
 *       and print diagnostics (exit 1 on any error finding).
 *       `scnn lint --codes` prints the stable SAxxx code registry.
 *       `scnn lint --parallel [--grid HxW] [--json]` instead runs the
 *       SA6xx parallel-execution safety suite: write-set disjointness
 *       proofs for the executor's wave schedule and the fused split
 *       decompositions at the given grid (default 2x2).
 *   scnn dot      <model> [--split D] [--grid HxW] [--batch N]
 *       Emit the (optionally split) computation graph as Graphviz.
 *   scnn train    [--epochs N] [--samples N] [--mode base|scnn|sscnn]
 *                 [--depth D] [--grid HxW]
 *       Small CPU training run on the synthetic dataset.
 *   scnn serve    [--tenants N] [--workers N] [--duration N]
 *                 [--closed] [--chaos] [--squeeze] [--no-degrade]
 *                 [--util F] [--seed N] [--json]
 *       Run the overload-hardened serving engine under generated
 *       load for N batch-times (default 300) and print the request
 *       accounting. --chaos injects hangs/failures, --squeeze
 *       shrinks device capacity below two unsplit plans (exercises
 *       the Split-CNN degradation ladder), --closed switches to
 *       closed-loop clients. Exits 1 when the accounting identity
 *       submitted == completed + shed + deadline_exceeded + failed
 *       is violated (the CI chaos soak gates on this).
 *
 * Models: alexnet, vgg19, resnet18, resnet50.
 *
 * Global flags (any command): --threads N sizes the execution
 * engine's thread pool (default 1, or the SCNN_THREADS environment
 * variable). Results are bitwise-identical for any thread count.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/analyzer.h"
#include "analysis/parallel_model.h"
#include "core/splitter.h"
#include "data/synthetic.h"
#include "graph/dot.h"
#include "hmms/plan_report.h"
#include "hmms/planner.h"
#include "hmms/residency_checker.h"
#include "hmms/static_planner.h"
#include "models/models.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "sim/profile.h"
#include "sim/stream_sim.h"
#include "train/trainer.h"
#include "util/args.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

Graph
buildFromArgs(const Args &args, int64_t default_batch = 64)
{
    const std::string model = args.positional(0, "vgg19");
    ModelConfig cfg{.batch = args.flagInt("batch", default_batch),
                    .image = args.flagInt("image", 224),
                    .classes = args.flagInt("classes", 1000),
                    .width = args.flagDouble("width", 1.0),
                    .batch_norm = model != "vgg19"};
    Graph g = buildModel(model, cfg);
    const double depth = args.flagDouble("split", 0.0);
    if (depth > 0.0) {
        const auto [h, w] = parseGrid(args.flag("grid", "2x2")).value();
        g = splitCnnTransform(
            g, {.depth = depth, .splits_h = h, .splits_w = w});
    }
    return g;
}

int
cmdProfile(const Args &args)
{
    DeviceSpec spec;
    BackwardOptions bo{.recompute_bn = args.has("recompute-bn")};
    Graph g = buildFromArgs(args);
    auto prof = profileForwardPass(g, spec, bo);
    Table t({"layer", "time(ms)", "generated(MB)", "offloadable(MB)"});
    for (const auto &l : prof.layers) {
        if (l.fwd_time == 0.0 && l.generated_bytes == 0.0)
            continue;
        t.addRow({l.name, formatFloat(l.fwd_time * 1e3, 3),
                  formatFloat(l.generated_bytes / 1e6, 1),
                  formatFloat(l.offloadable_bytes / 1e6, 1)});
    }
    t.print(std::cout);
    std::printf("forward %.1f ms, backward %.1f ms; generated %.2f "
                "GB, offload limit %.0f%%\n",
                prof.total_fwd_time * 1e3, prof.total_bwd_time * 1e3,
                prof.total_generated / 1e9,
                100 * prof.offloadable_fraction);
    return 0;
}

int
cmdPlan(const Args &args)
{
    DeviceSpec spec;
    Graph g = buildFromArgs(args);
    const std::string planner = args.flag("planner", "hmms");
    PlannerKind kind = PlannerKind::Hmms;
    if (planner == "layerwise")
        kind = PlannerKind::LayerWise;
    else if (planner == "none")
        kind = PlannerKind::None;
    else
        SCNN_REQUIRE(planner == "hmms",
                     "unknown planner '" << planner << "'");

    auto assignment = assignStorage(g, g.topoOrder());
    const double cap = args.flagDouble(
        "cap", profileForwardPass(g, spec).offloadable_fraction);
    auto plan = planMemory(g, spec, {kind, cap, {}}, assignment).value();
    auto mem = planStaticMemory(g, assignment, plan);
    auto sim = simulatePlan(g, spec, plan, assignment).value();
    auto check = checkResidency(g, assignment, plan, mem).value();

    std::cout << describePlan(g, plan, assignment);
    std::printf("pools: device general %.2f GB (workspace %.2f GB), "
                "parameters %.2f GB, pinned host %.2f GB\n",
                mem.device_general_peak / 1e9,
                mem.workspace_bytes / 1e9, mem.param_pool_bytes / 1e9,
                mem.host_pool_bytes / 1e9);
    std::printf("simulated iteration %.1f ms (stall %.1f ms); "
                "residency check: %s\n",
                sim.total_time * 1e3, sim.stall_time * 1e3,
                check.ok() ? "ok" : check.toString().c_str());
    return check.ok() ? 0 : 1;
}

int
cmdLint(const Args &args)
{
    if (args.has("codes")) {
        for (const auto &info : diagnosticCodes())
            std::printf("%s  %-7s  %s\n", info.code,
                        diagSeverityName(info.default_severity),
                        info.summary);
        return 0;
    }

    DeviceSpec spec;
    BackwardOptions bo{.recompute_bn = args.has("recompute-bn")};
    Graph g = buildFromArgs(args);

    if (args.has("parallel")) {
        // Suite 6: prove the parallel execution (executor waves +
        // fused split decompositions at the requested grid) race-free
        // instead of linting a memory plan.
        const auto [gh, gw] =
            parseGrid(args.flag("grid", "2x2")).value();
        const auto diags = analyzeParallelExecution(g, gh, gw);
        const std::string context =
            args.positional(0, "vgg19") + " parallel grid=" +
            std::to_string(gh) + "x" + std::to_string(gw) +
            " batch=" + std::to_string(args.flagInt("batch", 64));
        if (args.has("json"))
            std::cout << renderDiagnosticsJson(diags, context);
        else
            std::cout << context << '\n'
                      << renderDiagnosticsText(diags);
        return hasErrors(diags) ? 1 : 0;
    }

    const std::string planner = args.flag("planner", "hmms");
    PlannerKind kind = PlannerKind::Hmms;
    if (planner == "layerwise")
        kind = PlannerKind::LayerWise;
    else if (planner == "none")
        kind = PlannerKind::None;
    else
        SCNN_REQUIRE(planner == "hmms",
                     "unknown planner '" << planner << "'");

    auto assignment = assignStorage(g, g.topoOrder());
    const double cap = args.flagDouble(
        "cap", profileForwardPass(g, spec, bo).offloadable_fraction);
    auto plan =
        planMemory(g, spec, {kind, cap, bo}, assignment).value();
    auto mem = planStaticMemory(g, assignment, plan, bo);

    AnalyzerOptions options;
    options.backward = bo;
    const auto diags = analyzePlan(g, assignment, plan, mem, options);

    const std::string context =
        args.positional(0, "vgg19") + " planner=" + planner +
        " batch=" + std::to_string(args.flagInt("batch", 64));
    if (args.has("json"))
        std::cout << renderDiagnosticsJson(diags, context);
    else
        std::cout << context << '\n'
                  << renderDiagnosticsText(diags);
    return hasErrors(diags) ? 1 : 0;
}

int
cmdMaxBatch(const Args &args)
{
    DeviceSpec spec;
    BackwardOptions bo{.recompute_bn = args.has("recompute-bn")};
    const double depth = args.flagDouble("split", 0.0);
    const auto [gh, gw] = parseGrid(args.flag("grid", "2x2")).value();
    const std::string model = args.positional(0, "vgg19");

    auto fits = [&](int64_t batch) {
        ModelConfig cfg{.batch = batch,
                        .image = args.flagInt("image", 224),
                        .classes = 1000,
                        .width = 1.0,
                        .batch_norm = model != "vgg19"};
        Graph g = buildModel(model, cfg);
        if (depth > 0.0)
            g = splitCnnTransform(
                g, {.depth = depth, .splits_h = gh, .splits_w = gw});
        auto assignment = assignStorage(g, g.topoOrder());
        const double cap =
            depth > 0.0
                ? profileForwardPass(g, spec, bo).offloadable_fraction
                : 0.0;
        auto plan = planMemory(
            g, spec,
            {depth > 0.0 ? PlannerKind::Hmms : PlannerKind::None, cap,
             bo},
            assignment).value();
        auto mem = planStaticMemory(
            g, assignment, plan, bo,
            {.naive_lifetimes = args.has("naive")});
        return mem.fits(spec.memory_capacity);
    };
    int64_t lo = 0, hi = 8192;
    while (lo < hi) {
        const int64_t mid = (lo + hi + 1) / 2;
        if (fits(mid))
            lo = mid;
        else
            hi = mid - 1;
    }
    std::printf("%s: max batch %lld on a %.0f GB device\n",
                model.c_str(), static_cast<long long>(lo),
                spec.memory_capacity / 1e9);
    return 0;
}

int
cmdDot(const Args &args)
{
    Graph g = buildFromArgs(args, /*default_batch=*/1);
    std::cout << toDot(g);
    return 0;
}

int
cmdTrain(const Args &args)
{
    SyntheticDataset data(
        {.classes = 10,
         .image = 32,
         .train_samples =
             static_cast<int>(args.flagInt("samples", 512)),
         .test_samples = 256,
         .noise = 1.6f});
    TrainConfig cfg;
    const std::string mode = args.flag("mode", "base");
    cfg.mode = mode == "scnn"    ? TrainMode::SplitCnn
               : mode == "sscnn" ? TrainMode::StochasticSplit
                                 : TrainMode::Baseline;
    const auto [gh, gw] = parseGrid(args.flag("grid", "2x2")).value();
    cfg.split = {.depth = args.flagDouble("depth", 0.5),
                 .splits_h = gh,
                 .splits_w = gw,
                 .omega = 0.2};
    cfg.epochs = static_cast<int>(args.flagInt("epochs", 8));
    cfg.batch = 32;
    cfg.sgd.lr = 0.05f;
    cfg.lr_milestones = {(cfg.epochs * 3) / 5, (cfg.epochs * 4) / 5};

    Graph g = buildModel(args.positional(0, "vgg19"),
                         {.batch = cfg.batch,
                          .image = 32,
                          .classes = 10,
                          .width = 0.0625});
    auto result = trainModel(g, cfg, data);
    for (const auto &e : result.epochs)
        std::printf("epoch %2d: loss %.3f, test error %.1f%%\n",
                    e.epoch, e.train_loss, e.test_error);
    return 0;
}

int
cmdServe(const Args &args)
{
    using namespace serve;
    const int tenants_n =
        static_cast<int>(args.flagInt("tenants", 3));
    SCNN_REQUIRE(tenants_n >= 1, "--tenants must be >= 1");

    EngineOptions eopt;
    eopt.workers = static_cast<int>(args.flagInt("workers", 3));
    eopt.enable_degradation = !args.has("no-degrade");
    eopt.seed = static_cast<uint64_t>(args.flagInt("seed", 1));
    if (args.has("chaos")) {
        eopt.faults.transfer_failure_rate = 0.10;
        eopt.faults.serve_hang_rate = 0.02;
        eopt.faults.kernel_jitter = 0.20;
    }

    std::vector<TenantProfile> tenants;
    for (int i = 0; i < tenants_n; ++i) {
        TenantProfile t;
        t.name = "tenant" + std::to_string(i);
        t.config = {.batch = 1, .image = 32, .width = 0.125};
        tenants.push_back(t);
    }

    // Calibrate the run off the simulated batch time, exactly like
    // bench/bench_serving.cc (see there for the rationale).
    auto probe =
        buildServingPlan(tenants[0], tenants[0].max_batch,
                         eopt.device, /*rung=*/0);
    SCNN_REQUIRE(probe.ok(), probe.status().toString());
    const double batch_time = probe.value()->batch_time;
    const int64_t unsplit_bytes = probe.value()->device_bytes;
    eopt.time_scale = 2.5e-3 / batch_time;
    eopt.batcher.max_linger = 3.0 * batch_time;
    eopt.memory_reserve_timeout = 10.0 * batch_time;
    eopt.retry_backoff = batch_time;
    eopt.watchdog_interval = 5.0 * batch_time;
    for (TenantProfile &t : tenants)
        t.deadline = 50.0 * batch_time;
    if (args.has("squeeze")) {
        // Below two unsplit plans: concurrency requires the ladder.
        eopt.device.memory_capacity =
            static_cast<int64_t>(1.6 * unsplit_bytes);
    }

    LoadGenOptions lopt;
    lopt.duration = args.flagDouble("duration", 300.0) * batch_time;
    lopt.rate = args.flagDouble("util", 0.5) * eopt.workers *
                static_cast<double>(tenants[0].max_batch) /
                (batch_time * tenants_n);
    lopt.closed_loop = args.has("closed");
    lopt.refill_interval = batch_time;
    lopt.seed = eopt.seed + 90;

    ServingEngine engine(tenants, eopt);
    LoadGenerator gen(engine, lopt);
    engine.setOnComplete(
        [&gen](const Request &r, Outcome o, double latency) {
            gen.onComplete(r, o, latency);
        });
    const Status started = engine.start();
    SCNN_REQUIRE(started.ok(), started.toString());
    gen.run();
    engine.drain();

    const StatsSnapshot s = engine.snapshot();
    std::vector<double> lat = engine.stats().latencies();
    std::sort(lat.begin(), lat.end());
    if (args.has("json")) {
        std::printf(
            "{\"submitted\": %llu, \"completed\": %llu, "
            "\"shed\": %llu, \"deadline_exceeded\": %llu, "
            "\"failed\": %llu, \"accounting_leak\": %lld,\n"
            " \"p50\": %.6f, \"p99\": %.6f, \"p999\": %.6f,\n"
            " \"retries\": %llu, \"degraded_plans\": %llu, "
            "\"breaker_trips\": %llu, \"watchdog_kills\": %llu, "
            "\"peak_concurrent\": %lld}\n",
            static_cast<unsigned long long>(s.submitted),
            static_cast<unsigned long long>(s.completed),
            static_cast<unsigned long long>(s.shed),
            static_cast<unsigned long long>(s.deadline_exceeded),
            static_cast<unsigned long long>(s.failed),
            static_cast<long long>(s.accountingLeak()),
            percentile(lat, 0.50), percentile(lat, 0.99),
            percentile(lat, 0.999),
            static_cast<unsigned long long>(s.retries),
            static_cast<unsigned long long>(s.degraded_plans),
            static_cast<unsigned long long>(s.breaker_trips),
            static_cast<unsigned long long>(s.watchdog_kills),
            static_cast<long long>(
                engine.governor().peakConcurrent()));
    } else {
        std::printf("%s\n", s.toString().c_str());
        std::printf("p50/p99/p999 %.4f/%.4f/%.4f vs; degraded "
                    "batches %llu, breaker trips %llu, watchdog "
                    "kills %llu, peak concurrent %lld\n",
                    percentile(lat, 0.50), percentile(lat, 0.99),
                    percentile(lat, 0.999),
                    static_cast<unsigned long long>(
                        s.degraded_plans),
                    static_cast<unsigned long long>(
                        s.breaker_trips),
                    static_cast<unsigned long long>(
                        s.watchdog_kills),
                    static_cast<long long>(
                        engine.governor().peakConcurrent()));
    }
    if (s.accountingLeak() != 0) {
        std::fprintf(stderr,
                     "ACCOUNTING LEAK: %lld requests unaccounted\n",
                     static_cast<long long>(s.accountingLeak()));
        return 1;
    }
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: scnn "
                 "<profile|plan|lint|maxbatch|dot|train|serve> "
                 "<model> [flags]\nsee the header of "
                 "tools/scnn_cli.cc for the full flag list\n");
    return 2;
}

} // namespace
} // namespace scnn

int
main(int argc, char **argv)
{
    using namespace scnn;
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    const Args args(argc - 2, argv + 2);
    try {
        // --threads overrides SCNN_THREADS; default is the env value.
        setGlobalThreads(static_cast<int>(
            args.flagInt("threads", globalThreads())));
        if (cmd == "profile")
            return cmdProfile(args);
        if (cmd == "plan")
            return cmdPlan(args);
        if (cmd == "lint")
            return cmdLint(args);
        if (cmd == "maxbatch")
            return cmdMaxBatch(args);
        if (cmd == "dot")
            return cmdDot(args);
        if (cmd == "train")
            return cmdTrain(args);
        if (cmd == "serve")
            return cmdServe(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return usage();
}
