/**
 * @file
 * Fault-injection and graceful-degradation tests: deterministic
 * seeding (bit-identical SimResults), empty-plan equivalence with
 * the fault-free simulator, retry/backoff timing math, bandwidth
 * window integration, DeviceSpec/offload-cap validation, the
 * degradation chain's documented fallback order and termination,
 * ring-allreduce retries, and trainer crash/restore + re-plan.
 */
#include "sim/faults.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include "analysis/analyzer.h"
#include "data/synthetic.h"
#include "dist/ring_allreduce.h"
#include "hmms/degradation.h"
#include "hmms/planner.h"
#include "hmms/residency_checker.h"
#include "hmms/static_planner.h"
#include "models/models.h"
#include "sim/stream_sim.h"
#include "train/trainer.h"
#include "util/rng.h"

namespace scnn {
namespace {

Graph
smallVgg()
{
    return buildVgg19({.batch = 16, .image = 64, .width = 1.0});
}

struct SimSetup
{
    Graph graph;
    StorageAssignment assignment;
    MemoryPlan plan;
    DeviceSpec spec;
};

SimSetup
makeSetup()
{
    SimSetup s{smallVgg(), {}, {}, {}};
    s.assignment = assignStorage(s.graph, s.graph.topoOrder());
    s.plan = planMemory(s.graph, s.spec, {PlannerKind::Hmms, 1.0, {}},
                        s.assignment)
                 .value();
    return s;
}

void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.total_time, b.total_time);
    EXPECT_EQ(a.compute_busy, b.compute_busy);
    EXPECT_EQ(a.stall_time, b.stall_time);
    EXPECT_EQ(a.transfer_retries, b.transfer_retries);
    EXPECT_EQ(a.retry_time, b.retry_time);
    EXPECT_EQ(a.degraded_time, b.degraded_time);
    ASSERT_EQ(a.kernels.size(), b.kernels.size());
    for (size_t i = 0; i < a.kernels.size(); ++i) {
        EXPECT_EQ(a.kernels[i].node, b.kernels[i].node);
        EXPECT_EQ(a.kernels[i].start, b.kernels[i].start);
        EXPECT_EQ(a.kernels[i].end, b.kernels[i].end);
        EXPECT_EQ(a.kernels[i].stall_before,
                  b.kernels[i].stall_before);
    }
    ASSERT_EQ(a.transfers.size(), b.transfers.size());
    for (size_t i = 0; i < a.transfers.size(); ++i) {
        EXPECT_EQ(a.transfers[i].tso, b.transfers[i].tso);
        EXPECT_EQ(a.transfers[i].start, b.transfers[i].start);
        EXPECT_EQ(a.transfers[i].end, b.transfers[i].end);
        EXPECT_EQ(a.transfers[i].retries, b.transfers[i].retries);
    }
    ASSERT_EQ(a.fault_markers.size(), b.fault_markers.size());
    for (size_t i = 0; i < a.fault_markers.size(); ++i) {
        EXPECT_EQ(a.fault_markers[i].time, b.fault_markers[i].time);
        EXPECT_EQ(a.fault_markers[i].tag, b.fault_markers[i].tag);
    }
}

TEST(FaultUniform, IsDeterministicAndInRange)
{
    for (uint64_t i = 0; i < 1000; ++i) {
        const double u = faultUniform(42, kFaultStreamTransfer, i);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_EQ(u, faultUniform(42, kFaultStreamTransfer, i));
    }
    EXPECT_NE(faultUniform(1, 1, 7), faultUniform(2, 1, 7));
    EXPECT_NE(faultUniform(1, 1, 7), faultUniform(1, 2, 7));
}

TEST(FaultSim, SameSeedIsBitIdentical)
{
    const SimSetup s = makeSetup();
    FaultPlan faults;
    faults.seed = 42;
    faults.transfer_failure_rate = 0.1;
    faults.kernel_jitter = 0.05;
    faults.bandwidth = {{1e-3, 5e-3, 0.5}};
    const SimResult a = simulatePlan(s.graph, s.spec, s.plan,
                                     s.assignment, {}, &faults)
                            .value();
    const SimResult b = simulatePlan(s.graph, s.spec, s.plan,
                                     s.assignment, {}, &faults)
                            .value();
    expectIdentical(a, b);
    EXPECT_GT(a.transfer_retries, 0);
}

TEST(FaultSim, EmptyPlanMatchesFaultFreeBitForBit)
{
    const SimSetup s = makeSetup();
    const SimResult clean =
        simulatePlan(s.graph, s.spec, s.plan, s.assignment).value();
    const FaultPlan empty;
    const SimResult with_empty =
        simulatePlan(s.graph, s.spec, s.plan, s.assignment, {},
                     &empty)
            .value();
    expectIdentical(clean, with_empty);
    EXPECT_EQ(with_empty.transfer_retries, 0);
    EXPECT_EQ(with_empty.retry_time, 0.0);
    EXPECT_TRUE(with_empty.fault_markers.empty());
}

TEST(FaultSim, DifferentSeedsDiverge)
{
    const SimSetup s = makeSetup();
    FaultPlan faults;
    faults.transfer_failure_rate = 0.25;
    faults.seed = 1;
    const SimResult a = simulatePlan(s.graph, s.spec, s.plan,
                                     s.assignment, {}, &faults)
                            .value();
    faults.seed = 2;
    const SimResult b = simulatePlan(s.graph, s.spec, s.plan,
                                     s.assignment, {}, &faults)
                            .value();
    EXPECT_NE(a.total_time, b.total_time);
}

TEST(FaultSim, RetryBackoffTimingMath)
{
    // With failure rate 1 every transfer burns exactly
    // max_transfer_retries failed attempts; each failed attempt
    // occupies the full transfer time T and is followed by
    // backoff * growth^attempt. The first transfer starts at the
    // same moment in both runs (no jitter, nothing earlier on the
    // stream), so its successful-attempt start shifts by
    // 2T + backoff * (1 + growth).
    const SimSetup s = makeSetup();
    FaultPlan faults;
    faults.transfer_failure_rate = 1.0;
    faults.max_transfer_retries = 2;
    faults.retry_backoff = 3e-4;
    faults.retry_backoff_growth = 2.0;
    const SimResult clean =
        simulatePlan(s.graph, s.spec, s.plan, s.assignment).value();
    const SimResult faulty = simulatePlan(s.graph, s.spec, s.plan,
                                          s.assignment, {}, &faults)
                                 .value();
    ASSERT_FALSE(faulty.transfers.empty());
    const TransferRecord &f0 = faulty.transfers[0];
    const TransferRecord &c0 = clean.transfers[0];
    EXPECT_EQ(f0.retries, 2);
    const double T = static_cast<double>(f0.bytes) /
                     s.spec.nvlink_bandwidth;
    const double expected_shift =
        2.0 * T + faults.retry_backoff * (1.0 + 2.0);
    EXPECT_NEAR(f0.start - c0.start, expected_shift,
                1e-12 + 1e-9 * expected_shift);
    // The successful attempt itself still takes T.
    EXPECT_NEAR(f0.end - f0.start, T, 1e-12);
    // Every transfer exhausts its retry budget at rate 1.
    EXPECT_EQ(faulty.transfer_retries,
              2 * static_cast<int>(faulty.transfers.size()));
    EXPECT_GT(faulty.retry_time, 0.0);
    EXPECT_GT(faulty.total_time, clean.total_time);
}

TEST(FaultSim, BandwidthWindowStretchesTransfers)
{
    const SimSetup s = makeSetup();
    FaultPlan faults;
    faults.bandwidth = {{0.0, 1e9, 0.5}}; // whole run at half speed
    const SimResult r = simulatePlan(s.graph, s.spec, s.plan,
                                     s.assignment, {}, &faults)
                            .value();
    ASSERT_FALSE(r.transfers.empty());
    for (const TransferRecord &t : r.transfers) {
        const double T = static_cast<double>(t.bytes) /
                         s.spec.nvlink_bandwidth;
        EXPECT_NEAR(t.end - t.start, 2.0 * T, 1e-9 * T);
    }
    EXPECT_GT(r.degraded_time, 0.0);
    // The window shows up as a marker.
    bool window_marker = false;
    for (const FaultMarker &m : r.fault_markers)
        window_marker |= (m.tag == '~');
    EXPECT_TRUE(window_marker);
}

TEST(FaultSim, TransferEndTimeIntegratesPiecewise)
{
    FaultPlan plan;
    plan.bandwidth = {{0.5, 0.25, 0.5}};
    // 100 bytes at 100 B/s: 50 bytes by t=0.5, then 0.25 s at
    // 50 B/s moves 12.5 bytes, leaving 37.5 bytes at full speed.
    const double end = transferEndTime(&plan, 0.0, 100, 100.0);
    EXPECT_NEAR(end, 0.5 + 0.25 + 0.375, 1e-12);
    // Outside the window the fast path is exact.
    EXPECT_EQ(transferEndTime(&plan, 1.0, 100, 100.0), 1.0 + 1.0);
    EXPECT_EQ(transferEndTime(nullptr, 2.0, 100, 100.0), 2.0 + 1.0);
}

TEST(FaultSim, TimelineRendersFaultLane)
{
    const SimSetup s = makeSetup();
    const SimResult clean =
        simulatePlan(s.graph, s.spec, s.plan, s.assignment).value();
    EXPECT_EQ(renderTimeline(clean, s.spec).find("faults"),
              std::string::npos);

    FaultPlan faults;
    faults.transfer_failure_rate = 1.0;
    faults.max_transfer_retries = 1;
    const SimResult faulty = simulatePlan(s.graph, s.spec, s.plan,
                                          s.assignment, {}, &faults)
                                 .value();
    const std::string timeline = renderTimeline(faulty, s.spec);
    EXPECT_NE(timeline.find("faults"), std::string::npos);
    EXPECT_NE(timeline.find('x'), std::string::npos);
}

TEST(Validation, RejectsNonsensicalDeviceSpecs)
{
    const Graph g = smallVgg();
    const StorageAssignment assignment =
        assignStorage(g, g.topoOrder());

    DeviceSpec zero_link;
    zero_link.nvlink_bandwidth = 0.0;
    auto plan =
        planMemory(g, zero_link, {PlannerKind::Hmms, 1.0, {}},
                   assignment);
    ASSERT_FALSE(plan.ok());
    EXPECT_EQ(plan.status().code(), StatusCode::InvalidArgument);

    DeviceSpec good;
    auto good_plan = planMemory(g, good, {PlannerKind::Hmms, 1.0, {}},
                                assignment);
    ASSERT_TRUE(good_plan.ok());

    DeviceSpec bad_capacity;
    bad_capacity.memory_capacity = -1;
    auto sim = simulatePlan(g, bad_capacity, good_plan.value(),
                            assignment);
    ASSERT_FALSE(sim.ok());
    EXPECT_EQ(sim.status().code(), StatusCode::InvalidArgument);

    DeviceSpec nan_flops;
    nan_flops.peak_flops = std::nan("");
    EXPECT_FALSE(
        simulatePlan(g, nan_flops, good_plan.value(), assignment)
            .ok());

    // Bad offload caps and fault plans are rejected up front too.
    EXPECT_FALSE(
        planMemory(g, good, {PlannerKind::Hmms, 1.5, {}}, assignment)
            .ok());
    FaultPlan bad_faults;
    bad_faults.transfer_failure_rate = 2.0;
    EXPECT_FALSE(simulatePlan(g, good, good_plan.value(), assignment,
                              {}, &bad_faults)
                     .ok());
}

TEST(Validation, ResidencyCheckerRejectsMismatchedInputs)
{
    const Graph g = smallVgg();
    const StorageAssignment assignment =
        assignStorage(g, g.topoOrder());
    const DeviceSpec spec;
    const MemoryPlan plan =
        planMemory(g, spec, {PlannerKind::Hmms, 1.0, {}}, assignment)
            .value();
    const StaticMemoryPlan mem =
        planStaticMemory(g, assignment, plan);

    // Matching inputs pass.
    ASSERT_TRUE(checkResidency(g, assignment, plan, mem).ok());

    // An assignment from a different graph is caught, not indexed.
    const Graph other =
        buildVgg19({.batch = 8, .image = 32, .width = 0.5});
    const StorageAssignment other_assignment =
        assignStorage(other, other.topoOrder());
    auto report = checkResidency(g, other_assignment, plan, mem);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(Degradation, ChainFollowsDocumentedOrder)
{
    const Graph g = smallVgg();
    const DeviceSpec spec;
    const StorageAssignment assignment =
        assignStorage(g, g.topoOrder());

    // Capacity that the no-offload plan misses but full-cap HMMS
    // makes: the chain must recover on the "raise offload cap" rung.
    const MemoryPlan none =
        planMemory(g, spec, {PlannerKind::None, 0.0, {}}, assignment)
            .value();
    const MemoryPlan full =
        planMemory(g, spec, {PlannerKind::Hmms, 1.0, {}}, assignment)
            .value();
    const int64_t none_peak =
        planStaticMemory(g, assignment, none).totalDeviceBytes();
    const int64_t full_peak =
        planStaticMemory(g, assignment, full).totalDeviceBytes();
    ASSERT_LT(full_peak, none_peak);

    DeviceSpec tight = spec;
    tight.memory_capacity = full_peak;
    DegradationReport report;
    auto degraded = planWithDegradation(
        g, tight, {PlannerKind::None, 0.0, {}}, &report);
    ASSERT_TRUE(degraded.ok()) << degraded.status().toString();
    EXPECT_TRUE(report.success);
    ASSERT_GE(report.attempts.size(), 2u);
    EXPECT_EQ(report.attempts[0].action, "initial");
    EXPECT_FALSE(report.attempts[0].fits);
    EXPECT_TRUE(report.attempts.back().fits);
    EXPECT_FALSE(degraded.value().split_applied);
    EXPECT_EQ(degraded.value().config.kind, PlannerKind::Hmms);

    // The rung order never regresses: initial -> cap raises ->
    // layer-wise -> splits.
    auto stage = [](const std::string &action) {
        if (action == "initial")
            return 0;
        if (action == "raise offload cap")
            return 1;
        if (action == "layer-wise scheduler")
            return 2;
        return 3;
    };
    for (size_t i = 1; i < report.attempts.size(); ++i)
        EXPECT_GE(stage(report.attempts[i].action),
                  stage(report.attempts[i - 1].action));

    // The degraded plan is complete and passes the residency check.
    const DegradedPlan &dp = degraded.value();
    EXPECT_TRUE(dp.memory.fits(tight.memory_capacity));
    EXPECT_TRUE(checkResidency(dp.graph, dp.assignment, dp.plan,
                               dp.memory, dp.config.backward)
                    .value()
                    .ok());
}

TEST(Degradation, SplitRungRescuesTinyCapacity)
{
    const Graph g = smallVgg();
    DeviceSpec spec;

    // Self-calibrate: run the chain against a 1-byte capacity so
    // every rung is attempted and recorded, then read the smallest
    // peak any *unsplit* rung achieved from the report. Rung peaks
    // do not depend on the capacity planned against, so a capacity
    // just below that floor forces the real run onto the split
    // rungs.
    DeviceSpec probe = spec;
    probe.memory_capacity = 1;
    DegradationReport probe_report;
    ASSERT_FALSE(planWithDegradation(g, probe,
                                     {PlannerKind::Hmms, 0.5, {}},
                                     &probe_report)
                     .ok());
    int64_t best_unsplit = std::numeric_limits<int64_t>::max();
    int64_t best_split = std::numeric_limits<int64_t>::max();
    for (const DegradationAttempt &a : probe_report.attempts)
        (a.split ? best_split : best_unsplit) = std::min(
            a.split ? best_split : best_unsplit, a.device_bytes);
    // Splitting must actually buy footprint on this model, or the
    // scenario is vacuous.
    ASSERT_LT(best_split, best_unsplit);

    spec.memory_capacity = best_unsplit - 1;
    DegradationReport report;
    auto degraded = planWithDegradation(
        g, spec, {PlannerKind::Hmms, 0.5, {}}, &report);
    ASSERT_TRUE(degraded.ok()) << degraded.status().toString();
    EXPECT_TRUE(degraded.value().split_applied);
    EXPECT_EQ(report.attempts.back().action, "split-cnn re-split");
    EXPECT_TRUE(degraded.value().memory.fits(spec.memory_capacity));
    // Every unsplit rung was walked and recorded on the way down.
    EXPECT_GE(report.attempts.size(), 3u);
    // The report is printable (the trainer logs it).
    EXPECT_NE(report.toString().find("recovered"),
              std::string::npos);
}

TEST(Degradation, AlwaysTerminatesForRandomCapacities)
{
    const Graph g =
        buildVgg19({.batch = 8, .image = 32, .width = 0.5});
    Rng rng(123);
    for (int trial = 0; trial < 24; ++trial) {
        // Log-uniform capacities from 64 KB to 64 GB.
        const double log_lo = std::log(64.0 * 1024);
        const double log_hi = std::log(64e9);
        const double u = rng.uniform();
        DeviceSpec spec;
        spec.memory_capacity = static_cast<int64_t>(
            std::exp(log_lo + u * (log_hi - log_lo)));
        DegradationReport report;
        auto result = planWithDegradation(
            g, spec, {PlannerKind::Hmms, 0.5, {}}, &report);
        // The ladder is finite: initial + <=2 caps + layer-wise +
        // 4 split rungs.
        EXPECT_LE(report.attempts.size(), 8u);
        if (result.ok()) {
            EXPECT_TRUE(report.success);
            EXPECT_TRUE(result.value().memory.fits(
                spec.memory_capacity));
        } else {
            EXPECT_EQ(result.status().code(),
                      StatusCode::ResourceExhausted);
            EXPECT_FALSE(report.success);
        }
    }
}

TEST(RingAllreduce, DropRetriesExtendTheRing)
{
    RingConfig cfg;
    cfg.learners = 4;
    cfg.gradient_bytes = 100'000'000;
    cfg.link_bandwidth_bits = {10.0e9};
    const RingResult clean = simulateRingAllreduce(cfg);
    EXPECT_EQ(clean.retries, 0);
    EXPECT_EQ(clean.retry_time, 0.0);

    cfg.link_drop_rate = 0.5;
    cfg.fault_seed = 7;
    const RingResult faulty = simulateRingAllreduce(cfg);
    EXPECT_GT(faulty.retries, 0);
    EXPECT_NEAR(faulty.total_time,
                clean.total_time + faulty.retry_time, 1e-12);
    // Determinism: same seed, same outcome.
    const RingResult again = simulateRingAllreduce(cfg);
    EXPECT_EQ(faulty.total_time, again.total_time);
    EXPECT_EQ(faulty.retries, again.retries);
}

Graph
faultSmokeModel(int64_t batch)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{batch, 3, 16, 16});
    x = b.conv2d(x, 8, Window2d::square(3, 1, 1), false, "c1");
    x = b.relu(x, "r1");
    b.markCutPoint(x);
    x = b.conv2d(x, 16, Window2d::square(3, 1, 1), false, "c2");
    x = b.relu(x, "r2");
    b.markCutPoint(x);
    x = b.globalAvgPool(x, "gap");
    x = b.flatten(x);
    x = b.linear(x, 4, true, "fc");
    return b.build();
}

TEST(TrainerFaults, CrashRestoresFromCheckpointAndReplans)
{
    SyntheticDataset data({.classes = 4,
                           .image = 16,
                           .train_samples = 64,
                           .test_samples = 32,
                           .noise = 0.4f});
    FaultPlan faults;
    faults.crash_epochs = {1};
    faults.capacity = {{2, 128 << 20}};

    TrainConfig cfg;
    cfg.mode = TrainMode::Baseline;
    cfg.epochs = 3;
    cfg.batch = 32;
    cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
    cfg.faults = &faults;
    cfg.checkpoint_path = std::string(::testing::TempDir()) +
                          "faults_trainer.ckpt";

    const TrainResult result =
        trainModel(faultSmokeModel(cfg.batch), cfg, data);
    EXPECT_EQ(static_cast<int>(result.epochs.size()), cfg.epochs);
    EXPECT_EQ(result.restores, 1);
    EXPECT_EQ(result.replans, 1);
    ASSERT_GE(result.fault_log.size(), 2u);
    bool restored = false, replanned = false;
    for (const std::string &line : result.fault_log) {
        restored |= line.find("restored parameters") !=
                    std::string::npos;
        replanned |= line.find("capacity shrank") !=
                     std::string::npos;
    }
    EXPECT_TRUE(restored);
    EXPECT_TRUE(replanned);
    std::remove(cfg.checkpoint_path.c_str());
}

TEST(TrainerFaults, RunsAreReproducibleUnderFaults)
{
    SyntheticDataset data({.classes = 4,
                           .image = 16,
                           .train_samples = 64,
                           .test_samples = 32,
                           .noise = 0.4f});
    FaultPlan faults;
    faults.crash_epochs = {0};

    TrainConfig cfg;
    cfg.mode = TrainMode::Baseline;
    cfg.epochs = 2;
    cfg.batch = 32;
    cfg.sgd = {.lr = 0.05f, .momentum = 0.9f, .weight_decay = 1e-4f};
    cfg.faults = &faults;
    cfg.checkpoint_path = std::string(::testing::TempDir()) +
                          "faults_repro.ckpt";

    const Graph model = faultSmokeModel(cfg.batch);
    const TrainResult a = trainModel(model, cfg, data);
    const TrainResult b = trainModel(model, cfg, data);
    ASSERT_EQ(a.epochs.size(), b.epochs.size());
    for (size_t i = 0; i < a.epochs.size(); ++i) {
        EXPECT_EQ(a.epochs[i].train_loss, b.epochs[i].train_loss);
        EXPECT_EQ(a.epochs[i].test_error, b.epochs[i].test_error);
    }
    std::remove(cfg.checkpoint_path.c_str());
}

TEST(Degradation, ExhaustedChainNeverRevisitsARung)
{
    const Graph g = smallVgg();
    DeviceSpec spec;
    spec.memory_capacity = 1; // nothing can fit: full ladder walk
    DegradationReport report;
    auto result = planWithDegradation(
        g, spec, {PlannerKind::Hmms, 0.5, {}}, &report);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::ResourceExhausted);
    EXPECT_FALSE(report.success);
    // The exhaustion Status names the capacity and attempt count so
    // the failure is diagnosable from the log line alone.
    EXPECT_NE(result.status().toString().find("attempts"),
              std::string::npos);

    // Termination proof: the walk visits each rung configuration at
    // most once — no (action, planner, cap, geometry) repeats.
    std::set<std::string> seen;
    for (const DegradationAttempt &a : report.attempts) {
        char key[128];
        std::snprintf(key, sizeof(key), "%s|%s|%.4f|%d|%.2f@%dx%d",
                      a.action.c_str(), plannerKindName(a.kind),
                      a.offload_cap, a.split ? 1 : 0,
                      a.split_options.depth,
                      a.split_options.splits_h,
                      a.split_options.splits_w);
        EXPECT_TRUE(seen.insert(key).second)
            << "rung revisited: " << key;
    }
}

TEST(Degradation, HonoursInitialBackwardOptions)
{
    // Every rung, the "initial" one included, plans with the caller's
    // backward options, and the returned config carries them.
    const Graph g = smallVgg();
    PlannerConfig initial{PlannerKind::Hmms, 1.0, {}};
    initial.backward.recompute_bn = true;
    DegradationReport report;
    auto result = planWithDegradation(g, DeviceSpec{}, initial, &report);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(report.attempts.size(), 1u);
    EXPECT_TRUE(result.value().config.backward.recompute_bn);
    const DegradedPlan &dp = result.value();
    EXPECT_TRUE(checkResidency(dp.graph, dp.assignment, dp.plan,
                               dp.memory, dp.config.backward)
                    .value()
                    .ok());
}

TEST(Degradation, EveryEmittedRungRebuildsLintClean)
{
    // Rebuild the exact plan of every rung the chain walked and run
    // the static analyzer over it: the degradation ladder must never
    // emit (or even consider) an ill-formed plan, not just the one
    // rung it finally accepts.
    const Graph g = smallVgg();
    DeviceSpec spec;
    spec.memory_capacity = 1; // force the complete walk
    DegradationReport report;
    ASSERT_FALSE(planWithDegradation(g, spec,
                                     {PlannerKind::Hmms, 0.5, {}},
                                     &report)
                     .ok());
    ASSERT_GE(report.attempts.size(), 4u);
    for (const DegradationAttempt &a : report.attempts) {
        Graph built =
            a.split ? splitCnnTransform(g, a.split_options) : g;
        auto assignment = assignStorage(built, built.topoOrder());
        auto plan = planMemory(built, spec,
                               {a.kind, a.offload_cap, {}},
                               assignment);
        ASSERT_TRUE(plan.ok()) << a.action << ": "
                               << plan.status().toString();
        const StaticMemoryPlan mem =
            planStaticMemory(built, assignment, plan.value());
        const auto diags = analyzePlan(built, assignment,
                                       plan.value(), mem, {});
        EXPECT_EQ(countBySeverity(diags, DiagSeverity::Error), 0)
            << "rung '" << a.action << "' fails lint:\n"
            << renderDiagnosticsText(diags);
    }
}

} // namespace
} // namespace scnn
