/**
 * @file
 * Simulator tests: cost-model sanity (arithmetic intensity ordering,
 * roofline behaviour), stream-simulator invariants (baseline equals
 * sum of op times, HMMS plans do not stall, layer-wise plans do),
 * timeline rendering, and the Figure 11 distributed model.
 */
#include <gtest/gtest.h>

#include "dist/allreduce_model.h"
#include "hmms/planner.h"
#include "models/models.h"
#include "sim/cost_model.h"
#include "sim/profile.h"
#include "sim/stream_sim.h"

namespace scnn {
namespace {

TEST(CostModel, ConvIsComputeBoundPoolIsMemoryBound)
{
    Graph g = buildVgg19({.batch = 16,
                          .image = 224,
                          .classes = 1000,
                          .width = 1.0,
                          .batch_norm = false});
    DeviceSpec spec;
    for (const auto &n : g.nodes()) {
        const OpCost cost = forwardCost(g, n);
        const double intensity =
            cost.bytes > 0 ? cost.flops / cost.bytes : 0.0;
        // The 3-channel stem conv is exempt: its window is tiny.
        if (n.kind == OpKind::Conv2d && n.win.kh == 3 &&
            g.tensor(n.inputs[0]).shape.dim(1) >= 16) {
            EXPECT_GT(intensity, 30.0) << n.name;
        }
        if (n.kind == OpKind::MaxPool2d || n.kind == OpKind::ReLU) {
            EXPECT_LT(intensity, 8.0) << n.name;
        }
    }
}

TEST(CostModel, BackwardConvCostsTwiceForward)
{
    Graph g = buildVgg19({.batch = 4, .image = 32, .width = 0.25});
    for (const auto &n : g.nodes()) {
        if (n.kind != OpKind::Conv2d)
            continue;
        EXPECT_DOUBLE_EQ(backwardCost(g, n).flops,
                         2.0 * forwardCost(g, n).flops);
    }
}

TEST(CostModel, RecomputeBnAddsBackwardCost)
{
    Graph g = buildResNet18({.batch = 4, .image = 32, .width = 0.25});
    for (const auto &n : g.nodes()) {
        if (n.kind != OpKind::BatchNorm)
            continue;
        EXPECT_GT(backwardCost(g, n, true).flops,
                  backwardCost(g, n, false).flops);
    }
}

TEST(CostModel, ExecutionTimeFollowsRoofline)
{
    DeviceSpec spec;
    // Pure compute workload.
    OpCost compute{1e12, 1e6};
    // Pure memory workload.
    OpCost memory{1e6, 1e12};
    const double tc = executionTime(compute, spec);
    const double tm = executionTime(memory, spec);
    EXPECT_NEAR(tc,
                1e12 / (spec.flops_efficiency * spec.peak_flops) +
                    spec.launch_overhead,
                1e-9);
    EXPECT_NEAR(tm,
                1e12 / (spec.bandwidth_efficiency * spec.mem_bandwidth) +
                    spec.launch_overhead,
                1e-9);
    EXPECT_EQ(executionTime({0.0, 0.0}, spec), 0.0);
}

TEST(CostModel, WorkspaceShrinksWithSplitPatches)
{
    // Section 6.3 factor 1: patch convolutions reuse a smaller
    // workspace. Compare the same conv at full vs quarter spatial
    // extent.
    auto ws_of = [](int64_t image) {
        GraphBuilder b;
        TensorId x = b.input(Shape{8, 64, image, image});
        b.conv2d(x, 64, Window2d::square(3, 1, 1), true, "c");
        Graph g = b.build();
        int64_t ws = 0;
        for (const auto &n : g.nodes())
            ws = std::max(ws, workspaceBytes(g, n));
        return ws;
    };
    const int64_t full = ws_of(64);
    const int64_t quarter = ws_of(32);
    EXPECT_GT(full, 0);
    EXPECT_NEAR(static_cast<double>(quarter), full / 4.0, full * 0.05);
}

TEST(StreamSim, BaselineTimeEqualsSumOfOpTimes)
{
    Graph g = buildResNet18({.batch = 4, .image = 32, .width = 0.25});
    DeviceSpec spec;
    auto assignment = assignStorage(g, g.topoOrder());
    auto plan =
        planMemory(g, spec, {PlannerKind::None, 1.0, {}}, assignment).value();
    auto result = simulatePlan(g, spec, plan, assignment).value();
    EXPECT_NEAR(result.total_time, result.compute_busy, 1e-12);
    EXPECT_EQ(result.stall_time, 0.0);
    EXPECT_TRUE(result.transfers.empty());

    double sum = 0.0;
    for (const auto &k : result.kernels)
        sum += k.end - k.start;
    EXPECT_NEAR(sum, result.compute_busy, 1e-9);
}

TEST(StreamSim, HmmsPlanNeverStallsWhenBandwidthSuffices)
{
    // VGG-19 (fully offload-able per Figure 1) under HMMS: no
    // discernible degradation (paper: 1.3%).
    Graph g = buildVgg19({.batch = 64,
                          .image = 224,
                          .classes = 1000,
                          .width = 1.0,
                          .batch_norm = false});
    DeviceSpec spec;
    auto assignment = assignStorage(g, g.topoOrder());
    auto plan = planMemory(g, spec, {PlannerKind::Hmms, 1.0, {}},
                           assignment).value();
    auto result = simulatePlan(g, spec, plan, assignment).value();
    EXPECT_LT(result.stall_time, 0.02 * result.compute_busy);
    EXPECT_FALSE(result.transfers.empty());
}

TEST(StreamSim, LayerWiseStallsMoreThanHmms)
{
    Graph g = buildVgg19({.batch = 64,
                          .image = 224,
                          .classes = 1000,
                          .width = 1.0,
                          .batch_norm = false});
    DeviceSpec spec;
    auto assignment = assignStorage(g, g.topoOrder());
    auto lw = simulatePlan(
        g, spec,
        planMemory(g, spec, {PlannerKind::LayerWise, 1.0, {}},
                   assignment).value(),
        assignment).value();
    auto hm = simulatePlan(
        g, spec,
        planMemory(g, spec, {PlannerKind::Hmms, 1.0, {}}, assignment)
            .value(),
        assignment).value();
    EXPECT_GT(lw.stall_time, hm.stall_time);
    EXPECT_GT(lw.total_time, hm.total_time * 1.05);
}

TEST(StreamSim, TransfersNeverOverlapOnOneStream)
{
    Graph g = buildVgg19({.batch = 16, .image = 64, .width = 1.0});
    DeviceSpec spec;
    auto assignment = assignStorage(g, g.topoOrder());
    auto plan = planMemory(g, spec, {PlannerKind::Hmms, 1.0, {}},
                           assignment).value();
    auto result = simulatePlan(g, spec, plan, assignment).value();
    for (size_t a = 0; a < result.transfers.size(); ++a)
        for (size_t b = a + 1; b < result.transfers.size(); ++b) {
            const auto &x = result.transfers[a];
            const auto &y = result.transfers[b];
            if (x.stream != y.stream)
                continue;
            EXPECT_TRUE(x.end <= y.start + 1e-12 ||
                        y.end <= x.start + 1e-12);
        }
}

TEST(StreamSim, ThroughputIsBatchOverTime)
{
    SimResult r;
    r.total_time = 0.5;
    EXPECT_DOUBLE_EQ(r.throughput(64), 128.0);
}

TEST(StreamSim, TimelineRendersLanes)
{
    Graph g = buildVgg19({.batch = 8, .image = 64, .width = 0.5});
    DeviceSpec spec;
    auto assignment = assignStorage(g, g.topoOrder());
    auto plan = planMemory(g, spec, {PlannerKind::Hmms, 1.0, {}},
                           assignment).value();
    auto result = simulatePlan(g, spec, plan, assignment).value();
    const std::string timeline = renderTimeline(result, spec, 60);
    EXPECT_NE(timeline.find("compute"), std::string::npos);
    EXPECT_NE(timeline.find("memcpy 0"), std::string::npos);
    EXPECT_NE(timeline.find('#'), std::string::npos);
    EXPECT_NE(timeline.find('v'), std::string::npos);
}

TEST(DistModel, AllreduceBoundMatchesFormula)
{
    // 2 * |G| / (alpha * B): 100 MB of gradients over 10 Gbit/s at
    // alpha = 0.8 -> 2 * 800 Mbit / 8 Gbit/s = 0.2 s.
    EXPECT_NEAR(allreduceTime(100'000'000, 10.0e9, 0.8), 0.2, 1e-9);
}

TEST(DistModel, CommunicationHiddenWhenBackwardDominates)
{
    DistConfig cfg;
    cfg.dataset_size = 1000;
    cfg.batch = 10;
    cfg.t_forward = 1.0;
    cfg.t_backward = 2.0;
    cfg.gradient_bytes = 1; // negligible communication
    EXPECT_NEAR(epochTime(cfg), 100 * 3.0, 1e-6);
}

TEST(DistModel, SpeedupGrowsAsBandwidthShrinks)
{
    // Larger batches win more when communication dominates.
    DistConfig base, split;
    base.batch = 64;
    split.batch = 384;
    base.t_forward = split.t_forward = 0.18;
    base.t_backward = split.t_backward = 0.36;
    base.gradient_bytes = split.gradient_bytes = 575'000'000;
    double prev = 0.0;
    for (double bw : {32.0e9, 10.0e9, 1.0e9, 0.5e9}) {
        base.bandwidth_bits = split.bandwidth_bits = bw;
        const double s = distributedSpeedup(base, split);
        EXPECT_GE(s, prev * 0.999);
        prev = s;
    }
    // In the bandwidth-starved limit the speedup approaches the
    // batch-size ratio.
    EXPECT_NEAR(prev, 384.0 / 64.0, 0.5);
}

TEST(DistModel, SpeedupIsOneWithEqualConfigs)
{
    DistConfig cfg;
    cfg.t_forward = 0.1;
    cfg.t_backward = 0.2;
    cfg.gradient_bytes = 1'000'000;
    EXPECT_DOUBLE_EQ(distributedSpeedup(cfg, cfg), 1.0);
}

} // namespace
} // namespace scnn
