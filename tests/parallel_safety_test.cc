/**
 * @file
 * SA6xx parallel-execution safety suite: the static write-set model
 * proves the real split/pool/executor decompositions race-free, and
 * the shadow-access validator confirms the kernels' recorded claims
 * stay inside the static predictions (any escape is SA607).
 */
#include "analysis/parallel_model.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/shadow_access.h"
#include "core/split_op.h"
#include "core/splitter.h"
#include "kernels/window.h"
#include "models/models.h"
#include "tensor/tensor_ops.h"
#include "train/executor.h"
#include "util/rng.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

SplitScheme2d
makeScheme(const Window2d &win, int64_t ih, int64_t iw, int nh, int nw)
{
    return splitWindowOp2d(win, ih, iw,
                           evenOutputSplit(win.outH(ih), nh),
                           evenOutputSplit(win.outW(iw), nw),
                           InputSplitPolicy::Center);
}

/** Force shadow recording on for a test body. */
class ScopedShadow
{
  public:
    ScopedShadow() { setShadowAccessForTesting(1); }
    ~ScopedShadow() { setShadowAccessForTesting(-1); }
};

// --- Static proofs over representative geometries --------------------

TEST(ParallelSafety, ConvPlansAreCleanAcrossGeometries)
{
    struct Case
    {
        int64_t k, s, p, ih, iw;
        int nh, nw;
    };
    // Stride 1 and 2, even/odd extents, 1px borders, deep grids —
    // the same halo geometries the equivalence tests sweep.
    for (const Case &cs : {Case{3, 1, 1, 16, 16, 2, 2},
                           Case{3, 2, 1, 17, 19, 2, 3},
                           Case{5, 1, 2, 12, 12, 3, 2},
                           Case{1, 1, 0, 8, 8, 2, 2},
                           Case{7, 2, 3, 32, 32, 4, 4}}) {
        const Window2d win = Window2d::square(cs.k, cs.s, cs.p);
        const auto scheme =
            makeScheme(win, cs.ih, cs.iw, cs.nh, cs.nw);
        const auto diags = analyzeParallelPlan(
            buildSplitConvPlan(2, 3, cs.ih, cs.iw, 4, win, scheme));
        EXPECT_FALSE(hasErrors(diags))
            << "k=" << cs.k << " s=" << cs.s << " grid=" << cs.nh
            << "x" << cs.nw << '\n'
            << renderDiagnosticsText(diags);
    }
}

TEST(ParallelSafety, GroupedConvPlansProveInterGroupDisjointness)
{
    // 2x2 output patches: 8 GEMM columns per image, so groups of
    // kSplitConvGroupCols / 8 images; model two full groups.
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 4, 4, 2, 2);
    const int64_t cols = splitConvImageCols(scheme, false);
    ASSERT_LT(cols, kSplitConvGroupCols);
    const int64_t g = splitConvImageGroups(1000, cols)[0].n1;
    ASSERT_GT(g, 1);
    const int64_t n = 2 * g;

    ParallelPlan fwd = buildSplitConvPlan(n, 3, 4, 4, 4, win, scheme);
    ParallelPlan bwd =
        buildSplitConvBackwardPlan(n, 3, 4, 4, 4, win, scheme);
    for (const ParallelPlan *plan : {&fwd, &bwd}) {
        const auto diags = analyzeParallelPlan(*plan);
        EXPECT_FALSE(hasErrors(diags))
            << plan->name << ":\n" << renderDiagnosticsText(diags);
    }
    // One item per (group, band): two groups x two bands.
    ASSERT_EQ(fwd.items.size(), 4u);
    EXPECT_EQ(fwd.items[0].name,
              "img0-" + std::to_string(g - 1) + ":band0.0");
    EXPECT_EQ(fwd.items[2].name, "img" + std::to_string(g) + "-" +
                                     std::to_string(n - 1) + ":band0.0");

    // Group 0's first band shifted one image on overlaps group 1's
    // write: the analyzer must see the two groups as distinct writers.
    ParallelAccess &wout = fwd.items[0].accesses[0];
    ASSERT_TRUE(wout.write);
    wout.span.base += 4 * 4 * 4; // one image (oc x out_h x out_w)
    bool race = false;
    for (const Diagnostic &d : analyzeParallelPlan(fwd))
        race = race || d.code == "SA601";
    EXPECT_TRUE(race);
}

TEST(ParallelSafety, PoolAndExecutorPlansAreClean)
{
    const Window2d win = Window2d::square(2, 2, 0);
    const auto pool_diags = analyzeParallelPlan(buildSplitPoolPlan(
        2, 3, 16, 16, win, makeScheme(win, 16, 16, 2, 2)));
    EXPECT_FALSE(hasErrors(pool_diags))
        << renderDiagnosticsText(pool_diags);

    for (const char *model : {"vgg19", "resnet18"}) {
        Graph g = buildModel(
            model,
            {.batch = 2, .image = 32, .classes = 10, .width = 0.25});
        const auto diags = analyzeParallelExecution(g, 2, 2);
        EXPECT_FALSE(hasErrors(diags))
            << model << ":\n"
            << renderDiagnosticsText(diags);
    }
}

// --- Shadow validator: kernels vs static model -----------------------

TEST(ParallelSafety, ShadowValidatesConvAgainstModel)
{
    ScopedShadow shadow;
    shadowAccessResetStats();
    Rng rng(7);
    Tensor x(Shape{2, 3, 17, 19});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor bias(Shape{4});
    bias.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    // Stride-1 (im2col or Winograd) and a downsampling geometry.
    splitConv2dForward(x, w, bias, win, makeScheme(win, 17, 19, 2, 3));
    const Window2d win2 = Window2d::square(3, 2, 1);
    splitConv2dForward(x, w, bias, win2,
                       makeScheme(win2, 17, 19, 2, 2));

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, 2);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

TEST(ParallelSafety, ShadowValidatesGroupedConvAgainstModel)
{
    // 1x1 output patches at a batch with a ragged last group, both
    // kernels forward and the backward: every recorded claim of a
    // grouped item must sit inside its modeled footprint.
    ScopedShadow shadow;
    shadowAccessResetStats();
    Rng rng(11);
    Tensor x(Shape{37, 3, 2, 2});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor bias(Shape{4});
    bias.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 2, 2, 2, 2);
    splitConv2dForward(x, w, bias, win, scheme, ConvKernel::Im2col);
    splitConv2dForward(x, w, bias, win, scheme, ConvKernel::Winograd);
    Tensor go(Shape{37, 4, 2, 2});
    go.fillNormal(rng, 0.0f, 1.0f);
    Tensor gx;
    Tensor gw(w.shape());
    Tensor gb(Shape{4});
    splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, 3);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

TEST(ParallelSafety, ShadowValidatesPoolAgainstModel)
{
    ScopedShadow shadow;
    shadowAccessResetStats();
    Rng rng(11);
    Tensor x(Shape{2, 3, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    std::vector<int64_t> argmax;
    splitMaxPool2dForward(x, win, scheme, argmax);
    splitAvgPool2dForward(x, win, scheme);

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, 2);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

/** A deliberate out-of-footprint record must surface as SA607. */
TEST(ParallelSafety, ShadowEscapeIsSA607)
{
    ScopedShadow shadow;
    ParallelPlan plan;
    plan.name = "toy";
    ParallelRegion region;
    region.name = "out";
    region.size = 8;
    plan.regions.push_back(region);
    ParallelItem item;
    item.name = "item0";
    ParallelAccess acc;
    acc.region = 0;
    acc.write = true;
    acc.span = StridedSpan::interval(0, 4); // item owns [0, 4) only
    item.accesses.push_back(acc);
    plan.items.push_back(item);

    std::vector<float> buf(8, 0.0f);
    ShadowSession session(std::move(plan));
    session.bind("out", buf.data());
    session.setItem(0);
    shadowRecord(buf.data(), 4, true);     // inside the prediction
    shadowRecord(buf.data() + 2, 4, true); // escapes into [4, 6)
    const auto diags = session.check();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "SA607");
    EXPECT_NE(diags[0].message.find("item0"), std::string::npos);
}

/** Writes outside every predicted span of the wrong kind: a read
 * landing in the write set is legal, a write landing in the read set
 * is not. */
TEST(ParallelSafety, ShadowDirectionMattersForContainment)
{
    ScopedShadow shadow;
    ParallelPlan plan;
    plan.name = "toy";
    ParallelRegion region;
    region.name = "buf";
    region.size = 8;
    region.read_only = false;
    plan.regions.push_back(region);
    ParallelItem item;
    item.name = "item0";
    ParallelAccess wr;
    wr.region = 0;
    wr.write = true;
    wr.span = StridedSpan::interval(0, 2);
    item.accesses.push_back(wr);
    ParallelAccess rd;
    rd.region = 0;
    rd.write = false;
    rd.span = StridedSpan::interval(4, 2);
    item.accesses.push_back(rd);
    plan.items.push_back(item);

    std::vector<float> buf(8, 0.0f);
    ShadowSession session(std::move(plan));
    session.bind("buf", buf.data());
    session.setItem(0);
    shadowRecord(buf.data(), 2, false); // read inside write set: ok
    shadowRecord(buf.data() + 4, 2, true); // write in read set: SA607
    const auto diags = session.check();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].code, "SA607");
}

TEST(ParallelSafety, LintParallelGateFollowsEnv)
{
    // The dispatcher gate re-reads the environment every call.
    setenv("SCNN_LINT_PARALLEL", "1", 1);
    EXPECT_TRUE(lintParallelEnabled());
    setenv("SCNN_LINT_PARALLEL", "0", 1);
    EXPECT_FALSE(lintParallelEnabled());
    unsetenv("SCNN_LINT_PARALLEL");
}

/**
 * Executor waves run a split layer's patch clones on different pool
 * workers, so several engine calls hold shadow sessions, lint their
 * plans and share the Winograd weight cache at the same time. One
 * training step at 4 threads with the recorder and the parallel lint
 * on must record no escape, share one U transform across the four
 * clones of the Winograd layer, and match the 1-thread step bitwise.
 */
TEST(ParallelSafety, SplitGraphExecutorAtFourThreads)
{
    GraphBuilder b;
    TensorId x = b.input(Shape{2, 48, 8, 8});
    // 48 -> 48 channels passes winogradCostModelWins; conv2d does not.
    x = b.conv2d(x, 48, Window2d::square(3, 1, 1), true, "conv1");
    x = b.batchNorm(x, "bn1");
    x = b.relu(x, "relu1");
    x = b.conv2d(x, 8, Window2d::square(3, 1, 1), false, "conv2");
    x = b.maxPool(x, Window2d::square(2, 2, 0), "pool1");
    b.markCutPoint(x);
    x = b.flatten(x);
    x = b.linear(x, 5, true, "fc");
    const Graph split = splitCnnTransform(
        b.build(), {.depth = 1.0, .splits_h = 2, .splits_w = 2}, nullptr);

    Tensor input(Shape{2, 48, 8, 8});
    Rng drng(3);
    input.fillNormal(drng, 0.0f, 1.0f);

    struct Step
    {
        Tensor logits;
        std::vector<Tensor> grads;
    };
    auto step = [&](int threads) {
        const int prev = globalThreads();
        setGlobalThreads(threads);
        Rng rng(5);
        ParamStore params(split, rng);
        params.zeroGrad();
        Executor ex(split, params);
        ForwardCache cache;
        Step st;
        st.logits = ex.forward(input, /*training=*/true, &cache);
        ex.backward(cache, Tensor(st.logits.shape(), 1.0f));
        for (ParamId id = 0; id < static_cast<ParamId>(params.size());
             ++id)
            st.grads.push_back(params.grad(id));
        setGlobalThreads(prev);
        return st;
    };
    const Step ref = step(1);

    const char *prev_lint = std::getenv("SCNN_LINT_PARALLEL");
    const std::string saved_lint = prev_lint ? prev_lint : "";
    setenv("SCNN_LINT_PARALLEL", "1", 1);
    ScopedShadow shadow;
    shadowAccessResetStats();
    splitWeightCacheClear();
    const Step got = step(4);
    if (prev_lint)
        setenv("SCNN_LINT_PARALLEL", saved_lint.c_str(), 1);
    else
        unsetenv("SCNN_LINT_PARALLEL");

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GT(stats.sessions_checked, 0);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
    const SplitWeightCacheStats cache = splitWeightCacheStats();
    EXPECT_EQ(cache.misses, 1) << "the four clones share one U";
    EXPECT_EQ(cache.hits, 3);
    splitWeightCacheClear();

    EXPECT_TRUE(allClose(got.logits, ref.logits, 0.0f));
    ASSERT_EQ(got.grads.size(), ref.grads.size());
    for (size_t i = 0; i < ref.grads.size(); ++i)
        EXPECT_TRUE(allClose(got.grads[i], ref.grads[i], 0.0f))
            << "param grad " << i;
}

} // namespace
} // namespace scnn
