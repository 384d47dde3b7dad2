/**
 * @file
 * Split backward pass: correctness against a composed per-patch
 * reference and against the unsplit backward where the split
 * semantics coincide, the adjoint identity against the forward,
 * SA609 static proofs for the backward plans, and shadow-access
 * validation of the kernels against the model. Bitwise parity with
 * the materialized oracle is swept in engine_sweep_test.cc.
 *
 * Every test lives in the SplitBackward suite so the TSan and
 * shadow-validation CI jobs can select the whole file with a
 * `:SplitBackward*` filter.
 */
#include "core/split_op.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/conv2d.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "window_oracle.h"

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

/** The same halo geometries the forward equivalence tests sweep. */
struct HaloCase
{
    const char *name;
    int64_t ih, iw;  ///< input extents
    int64_t k, s, p; ///< square kernel/stride/pad
    int nh, nw;      ///< split parts per axis
};

const HaloCase kHaloCases[] = {
    {"borders_1px", 9, 9, 3, 1, 1, 3, 3},  // 1px output borders
    {"uneven", 17, 19, 3, 1, 1, 3, 4},     // uneven patch extents
    {"stride2", 18, 22, 3, 2, 1, 2, 3},    // strided windows
    {"big_halo", 16, 16, 5, 1, 2, 2, 2},   // 2-row halos
    {"no_pad", 14, 12, 3, 1, 0, 2, 2},     // halo only, no zeros
    {"tiny_patches", 7, 7, 3, 1, 1, 3, 3}, // patches of 2-3 rows
};

/** Slice the grad_out block of patch (hi, wi) out of the parent. */
Tensor
sliceGradOutBlock(const Tensor &go, const SplitScheme2d &scheme,
                  int hi, int wi)
{
    const auto &ph = scheme.h.pieces[static_cast<size_t>(hi)];
    const auto &pw = scheme.w.pieces[static_cast<size_t>(wi)];
    const int64_t n = go.shape().dim(0), oc = go.shape().dim(1);
    const int64_t oh = go.shape().dim(2), ow = go.shape().dim(3);
    Tensor block(Shape{n, oc, ph.outLen(), pw.outLen()});
    for (int64_t nc = 0; nc < n * oc; ++nc)
        for (int64_t y = 0; y < ph.outLen(); ++y)
            std::memcpy(block.data() +
                            (nc * ph.outLen() + y) * pw.outLen(),
                        go.data() + (nc * oh + ph.out_start + y) * ow +
                            pw.out_start,
                        static_cast<size_t>(pw.outLen()) *
                            sizeof(float));
    return block;
}

/**
 * Composed reference: run the unsplit conv2dBackward on every
 * materialized patch with its patch-local window, scatter-add the
 * patch input gradients into the parent canvas, and accumulate
 * grad_w / grad_b across patches — the split backward a training
 * loop over materialized patch tensors would compute.
 */
void
composedConvBackward(const Tensor &x, const Tensor &w,
                     const Tensor &go, const Window2d &win,
                     const SplitScheme2d &scheme, bool bias,
                     Tensor &gx, Tensor &gw, Tensor &gb)
{
    gx = Tensor(x.shape());
    gw = Tensor(w.shape());
    gb = bias ? Tensor(Shape{w.shape().dim(0)}) : Tensor();
    for (int hi = 0; hi < scheme.h.parts(); ++hi) {
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const Tensor patch = oracle::slicePatch(x, scheme, hi, wi);
            const Tensor block =
                sliceGradOutBlock(go, scheme, hi, wi);
            const Window2d local = patchWindow(win, scheme, hi, wi);
            Tensor gxp;
            conv2dBackward(patch, w, block, local, gxp, gw, gb);
            addWindow2d(
                gxp, scheme.h.pieces[static_cast<size_t>(hi)].in_start,
                scheme.w.pieces[static_cast<size_t>(wi)].in_start, gx);
        }
    }
}

TEST(SplitBackward, ConvMatchesComposedPerPatchReference)
{
    uint32_t seed = 80;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{4, 3, hc.k, hc.k});
        w.fillNormal(rng, 0.0f, 0.4f);
        const Window2d win = Window2d::square(hc.k, hc.s, hc.p);
        const auto scheme =
            makeScheme(win, hc.ih, hc.iw, hc.nh, hc.nw);
        Tensor go(Shape{2, 4, win.outH(hc.ih), win.outW(hc.iw)});
        go.fillNormal(rng, 0.0f, 1.0f);

        Tensor gx, gb(Shape{4});
        Tensor gw(w.shape());
        splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);

        Tensor rgx, rgw, rgb;
        composedConvBackward(x, w, go, win, scheme, true, rgx, rgw,
                             rgb);
        EXPECT_LT(maxAbsDiff(gx, rgx), 1e-3f) << hc.name;
        EXPECT_LT(maxAbsDiff(gw, rgw), 5e-3f) << hc.name;
        EXPECT_LT(maxAbsDiff(gb, rgb), 1e-3f) << hc.name;
    }
}

TEST(SplitBackward, NaturalSplitConvMatchesUnsplitBackward)
{
    // k == s: splitting is non-intrusive, so the split backward must
    // agree with the unsplit conv2dBackward (up to summation order).
    Rng rng(31);
    Tensor x(Shape{2, 2, 12, 12});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{3, 2, 2, 2});
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 12, 12, 3, 2);
    Tensor go(Shape{2, 3, win.outH(12), win.outW(12)});
    go.fillNormal(rng, 0.0f, 1.0f);

    Tensor gx_s, gb_s(Shape{3}), gx_u, gb_u(Shape{3});
    Tensor gw_s(w.shape()), gw_u(w.shape());
    splitConv2dBackward(x, w, go, win, scheme, gx_s, gw_s, gb_s);
    conv2dBackward(x, w, go, win, gx_u, gw_u, gb_u);
    EXPECT_LT(maxAbsDiff(gx_s, gx_u), 1e-4f);
    EXPECT_LT(maxAbsDiff(gw_s, gw_u), 1e-3f);
    EXPECT_LT(maxAbsDiff(gb_s, gb_u), 1e-4f);
}

TEST(SplitBackward, ConvIsAdjointOfForward)
{
    // The split conv is linear in x (w fixed) and in w (x fixed), so
    // the backward must satisfy <go, F(x, w)> = <grad_x, x> and
    // <go, F(x, w)> = <grad_w, w> — an independent check against the
    // fused forward, covering the halo semantics end to end.
    for (const auto &hc : kHaloCases) {
        Rng rng(97);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        Tensor w(Shape{4, 3, hc.k, hc.k});
        w.fillNormal(rng, 0.0f, 0.4f);
        const Window2d win = Window2d::square(hc.k, hc.s, hc.p);
        const auto scheme =
            makeScheme(win, hc.ih, hc.iw, hc.nh, hc.nw);
        const Tensor out =
            splitConv2dForward(x, w, Tensor(), win, scheme);
        Tensor go(out.shape());
        Rng grng(98);
        go.fillNormal(grng, 0.0f, 1.0f);

        Tensor gx, gb;
        Tensor gw(w.shape());
        splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);

        double lhs = 0.0, via_x = 0.0, via_w = 0.0;
        for (int64_t i = 0; i < out.numel(); ++i)
            lhs += static_cast<double>(go.at(i)) * out.at(i);
        for (int64_t i = 0; i < x.numel(); ++i)
            via_x += static_cast<double>(gx.at(i)) * x.at(i);
        for (int64_t i = 0; i < w.numel(); ++i)
            via_w += static_cast<double>(gw.at(i)) * w.at(i);
        const double tol = 1e-3 * (1.0 + std::abs(lhs));
        EXPECT_NEAR(lhs, via_x, tol) << hc.name;
        EXPECT_NEAR(lhs, via_w, tol) << hc.name;
    }
}

TEST(SplitBackward, MaxPoolMatchesComposedPerPatchReference)
{
    uint32_t seed = 120;
    for (const auto &hc : kHaloCases) {
        Rng rng(++seed);
        Tensor x(Shape{2, 3, hc.ih, hc.iw});
        x.fillNormal(rng, 0.0f, 1.0f);
        const Window2d win = Window2d::square(hc.k, hc.s, hc.p);
        const auto scheme =
            makeScheme(win, hc.ih, hc.iw, hc.nh, hc.nw);
        std::vector<int64_t> argmax;
        const Tensor out = splitMaxPool2dForward(x, win, scheme, argmax);
        Tensor go(out.shape());
        go.fillNormal(rng, 0.0f, 1.0f);

        // The split forward's argmax indexes the whole input, so the
        // one max-pool scatter is the split backward: it matches
        // per-patch backwards over materialized patches, scatter-added
        // into the parent, up to summation order at shared targets.
        const Tensor split = maxPool2dBackward(x.shape(), go, argmax);
        Tensor composed(x.shape());
        for (int hi = 0; hi < scheme.h.parts(); ++hi) {
            for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                const Tensor patch =
                    oracle::slicePatch(x, scheme, hi, wi);
                std::vector<int64_t> local_argmax;
                maxPool2dForward(patch, patchWindow(win, scheme, hi, wi),
                                 local_argmax);
                addWindow2d(
                    maxPool2dBackward(patch.shape(),
                                      sliceGradOutBlock(go, scheme, hi,
                                                        wi),
                                      local_argmax),
                    scheme.h.pieces[static_cast<size_t>(hi)].in_start,
                    scheme.w.pieces[static_cast<size_t>(wi)].in_start,
                    composed);
            }
        }
        EXPECT_LT(maxAbsDiff(split, composed), 1e-5f) << hc.name;
    }
}

TEST(SplitBackward, NaturalSplitAvgPoolMatchesUnsplitBackward)
{
    // k == s with original padding: windows never cross a patch
    // boundary, so the patch-clipped taps coincide with the unsplit
    // count-include-pad taps.
    Rng rng(33);
    const Window2d win = Window2d::square(2, 2, 1);
    const auto scheme = makeScheme(win, 14, 14, 2, 2);
    Tensor go(Shape{1, 2, win.outH(14), win.outW(14)});
    go.fillNormal(rng, 0.0f, 1.0f);

    const Tensor split =
        splitAvgPool2dBackward(Shape{1, 2, 14, 14}, go, win, scheme);
    const Tensor unsplit =
        avgPool2dBackward(Shape{1, 2, 14, 14}, go, win);
    EXPECT_LT(maxAbsDiff(split, unsplit), 1e-6f);
}

// --- SA609 static proofs and shadow validation ------------------------

TEST(SplitBackward, PlansAreCleanAcrossGeometries)
{
    struct Case
    {
        int64_t k, s, p, ih, iw;
        int nh, nw;
    };
    for (const Case &cs : {Case{3, 1, 1, 16, 16, 2, 2},
                           Case{3, 2, 1, 17, 19, 2, 3},
                           Case{5, 1, 2, 12, 12, 3, 2},
                           Case{1, 1, 0, 8, 8, 2, 2},
                           Case{7, 2, 3, 32, 32, 4, 4}}) {
        const Window2d win = Window2d::square(cs.k, cs.s, cs.p);
        const auto scheme =
            makeScheme(win, cs.ih, cs.iw, cs.nh, cs.nw);
        const auto conv_diags =
            analyzeParallelPlan(buildSplitConvBackwardPlan(
                2, 3, cs.ih, cs.iw, 4, win, scheme));
        EXPECT_FALSE(hasErrors(conv_diags))
            << "conv k=" << cs.k << " s=" << cs.s << " grid=" << cs.nh
            << "x" << cs.nw << '\n'
            << renderDiagnosticsText(conv_diags);
        const auto pool_diags =
            analyzeParallelPlan(buildSplitPoolBackwardPlan(
                2, 3, cs.ih, cs.iw, win, scheme));
        EXPECT_FALSE(hasErrors(pool_diags))
            << "pool k=" << cs.k << " s=" << cs.s << " grid=" << cs.nh
            << "x" << cs.nw << '\n'
            << renderDiagnosticsText(pool_diags);
    }
}

TEST(SplitBackward, CollapsedEpochsSurfaceAsSA609)
{
    // Flattening every item into one epoch makes the halo
    // scatter-adds (and the grad_w reductions of different images)
    // concurrent — exactly the ordered-accumulation violation SA609
    // exists to catch.
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    ParallelPlan plan =
        buildSplitConvBackwardPlan(2, 3, 16, 16, 4, win, scheme);
    for (auto &item : plan.items)
        item.epoch = 0;
    const auto diags = analyzeParallelPlan(plan);
    ASSERT_TRUE(hasErrors(diags));
    bool found = false;
    for (const auto &d : diags)
        found = found || d.code == "SA609";
    EXPECT_TRUE(found) << renderDiagnosticsText(diags);
}

TEST(SplitBackward, ReversedSerialOrderSurfacesAsSA609)
{
    // Keeping the epochs distinct but flipping the serial (seq)
    // order of the per-image grad_w reductions breaks the "epoch
    // order agrees with serial order" half of the contract.
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    ParallelPlan plan =
        buildSplitConvBackwardPlan(2, 3, 16, 16, 4, win, scheme);
    std::vector<ParallelItem *> reduces;
    for (auto &item : plan.items)
        if (item.name.find("reduce") != std::string::npos)
            reduces.push_back(&item);
    ASSERT_EQ(reduces.size(), 2u);
    std::swap(reduces[0]->seq, reduces[1]->seq);
    const auto diags = analyzeParallelPlan(plan);
    ASSERT_TRUE(hasErrors(diags));
    bool found = false;
    for (const auto &d : diags)
        found = found || d.code == "SA609";
    EXPECT_TRUE(found) << renderDiagnosticsText(diags);
}

TEST(SplitBackward, ShadowValidatesBackwardAgainstModel)
{
    ScopedShadow shadow;
    shadowAccessResetStats();
    Rng rng(53);
    Tensor x(Shape{2, 3, 17, 19});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);

    // Stride-1 overlapping windows and a downsampling geometry, with
    // and without bias, plus the split max-pool forward whose argmax
    // the pool backward reads and the fused avg-pool backward.
    for (const int64_t stride : {int64_t{1}, int64_t{2}}) {
        const Window2d win = Window2d::square(3, stride, 1);
        const auto scheme = makeScheme(win, 17, 19, 2, 3);
        Tensor go(Shape{2, 4, win.outH(17), win.outW(19)});
        go.fillNormal(rng, 0.0f, 1.0f);
        Tensor gx, gb(Shape{4});
        Tensor gw(w.shape());
        splitConv2dBackward(x, w, go, win, scheme, gx, gw, gb);

        std::vector<int64_t> argmax;
        Tensor pout = splitMaxPool2dForward(x, win, scheme, argmax);
        Tensor pgo(pout.shape());
        pgo.fillNormal(rng, 0.0f, 1.0f);
        maxPool2dBackward(x.shape(), pgo, argmax);
        splitAvgPool2dBackward(x.shape(), pgo, win, scheme);
    }

    const ShadowAccessStats stats = shadowAccessStats();
    EXPECT_GE(stats.sessions_checked, 6);
    EXPECT_GT(stats.records_checked, 0);
    EXPECT_EQ(stats.violations, 0);
}

} // namespace
} // namespace scnn
