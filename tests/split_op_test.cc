/**
 * @file
 * Property tests for split-op execution (Eqs. 4-7): shape
 * preservation, exact equivalence for natural splits (k == s),
 * interior equivalence for overlapping windows (k > s), the 2-D
 * four-patch construction of Figure 2, the one-piece unsplit scheme,
 * and the Winograd weight cache. The differential sweep against the
 * materialized oracle lives in engine_sweep_test.cc.
 */
#include "core/split_op.h"

#include <gtest/gtest.h>

#include <tuple>

#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "window_oracle.h"

namespace scnn {
namespace {

SplitScheme2d
makeScheme(const Window2d &win, int64_t ih, int64_t iw, int nh, int nw,
           InputSplitPolicy policy = InputSplitPolicy::Center)
{
    return splitWindowOp2d(win, ih, iw,
                           evenOutputSplit(win.outH(ih), nh),
                           evenOutputSplit(win.outW(iw), nw), policy);
}

/** Pin the microkernel selection for a test body (see
 * gemm_blocked_test.cc). */
class ScopedSimd
{
  public:
    explicit ScopedSimd(bool enabled) : prev_(simdEnabled())
    {
        setSimdEnabled(enabled);
    }
    ~ScopedSimd() { setSimdEnabled(prev_); }

  private:
    bool prev_;
};

TEST(SplitOp, OutputShapeMatchesUnsplit)
{
    Rng rng(1);
    Tensor x(Shape{2, 3, 17, 19});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 17, 19, 3, 4);
    Tensor split = splitConv2dForward(x, w, Tensor(), win, scheme);
    Tensor ref = conv2dForwardAuto(x, w, Tensor(), win);
    EXPECT_EQ(split.shape(), ref.shape());
}

TEST(SplitOp, NaturalSplitPoolIsExactlyEquivalent)
{
    // k == s (2x2/2 max pool): splitting is non-intrusive.
    Rng rng(2);
    Tensor x(Shape{2, 3, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    std::vector<int64_t> split_argmax, argmax;
    Tensor split = splitMaxPool2dForward(x, win, scheme, split_argmax);
    Tensor ref = maxPool2dForward(x, win, argmax);
    EXPECT_TRUE(allClose(split, ref, 0.0f));
    EXPECT_EQ(split_argmax, argmax);
}

TEST(SplitOp, NaturalSplitConvIsExactlyEquivalent)
{
    Rng rng(3);
    Tensor x(Shape{1, 2, 12, 12});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{3, 2, 2, 2});
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor b(Shape{3});
    b.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 12, 12, 3, 2);
    Tensor split = splitConv2dForward(x, w, b, win, scheme);
    Tensor ref = conv2dForwardAuto(x, w, b, win);
    EXPECT_LT(maxAbsDiff(split, ref), 1e-5f);
}

TEST(SplitOp, NaturalSplitAvgPoolWithPaddingIsEquivalent)
{
    // Even with original padding, k == s natural splits keep the
    // same zero-padding semantics patch-locally.
    Rng rng(4);
    Tensor x(Shape{1, 2, 14, 14});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 1);
    const auto scheme = makeScheme(win, 14, 14, 2, 2);
    Tensor split = splitAvgPool2dForward(x, win, scheme);
    Tensor ref = avgPool2dForward(x, win);
    EXPECT_LT(maxAbsDiff(split, ref), 1e-6f);
}

/**
 * For overlapping windows (k > s), outputs whose windows stay inside
 * one patch must match the unsplit op exactly; boundary outputs may
 * differ (the intentional semantic change of Split-CNN).
 */
class InteriorEquivalence
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, InputSplitPolicy>>
{
};

TEST_P(InteriorEquivalence, InteriorOutputsMatchUnsplit)
{
    const auto [k, s, p, n, policy] = GetParam();
    if (k < s)
        GTEST_SKIP();
    Rng rng(5);
    const int64_t ih = 24, iw = 24;
    Tensor x(Shape{1, 2, ih, iw});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{2, 2, k, k});
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(k, s, p);
    if (win.outH(ih) < n)
        GTEST_SKIP();
    const auto scheme = makeScheme(win, ih, iw, n, n, policy);

    Tensor split = splitConv2dForward(x, w, Tensor(), win, scheme);
    Tensor ref = conv2dForwardAuto(x, w, Tensor(), win);
    ASSERT_EQ(split.shape(), ref.shape());

    // An output (oy, ox) is interior iff its window footprint
    // [oy*s - p, oy*s - p + k) lies inside the patch's input range on
    // both axes (padding rows of the original op count as inside for
    // the first/last patch).
    auto interior_1d = [&](const SplitScheme1d &sch, int64_t o,
                           int64_t extent) {
        for (const auto &piece : sch.pieces) {
            if (o < piece.out_start || o >= piece.out_end)
                continue;
            const int64_t w_lo = o * s - p;
            const int64_t w_hi = w_lo + k; // exclusive
            const int64_t patch_lo =
                piece.in_start == 0 ? w_lo : piece.in_start;
            const int64_t patch_hi =
                piece.in_end == extent ? w_hi : piece.in_end;
            return w_lo >= patch_lo && w_hi <= patch_hi;
        }
        return false;
    };

    int64_t interior_count = 0;
    for (int64_t oy = 0; oy < ref.shape().dim(2); ++oy) {
        if (!interior_1d(scheme.h, oy, ih))
            continue;
        for (int64_t ox = 0; ox < ref.shape().dim(3); ++ox) {
            if (!interior_1d(scheme.w, ox, iw))
                continue;
            ++interior_count;
            for (int64_t oc = 0; oc < 2; ++oc)
                EXPECT_NEAR(split.at4(0, oc, oy, ox),
                            ref.at4(0, oc, oy, ox), 1e-4f)
                    << "interior output (" << oy << ", " << ox << ")";
        }
    }
    EXPECT_GT(interior_count, 0) << "test exercised nothing";
}

INSTANTIATE_TEST_SUITE_P(
    Conv, InteriorEquivalence,
    ::testing::Combine(::testing::Values(3, 5),    // k
                       ::testing::Values(1, 2),    // s
                       ::testing::Values(0, 1, 2), // p
                       ::testing::Values(2, 3),    // n splits per axis
                       ::testing::Values(InputSplitPolicy::LowerBound,
                                         InputSplitPolicy::Center,
                                         InputSplitPolicy::UpperBound)));

TEST(SplitOp, FourPatchFigure2Construction)
{
    // Figure 2: 2x2 spatial patches, operated on independently.
    Rng rng(6);
    Tensor x(Shape{1, 3, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{8, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.3f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 32, 32, 2, 2);
    EXPECT_EQ(scheme.parts(), 4);
    Tensor split = splitConv2dForward(x, w, Tensor(), win, scheme);
    EXPECT_EQ(split.shape(), Shape({1, 8, 32, 32}));
    // Patches are genuinely independent: zeroing one input patch only
    // changes the corresponding output quadrant.
    Tensor x2 = x;
    for (int64_t c = 0; c < 3; ++c)
        for (int64_t y = scheme.h.pieces[1].in_start; y < 32; ++y)
            for (int64_t xx = scheme.w.pieces[1].in_start; xx < 32; ++xx)
                x2.at4(0, c, y, xx) = 0.0f;
    Tensor split2 = splitConv2dForward(x2, w, Tensor(), win, scheme);
    // Quadrant (0, 0) of the output is untouched.
    for (int64_t c = 0; c < 8; ++c)
        for (int64_t y = 0; y < scheme.h.pieces[1].out_start; ++y)
            for (int64_t xx = 0; xx < scheme.w.pieces[1].out_start; ++xx)
                EXPECT_EQ(split.at4(0, c, y, xx),
                          split2.at4(0, c, y, xx));
}

TEST(SplitOp, SlicePatchMatchesManualCrop)
{
    Tensor x(Shape{1, 1, 8, 8});
    for (int64_t i = 0; i < 64; ++i)
        x.at(i) = static_cast<float>(i);
    const Window2d win = Window2d::square(2, 2, 0);
    const auto scheme = makeScheme(win, 8, 8, 2, 2);
    Tensor patch = oracle::slicePatch(x, scheme, 1, 0);
    EXPECT_EQ(patch.shape(), Shape({1, 1, 4, 4}));
    EXPECT_EQ(patch.at4(0, 0, 0, 0), x.at4(0, 0, 4, 0));
}

/** All-padding windows (possible on heavily padded tiny patches)
 * must write 0 and record no argmax, exactly like the oracle. */
TEST(SplitPool, MaxHandlesAllPaddingWindows)
{
    Rng rng(250);
    Tensor x(Shape{1, 2, 6, 6});
    x.fillNormal(rng, 0.0f, 1.0f);
    // k=2/s=2/p=2 on a 6x6 input: the corner windows see only
    // padding.
    const Window2d win = Window2d::square(2, 2, 2);
    const auto scheme = makeScheme(win, 6, 6, 2, 2);
    std::vector<int64_t> argmax, ref_argmax;
    Tensor got = splitMaxPool2dForward(x, win, scheme, argmax);
    Tensor ref = oracle::splitMaxPoolForward(x, win, scheme, &ref_argmax);
    EXPECT_TRUE(allClose(got, ref, 0.0f));
    EXPECT_EQ(argmax, ref_argmax);
    EXPECT_EQ(got.at4(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(argmax[0], -1);
}

TEST(SplitOp, UnsplitSchemeIsOnePieceWithOwnPaddings)
{
    // Asymmetric padding and a k < s window: one piece per axis
    // covering the whole input, the op's own paddings, and the op's
    // output extents.
    for (const Window2d &win : {Window2d{3, 5, 1, 2, 1, 0, 2, 1},
                                Window2d{1, 1, 2, 2, 0, 0, 0, 0},
                                Window2d{2, 2, 3, 3, 1, 0, 0, 1}}) {
        const SplitScheme2d scheme = unsplitScheme(win, 13, 11);
        ASSERT_EQ(scheme.parts(), 1) << win.toString();
        const SplitPiece1d &ph = scheme.h.pieces[0];
        const SplitPiece1d &pw = scheme.w.pieces[0];
        EXPECT_EQ(ph.in_start, 0);
        EXPECT_EQ(ph.in_end, 13);
        EXPECT_EQ(pw.in_end, 11);
        EXPECT_EQ(ph.out_end, win.outH(13));
        EXPECT_EQ(pw.out_end, win.outW(11));
        const Window2d local = patchWindow(win, scheme, 0, 0);
        EXPECT_EQ(local.ph_b, win.ph_b);
        EXPECT_EQ(local.ph_e, win.ph_e);
        EXPECT_EQ(local.pw_b, win.pw_b);
        EXPECT_EQ(local.pw_e, win.pw_e);
    }
    EXPECT_THROW(unsplitScheme(Window2d::square(5, 1, 0), 3, 3),
                 std::exception);
}

/** One 3x3/s1 layer on a 2x2 split of a 16x16 input: the shape the
 * Winograd weight-cache tests drive. */
struct CacheLayer
{
    Tensor x{Shape{1, 3, 16, 16}};
    Tensor w{Shape{4, 3, 3, 3}};
    Window2d win = Window2d::square(3, 1, 1);
    SplitScheme2d scheme = makeScheme(win, 16, 16, 2, 2);

    explicit CacheLayer(Rng &rng)
    {
        x.fillNormal(rng, 0.0f, 1.0f);
        w.fillNormal(rng, 0.0f, 0.4f);
    }

    Tensor forward(ConvKernel kernel = ConvKernel::Winograd) const
    {
        return splitConv2dForward(x, w, Tensor(), win, scheme, kernel);
    }
};

/**
 * The Winograd weight cache: the patch clones of one layer share one
 * U transform — 1 miss, then hits that pack nothing and serve
 * identical bytes.
 */
TEST(SplitOp, WinogradCacheSharesOneTransformAcrossClones)
{
    splitWeightCacheClear();
    Rng rng(300);
    const CacheLayer layer(rng);

    const int64_t packs0 = gemmPackACalls();
    const Tensor first = layer.forward();
    const int64_t packs_after_miss = gemmPackACalls();
    EXPECT_EQ(packs_after_miss - packs0, 16)
        << "one U transform packs the 16 transform points";
    for (int clone = 1; clone < 4; ++clone)
        EXPECT_TRUE(allClose(first, layer.forward(), 0.0f));
    EXPECT_EQ(gemmPackACalls(), packs_after_miss)
        << "cache hits must not repack";
    const auto stats = splitWeightCacheStats();
    EXPECT_EQ(stats.misses, 1);
    EXPECT_EQ(stats.hits, 3);
    EXPECT_EQ(stats.entries, 1);
    splitWeightCacheClear();
}

/** An in-place weight update (an SGD step): the content hash must
 * catch it and repack rather than serve a stale U. */
TEST(SplitOp, WinogradCacheRepacksAfterInPlaceUpdate)
{
    splitWeightCacheClear();
    Rng rng(310);
    CacheLayer layer(rng);
    layer.forward();
    for (int64_t i = 0; i < layer.w.numel(); ++i)
        layer.w.at(i) += 0.25f;
    const Tensor updated = layer.forward();
    const auto stats = splitWeightCacheStats();
    EXPECT_EQ(stats.misses, 2) << "stale entry must repack";
    EXPECT_EQ(stats.evictions, 0) << "same layer repacks, not evicts";
    const Tensor ref = oracle::splitConvForward(
        layer.x, layer.w, Tensor(), layer.win, layer.scheme,
        /*winograd=*/true);
    {
        ScopedSimd pin(false);
        EXPECT_TRUE(allClose(layer.forward(), ref, 0.0f));
    }
    EXPECT_TRUE(allClose(updated, ref, 1e-4f));
    splitWeightCacheClear();
}

/** Another layer displaces the single entry and the stats say so. */
TEST(SplitOp, WinogradCacheEvictionsAreCounted)
{
    splitWeightCacheClear();
    Rng rng(315);
    const CacheLayer first(rng), second(rng);
    first.forward();
    second.forward();
    const auto stats = splitWeightCacheStats();
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.evictions, 1);
    EXPECT_EQ(stats.entries, 1);
    splitWeightCacheClear();
}

/** The im2col kernel and the backward pack per call: no lookups. */
TEST(SplitOp, Im2colAndBackwardNeverLookUpWeightCache)
{
    splitWeightCacheClear();
    Rng rng(318);
    const CacheLayer layer(rng);
    layer.forward(ConvKernel::Im2col);
    Tensor go(Shape{1, 4, 16, 16});
    go.fillNormal(rng, 0.0f, 1.0f);
    Tensor gx, gb;
    Tensor gw(layer.w.shape());
    splitConv2dBackward(layer.x, layer.w, go, layer.win, layer.scheme, gx,
                        gw, gb);
    const auto stats = splitWeightCacheStats();
    EXPECT_EQ(stats.hits + stats.misses, 0);
    EXPECT_EQ(stats.entries, 0);
    splitWeightCacheClear();
}

/** Packed U layouts depend on the microkernel, so switching it must
 * miss instead of serving panels packed for the other one. */
TEST(SplitOp, WinogradCacheKeyedByMicrokernel)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD kernel on this build/CPU";
    splitWeightCacheClear();
    Rng rng(320);
    Tensor x(Shape{1, 3, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{4, 3, 3, 3});
    w.fillNormal(rng, 0.0f, 0.4f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = makeScheme(win, 16, 16, 2, 2);
    for (const bool simd : {false, true}) {
        ScopedSimd pin(simd);
        splitConv2dForward(x, w, Tensor(), win, scheme,
                           ConvKernel::Winograd);
    }
    const auto stats = splitWeightCacheStats();
    EXPECT_EQ(stats.misses, 2);
    EXPECT_EQ(stats.hits, 0);
    splitWeightCacheClear();
}

TEST(SplitOp, StochasticSchemeStillTilesOutput)
{
    Rng rng(7);
    Tensor x(Shape{1, 2, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor w(Shape{2, 2, 3, 3});
    w.fillNormal(rng, 0.0f, 0.3f);
    const Window2d win = Window2d::square(3, 1, 1);
    for (int trial = 0; trial < 10; ++trial) {
        auto oh = stochasticOutputSplit(win.outH(32), 4, 0.2, rng);
        auto ow = stochasticOutputSplit(win.outW(32), 4, 0.2, rng);
        auto scheme = splitWindowOp2d(win, 32, 32, oh, ow);
        Tensor out = splitConv2dForward(x, w, Tensor(), win, scheme);
        EXPECT_EQ(out.shape(), Shape({1, 2, 32, 32}));
    }
}

} // namespace
} // namespace scnn
