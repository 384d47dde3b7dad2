/**
 * @file
 * Winograd F(2x2, 3x3) tests: agreement with the im2col kernel of the
 * same engine across shapes/paddings, odd output extents, bias
 * handling, geometry rejection, and the packed weight transform
 * against the oracle's per-filter G g G^T.
 */
#include "kernels/winograd.h"

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>
#include <vector>

#include "core/split_op.h"
#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "window_oracle.h"

namespace scnn {
namespace {

/** One unsplit conv through the engine with the kernel pinned. */
Tensor
conv(const Tensor &x, const Tensor &w, const Tensor &b,
     const Window2d &win, ConvKernel kernel)
{
    return splitConv2dForward(
        x, w, b, win,
        unsplitScheme(win, x.shape().dim(2), x.shape().dim(3)), kernel);
}

class WinogradSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, int, int, bool>>
{
};

TEST_P(WinogradSweep, MatchesDirectConvolution)
{
    const auto [n, c, oc, hw, pad, bias] = GetParam();
    Rng rng(static_cast<uint64_t>(n * 131 + c * 31 + hw));
    Tensor x(Shape{n, c, hw, hw});
    Tensor w(Shape{oc, c, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    Tensor b;
    if (bias) {
        b = Tensor(Shape{oc});
        b.fillNormal(rng, 0.0f, 0.5f);
    }
    const Window2d win = Window2d::square(3, 1, pad);
    Tensor fast = conv(x, w, b, win, ConvKernel::Winograd);
    Tensor ref = conv(x, w, b, win, ConvKernel::Im2col);
    ASSERT_EQ(fast.shape(), ref.shape());
    EXPECT_LT(maxAbsDiff(fast, ref), 1e-3f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, WinogradSweep,
    ::testing::Combine(::testing::Values(1, 2),      // batch
                       ::testing::Values(1, 3, 8),   // in channels
                       ::testing::Values(1, 4),      // out channels
                       ::testing::Values(4, 7, 12),  // spatial (odd!)
                       ::testing::Values(0, 1),      // padding
                       ::testing::Bool()));          // bias

TEST(Winograd, AsymmetricPadding)
{
    Rng rng(9);
    Tensor x(Shape{1, 2, 9, 11});
    Tensor w(Shape{3, 2, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win{3, 3, 1, 1, 1, 0, 0, 1}; // split-style pads
    Tensor fast = conv(x, w, Tensor(), win, ConvKernel::Winograd);
    Tensor ref = conv(x, w, Tensor(), win, ConvKernel::Im2col);
    EXPECT_LT(maxAbsDiff(fast, ref), 1e-3f);
}

TEST(Winograd, RejectsNonWinogradGeometry)
{
    Tensor x(Shape{1, 1, 8, 8});
    Tensor w5(Shape{1, 1, 5, 5});
    EXPECT_FALSE(winogradApplicable(Window2d::square(5, 1, 2)));
    EXPECT_FALSE(winogradApplicable(Window2d::square(3, 2, 1)));
    EXPECT_TRUE(winogradApplicable(Window2d::square(3, 1, 1)));
    EXPECT_THROW(conv(x, w5, Tensor(), Window2d::square(5, 1, 2),
                      ConvKernel::Winograd),
                 std::exception);
}

/**
 * winogradPackWeights transforms several filters per block; every
 * channel count below hits a different block remainder (1 and 7: one
 * partial block, 8: one full block, 64: full blocks only). The packed
 * result must equal, byte for byte, the oracle's per-filter
 * U = G g G^T scattered into the 16 U_e matrices and packed with
 * gemmPackA, under each microkernel (the panel layout follows its
 * tile height).
 */
TEST(Winograd, PackWeightsMatchesPerFilterTransform)
{
    const bool prev = simdEnabled();
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        setSimdEnabled(simd);
        for (const int64_t c : {1, 7, 8, 64}) {
            const int64_t oc = 5;
            Rng rng(static_cast<uint64_t>(c) * 7 + 1);
            std::vector<float> w(static_cast<size_t>(oc * c * 9));
            for (auto &x : w)
                x = rng.normal();
            std::vector<float> ue(static_cast<size_t>(16 * oc * c));
            for (int64_t o = 0; o < oc; ++o)
                for (int64_t ic = 0; ic < c; ++ic) {
                    float u[4][4];
                    oracle::detail::winogradWeight(
                        w.data() + (o * c + ic) * 9, u);
                    for (int e = 0; e < 16; ++e)
                        ue[static_cast<size_t>(e * oc * c + o * c + ic)] =
                            u[e / 4][e % 4];
                }
            const int64_t pa_sz = gemmPackedASize(oc, c);
            const int64_t total = winogradPackedUSize(oc, c);
            ASSERT_EQ(total, 16 * pa_sz);
            // Both buffers 64-byte aligned, as the packers require.
            std::vector<float> raw_want(static_cast<size_t>(total + 16));
            std::vector<float> raw_got(static_cast<size_t>(total + 16));
            auto align = [](std::vector<float> &v) {
                auto addr = reinterpret_cast<uintptr_t>(v.data());
                return reinterpret_cast<float *>((addr + 63) &
                                                 ~uintptr_t{63});
            };
            float *want = align(raw_want);
            float *got = align(raw_got);
            for (int e = 0; e < 16; ++e)
                gemmPackA(oc, c, 1.0f, ue.data() + e * oc * c,
                          want + e * pa_sz);
            winogradPackWeights(w.data(), oc, c, got);
            EXPECT_EQ(0, std::memcmp(want, got,
                                     static_cast<size_t>(total) *
                                         sizeof(float)))
                << "c=" << c << " kernel=" << simdKernelName();
        }
    }
    setSimdEnabled(prev);
}

} // namespace
} // namespace scnn
