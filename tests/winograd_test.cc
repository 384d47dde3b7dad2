/**
 * @file
 * Winograd F(2x2, 3x3) tests: agreement with the im2col kernel of the
 * same engine across shapes/paddings, odd output extents, bias
 * handling, and geometry rejection.
 */
#include "kernels/winograd.h"

#include <gtest/gtest.h>

#include <tuple>

#include "core/split_op.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

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

} // namespace
} // namespace scnn
