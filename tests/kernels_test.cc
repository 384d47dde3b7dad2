/**
 * @file
 * Kernel correctness: reference checks for conv/pool/batchnorm/linear
 * forward, numeric-gradient checks for every backward kernel, and
 * byte-exact specs of the SIMD elementwise loops (ReLU, batchnorm
 * normalize, max-pool selection).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "core/split_op.h"
#include "kernels/activations.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "kernels/rowops.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace scnn {
namespace {

/** Central-difference numeric gradient of a scalar function of t. */
Tensor
numericGrad(Tensor &t, const std::function<float()> &loss,
            float eps = 1e-2f)
{
    Tensor grad(t.shape());
    for (int64_t i = 0; i < t.numel(); ++i) {
        const float orig = t.at(i);
        t.at(i) = orig + eps;
        const float hi = loss();
        t.at(i) = orig - eps;
        const float lo = loss();
        t.at(i) = orig;
        grad.at(i) = (hi - lo) / (2.0f * eps);
    }
    return grad;
}

/** Sum-of-output loss; its output gradient is all-ones. */
float
sumAll(const Tensor &t)
{
    float acc = 0.0f;
    for (int64_t i = 0; i < t.numel(); ++i)
        acc += t.at(i);
    return acc;
}

TEST(Gemm, MatchesNaiveReference)
{
    Rng rng(1);
    const int64_t m = 5, n = 7, k = 4;
    std::vector<float> a(m * k), b(k * n), c(m * n, 0.5f),
        ref(m * n, 0.5f);
    for (auto &v : a)
        v = rng.normal();
    for (auto &v : b)
        v = rng.normal();
    gemm(m, n, k, 2.0f, a.data(), b.data(), 3.0f, c.data());
    for (int64_t i = 0; i < m; ++i)
        for (int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int64_t p = 0; p < k; ++p)
                acc += a[i * k + p] * b[p * n + j];
            ref[i * n + j] = 2.0f * acc + 3.0f * ref[i * n + j];
        }
    for (size_t i = 0; i < ref.size(); ++i)
        EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Gemm, TransposedVariantsAgree)
{
    Rng rng(2);
    const int64_t m = 3, n = 4, k = 5;
    std::vector<float> a(m * k), at(k * m), b(k * n), bt(n * k);
    for (int64_t i = 0; i < m; ++i)
        for (int64_t p = 0; p < k; ++p) {
            const float v = rng.normal();
            a[i * k + p] = v;
            at[p * m + i] = v;
        }
    for (int64_t p = 0; p < k; ++p)
        for (int64_t j = 0; j < n; ++j) {
            const float v = rng.normal();
            b[p * n + j] = v;
            bt[j * k + p] = v;
        }
    std::vector<float> c1(m * n), c2(m * n), c3(m * n);
    gemm(m, n, k, 1.0f, a.data(), b.data(), 0.0f, c1.data());
    gemmTN(m, n, k, 1.0f, at.data(), b.data(), 0.0f, c2.data());
    gemmNT(m, n, k, 1.0f, a.data(), bt.data(), 0.0f, c3.data());
    for (int64_t i = 0; i < m * n; ++i) {
        EXPECT_NEAR(c1[i], c2[i], 1e-4f);
        EXPECT_NEAR(c1[i], c3[i], 1e-4f);
    }
}

TEST(Im2col, AdjointProperty)
{
    // <im2col(x), c> == <x, col2im(c)> for random x, c, over the
    // whole image as a full view.
    Rng rng(3);
    const int64_t c = 2, ih = 6, iw = 5;
    const Window2d win{3, 2, 1, 1, 1, 0, 1, 1};
    const int64_t oh = win.outH(ih), ow = win.outW(iw);
    const int64_t cols = c * win.kh * win.kw * oh * ow;
    const PatchView full = PatchView::full(ih, iw);
    std::vector<float> x(c * ih * iw), col(cols), cc(cols),
        xi(c * ih * iw, 0.0f);
    for (auto &v : x)
        v = rng.normal();
    for (auto &v : cc)
        v = rng.normal();
    im2colViewStrided(x.data(), c, ih, iw, full, win, 0, oh, col.data(),
                      oh * ow, ow);
    col2imViewStrided(cc.data(), c, ih, iw, full, win, 0, oh, xi.data(),
                      oh * ow, ow);
    double lhs = 0.0, rhs = 0.0;
    for (int64_t i = 0; i < cols; ++i)
        lhs += double(col[i]) * cc[i];
    for (size_t i = 0; i < x.size(); ++i)
        rhs += double(x[i]) * xi[i];
    EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Conv2d, ForwardMatchesDirectReference)
{
    Rng rng(4);
    Tensor x(Shape{2, 3, 5, 6});
    Tensor w(Shape{4, 3, 3, 3});
    Tensor b(Shape{4});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    b.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win = Window2d::square(3, 1, 1);
    Tensor out = conv2dForwardAuto(x, w, b, win);
    ASSERT_EQ(out.shape(), Shape({2, 4, 5, 6}));
    // Direct convolution reference.
    for (int64_t in = 0; in < 2; ++in)
        for (int64_t o = 0; o < 4; ++o)
            for (int64_t oy = 0; oy < 5; ++oy)
                for (int64_t ox = 0; ox < 6; ++ox) {
                    float acc = b.at(o);
                    for (int64_t ic = 0; ic < 3; ++ic)
                        for (int64_t ky = 0; ky < 3; ++ky)
                            for (int64_t kx = 0; kx < 3; ++kx) {
                                const int64_t iy = oy - 1 + ky;
                                const int64_t ix = ox - 1 + kx;
                                if (iy < 0 || iy >= 5 || ix < 0 ||
                                    ix >= 6)
                                    continue;
                                acc += x.at4(in, ic, iy, ix) *
                                       w.at4(o, ic, ky, kx);
                            }
                    EXPECT_NEAR(out.at4(in, o, oy, ox), acc, 1e-3f);
                }
}

TEST(Conv2d, AsymmetricPaddingShapes)
{
    Tensor x(Shape{1, 1, 7, 7});
    Tensor w(Shape{1, 1, 3, 3});
    const Window2d win{3, 3, 2, 2, 1, 0, 0, 2};
    Tensor out = conv2dForwardAuto(x, w, Tensor(), win);
    EXPECT_EQ(out.shape().dim(2), win.outH(7));
    EXPECT_EQ(out.shape().dim(3), win.outW(7));
}

TEST(Conv2d, BackwardMatchesNumericGradient)
{
    Rng rng(5);
    Tensor x(Shape{1, 2, 5, 5});
    Tensor w(Shape{3, 2, 3, 3});
    Tensor b(Shape{3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.5f);
    b.fillNormal(rng, 0.0f, 0.5f);
    const Window2d win{3, 3, 2, 2, 1, 1, 1, 1};

    auto loss = [&]() { return sumAll(conv2dForwardAuto(x, w, b, win)); };
    Tensor out = conv2dForwardAuto(x, w, b, win);
    Tensor grad_out(out.shape(), 1.0f);
    Tensor gx, gw(w.shape()), gb(b.shape());
    conv2dBackward(x, w, grad_out, win, gx, gw, gb);

    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss)), 2e-2f);
    EXPECT_LT(maxAbsDiff(gw, numericGrad(w, loss)), 2e-2f);
    EXPECT_LT(maxAbsDiff(gb, numericGrad(b, loss)), 2e-2f);
}

TEST(MaxPool2d, ForwardAndBackward)
{
    Tensor x(Shape{1, 1, 4, 4});
    for (int64_t i = 0; i < 16; ++i)
        x.at(i) = static_cast<float>(i);
    std::vector<int64_t> argmax;
    const Window2d win = Window2d::square(2, 2, 0);
    Tensor out = maxPool2dForward(x, win, argmax);
    EXPECT_EQ(out.shape(), Shape({1, 1, 2, 2}));
    EXPECT_EQ(out.at4(0, 0, 0, 0), 5.0f);
    EXPECT_EQ(out.at4(0, 0, 1, 1), 15.0f);

    Tensor grad_out(out.shape(), 1.0f);
    Tensor gx = maxPool2dBackward(x.shape(), grad_out, argmax);
    EXPECT_EQ(gx.at4(0, 0, 1, 1), 1.0f);
    EXPECT_EQ(gx.at4(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(sumAll(gx), 4.0f);
}

TEST(AvgPool2d, BackwardMatchesNumericGradient)
{
    Rng rng(6);
    Tensor x(Shape{1, 2, 6, 6});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win{3, 3, 3, 3, 1, 2, 1, 2};
    auto loss = [&]() { return sumAll(avgPool2dForward(x, win)); };
    Tensor out = avgPool2dForward(x, win);
    Tensor gx = avgPool2dBackward(x.shape(), Tensor(out.shape(), 1.0f),
                                  win);
    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss)), 1e-2f);
}

TEST(GlobalAvgPool, ForwardBackward)
{
    Tensor x(Shape{2, 3, 4, 4}, 2.0f);
    Tensor out = globalAvgPoolForward(x);
    EXPECT_EQ(out.shape(), Shape({2, 3, 1, 1}));
    EXPECT_FLOAT_EQ(out.at(0), 2.0f);
    Tensor gx = globalAvgPoolBackward(x.shape(),
                                      Tensor(out.shape(), 16.0f));
    EXPECT_FLOAT_EQ(gx.at(0), 1.0f);
}

TEST(BatchNorm, ForwardNormalizes)
{
    Rng rng(7);
    Tensor x(Shape{4, 3, 5, 5});
    x.fillNormal(rng, 3.0f, 2.0f);
    Tensor gamma(Shape{3}, 1.0f), beta(Shape{3}, 0.0f);
    Tensor rm(Shape{3}), rv(Shape{3}, 1.0f);
    BatchNormCache cache;
    Tensor out =
        batchNormForward(x, gamma, beta, rm, rv, 0.1f, 1e-5f, cache);
    // Per-channel output mean ~ 0, var ~ 1.
    const int64_t spatial = 25, n = 4;
    for (int64_t c = 0; c < 3; ++c) {
        double sum = 0.0, sq = 0.0;
        for (int64_t in = 0; in < n; ++in)
            for (int64_t s = 0; s < spatial; ++s) {
                const float v = out.at((in * 3 + c) * spatial + s);
                sum += v;
                sq += double(v) * v;
            }
        EXPECT_NEAR(sum / (n * spatial), 0.0, 1e-4);
        EXPECT_NEAR(sq / (n * spatial), 1.0, 1e-2);
    }
}

TEST(BatchNorm, BackwardMatchesNumericGradient)
{
    Rng rng(8);
    Tensor x(Shape{2, 2, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor gamma(Shape{2}), beta(Shape{2});
    gamma.fillUniform(rng, 0.5f, 1.5f);
    beta.fillNormal(rng, 0.0f, 0.5f);

    auto run = [&]() {
        Tensor rm(Shape{2}), rv(Shape{2}, 1.0f);
        BatchNormCache cache;
        return batchNormForward(x, gamma, beta, rm, rv, 0.1f, 1e-5f,
                                cache);
    };
    auto loss = [&]() {
        Tensor out = run();
        // Weighted sum so the gradient is non-uniform.
        float acc = 0.0f;
        for (int64_t i = 0; i < out.numel(); ++i)
            acc += out.at(i) * static_cast<float>((i % 5) - 2);
        return acc;
    };

    Tensor rm(Shape{2}), rv(Shape{2}, 1.0f);
    BatchNormCache cache;
    Tensor out =
        batchNormForward(x, gamma, beta, rm, rv, 0.1f, 1e-5f, cache);
    Tensor grad_out(out.shape());
    for (int64_t i = 0; i < grad_out.numel(); ++i)
        grad_out.at(i) = static_cast<float>((i % 5) - 2);
    Tensor gg(Shape{2}), gb(Shape{2});
    Tensor gx = batchNormBackward(grad_out, gamma, cache, gg, gb);

    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss, 1e-2f)), 5e-2f);
    EXPECT_LT(maxAbsDiff(gg, numericGrad(gamma, loss, 1e-2f)), 5e-2f);
    EXPECT_LT(maxAbsDiff(gb, numericGrad(beta, loss, 1e-2f)), 5e-2f);
}

TEST(BatchNorm, InferenceUsesRunningStats)
{
    Tensor x(Shape{1, 1, 2, 2}, 4.0f);
    Tensor gamma(Shape{1}, 2.0f), beta(Shape{1}, 1.0f);
    Tensor rm(Shape{1}, 4.0f), rv(Shape{1}, 1.0f);
    Tensor out = batchNormInference(x, gamma, beta, rm, rv, 0.0f);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_NEAR(out.at(i), 1.0f, 1e-5f); // (4-4)/1*2+1
}

TEST(Linear, ForwardBackward)
{
    Rng rng(9);
    Tensor x(Shape{3, 4}), w(Shape{2, 4}), b(Shape{2});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 1.0f);
    b.fillNormal(rng, 0.0f, 1.0f);
    auto loss = [&]() { return sumAll(linearForward(x, w, b)); };
    Tensor out = linearForward(x, w, b);
    ASSERT_EQ(out.shape(), Shape({3, 2}));
    Tensor gx, gw(w.shape()), gb(b.shape());
    linearBackward(x, w, Tensor(out.shape(), 1.0f), gx, gw, gb);
    EXPECT_LT(maxAbsDiff(gx, numericGrad(x, loss)), 1e-2f);
    EXPECT_LT(maxAbsDiff(gw, numericGrad(w, loss)), 1e-2f);
    EXPECT_LT(maxAbsDiff(gb, numericGrad(b, loss)), 1e-2f);
}

/** Bit pattern of a float, for byte-exact comparisons (NaN, -0). */
uint32_t
bitsOf(float v)
{
    uint32_t u;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

/** Inputs that separate max/select forms: signed zeros, NaN, +-Inf,
 * denormals, and ordinary values of both signs. */
std::vector<float>
reluInputs(Rng &rng, int64_t n)
{
    const float specials[] = {-0.0f,
                              0.0f,
                              std::numeric_limits<float>::quiet_NaN(),
                              -std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::denorm_min(),
                              -std::numeric_limits<float>::denorm_min()};
    std::vector<float> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i)
        v[static_cast<size_t>(i)] =
            i % 3 == 0 ? specials[(i / 3) % 8] : rng.normal();
    return v;
}

// Every length 0..40 at every offset mod 4 from an aligned base, so
// each SIMD body/tail split and unaligned start is hit; the results
// must equal the scalar selects byte for byte.
TEST(Relu, ForwardBackwardAndInplace)
{
    Rng rng(10);
    for (int64_t n = 0; n <= 40; ++n)
        for (int64_t off = 0; off < 4; ++off) {
            SCOPED_TRACE(testing::Message() << "n " << n << " offset "
                                            << off);
            const std::vector<float> x = reluInputs(rng, n + off);
            const std::vector<float> g = reluInputs(rng, n + off);
            std::vector<float> y(static_cast<size_t>(n + off), 7.0f);
            std::vector<float> gx(static_cast<size_t>(n + off), 7.0f);
            std::vector<float> inplace = x;
            reluRow(y.data() + off, x.data() + off, n);
            reluRow(inplace.data() + off, inplace.data() + off, n);
            reluGradRow(gx.data() + off, y.data() + off, g.data() + off, n);
            for (int64_t i = off; i < n + off; ++i) {
                const size_t u = static_cast<size_t>(i);
                const float want = x[u] > 0.0f ? x[u] : 0.0f;
                ASSERT_EQ(bitsOf(y[u]), bitsOf(want)) << "at " << i;
                ASSERT_EQ(bitsOf(inplace[u]), bitsOf(want)) << "at " << i;
                const float want_g = y[u] > 0.0f ? g[u] : 0.0f;
                ASSERT_EQ(bitsOf(gx[u]), bitsOf(want_g)) << "at " << i;
            }
            for (int64_t i = 0; i < off; ++i)
                ASSERT_EQ(y[static_cast<size_t>(i)], 7.0f); // untouched

            // The tensor entry points run the same rows.
            Tensor xt(Shape{n});
            std::copy(x.begin() + off, x.end(), xt.data());
            const Tensor yt = reluForward(xt);
            Tensor it = xt;
            reluForwardInplace(it);
            Tensor gt(Shape{n});
            std::copy(g.begin() + off, g.end(), gt.data());
            const Tensor gxt = reluBackward(yt, gt);
            for (int64_t i = 0; i < n; ++i) {
                const size_t u = static_cast<size_t>(i + off);
                ASSERT_EQ(bitsOf(yt.data()[i]), bitsOf(y[u])) << "at " << i;
                ASSERT_EQ(bitsOf(it.data()[i]), bitsOf(y[u])) << "at " << i;
                ASSERT_EQ(bitsOf(gxt.data()[i]), bitsOf(gx[u])) << "at " << i;
            }
        }
}

/** Test-side copies of batchnorm's scalar normalize loops, in the
 * operation order the kernels have always used. */
struct BatchNormRef
{
    static void
    forward(const Tensor &x, const Tensor &gamma, const Tensor &beta,
            const BatchNormCache &cache, Tensor &x_hat, Tensor &out)
    {
        const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
        const int64_t spatial = x.shape().dim(2) * x.shape().dim(3);
        for (int64_t ic = 0; ic < c; ++ic) {
            const float mean = cache.mean.at(ic);
            const float inv_std = cache.inv_std.at(ic);
            const float g = gamma.at(ic), b = beta.at(ic);
            for (int64_t in = 0; in < n; ++in) {
                const int64_t base = (in * c + ic) * spatial;
                for (int64_t s = 0; s < spatial; ++s) {
                    x_hat.data()[base + s] =
                        (x.data()[base + s] - mean) * inv_std;
                    out.data()[base + s] = g * x_hat.data()[base + s] + b;
                }
            }
        }
    }

    static void
    inference(const Tensor &x, const Tensor &gamma, const Tensor &beta,
              const Tensor &rm, const Tensor &rv, float eps, Tensor &out)
    {
        const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
        const int64_t spatial = x.shape().dim(2) * x.shape().dim(3);
        for (int64_t ic = 0; ic < c; ++ic) {
            const float inv_std = 1.0f / std::sqrt(rv.at(ic) + eps);
            const float g = gamma.at(ic), b = beta.at(ic);
            const float m = rm.at(ic);
            for (int64_t in = 0; in < n; ++in) {
                const int64_t base = (in * c + ic) * spatial;
                for (int64_t s = 0; s < spatial; ++s)
                    out.data()[base + s] =
                        g * (x.data()[base + s] - m) * inv_std + b;
            }
        }
    }

    static void
    backward(const Tensor &dy, const Tensor &gamma,
             const BatchNormCache &cache, Tensor &dx)
    {
        const int64_t n = dy.shape().dim(0), c = dy.shape().dim(1);
        const int64_t spatial = dy.shape().dim(2) * dy.shape().dim(3);
        const int64_t count = n * spatial;
        for (int64_t ic = 0; ic < c; ++ic) {
            double sum_dy = 0.0, sum_dy_xhat = 0.0;
            for (int64_t in = 0; in < n; ++in)
                for (int64_t s = 0; s < spatial; ++s) {
                    const int64_t i = (in * c + ic) * spatial + s;
                    sum_dy += dy.data()[i];
                    sum_dy_xhat += double(dy.data()[i]) * cache.x_hat.data()[i];
                }
            const float g = gamma.at(ic);
            const float inv_std = cache.inv_std.at(ic);
            const float mean_dy = static_cast<float>(sum_dy / count);
            const float mean_dy_xhat =
                static_cast<float>(sum_dy_xhat / count);
            for (int64_t in = 0; in < n; ++in)
                for (int64_t s = 0; s < spatial; ++s) {
                    const int64_t i = (in * c + ic) * spatial + s;
                    dx.data()[i] = g * inv_std *
                                   (dy.data()[i] - mean_dy -
                                    cache.x_hat.data()[i] * mean_dy_xhat);
                }
        }
    }
};

bool
sameBytes(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// Spatial sizes 1, 3, 4, 5 and 17 put every split of a row between
// the 4-wide SIMD body and the scalar tail; the rows must equal the
// scalar loops byte for byte.
TEST(BatchNorm, NormalizeLoopsMatchScalarBytes)
{
    Rng rng(14);
    for (int64_t hw : {1, 3, 4, 5, 17}) {
        SCOPED_TRACE(testing::Message() << "spatial " << hw);
        Tensor x(Shape{3, 2, 1, hw});
        x.fillNormal(rng, 0.5f, 2.0f);
        Tensor gamma(Shape{2}), beta(Shape{2});
        gamma.fillUniform(rng, 0.5f, 1.5f);
        beta.fillNormal(rng, 0.0f, 0.5f);

        BatchNormCache cache;
        const Tensor out = batchNormForwardStats(x, gamma, beta, 1e-5f,
                                                 cache);
        Tensor x_hat(x.shape()), want(x.shape());
        BatchNormRef::forward(x, gamma, beta, cache, x_hat, want);
        EXPECT_TRUE(sameBytes(out, want));
        EXPECT_TRUE(sameBytes(cache.x_hat, x_hat));

        Tensor rm(Shape{2}), rv(Shape{2});
        rm.fillNormal(rng, 0.0f, 1.0f);
        rv.fillUniform(rng, 0.5f, 2.0f);
        const Tensor inf = batchNormInference(x, gamma, beta, rm, rv, 1e-5f);
        Tensor want_inf(x.shape());
        BatchNormRef::inference(x, gamma, beta, rm, rv, 1e-5f, want_inf);
        EXPECT_TRUE(sameBytes(inf, want_inf));

        Tensor dy(x.shape());
        dy.fillNormal(rng, 0.0f, 1.0f);
        Tensor gg(Shape{2}), gb(Shape{2});
        const Tensor dx = batchNormBackward(dy, gamma, cache, gg, gb);
        Tensor want_dx(x.shape());
        BatchNormRef::backward(dy, gamma, cache, want_dx);
        EXPECT_TRUE(sameBytes(dx, want_dx));
    }
}

// Five channels run four in SIMD lanes and one in the scalar loop;
// both keep the first strict maximum in (ky, kx) order, never let NaN
// win, and give a window with no tap in the view 0 with argmax -1.
TEST(MaxPool2d, FirstStrictMaxNanAndPadding)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    // 2x10 per channel, 2x2 stride 2: five windows per row.
    const int64_t c = 5, plane = 20;
    Tensor x(Shape{1, c, 2, 10});
    const float row0[10] = {3, 3, nan, 1, -2, -1, 5, 4, nan, nan};
    const float row1[10] = {3, 2, 1, 1, -1, -2, 5, 5, nan, nan};
    for (int64_t ic = 0; ic < c; ++ic)
        for (int64_t i = 0; i < 10; ++i) {
            // Channels differ by an offset, so lanes cannot mix them up.
            x.at(ic * plane + i) = row0[i] + static_cast<float>(ic);
            x.at(ic * plane + 10 + i) = row1[i] + static_cast<float>(ic);
        }
    std::vector<int64_t> argmax;
    const Tensor out = maxPool2dForward(x, Window2d::square(2, 2, 0), argmax);
    ASSERT_EQ(out.shape(), Shape({1, c, 1, 5}));
    for (int64_t ic = 0; ic < c; ++ic) {
        SCOPED_TRACE(testing::Message() << "channel " << ic);
        const float d = static_cast<float>(ic);
        const int64_t o = ic * 5, base = ic * plane;
        EXPECT_EQ(out.at(o + 0), 3.0f + d);
        EXPECT_EQ(argmax[o + 0], base + 0); // tie: the first of four
        EXPECT_EQ(out.at(o + 1), 1.0f + d);
        EXPECT_EQ(argmax[o + 1], base + 3); // the NaN at (0, 0) never wins
        EXPECT_EQ(out.at(o + 2), -1.0f + d);
        EXPECT_EQ(argmax[o + 2], base + 5); // (0, 1) before the tied (1, 0)
        EXPECT_EQ(out.at(o + 3), 5.0f + d);
        EXPECT_EQ(argmax[o + 3], base + 6);
        EXPECT_EQ(bitsOf(out.at(o + 4)), bitsOf(0.0f)); // all NaN
        EXPECT_EQ(argmax[o + 4], -1);
    }

    // A window wholly in the padding: pad 3 on a 1x1 input with a 2x2
    // window at stride 3 leaves the first output with no tap.
    Tensor one(Shape{1, c, 1, 1}, -4.0f);
    const Window2d pad_win{2, 2, 3, 3, 3, 0, 3, 0};
    const Tensor po = maxPool2dForward(one, pad_win, argmax);
    ASSERT_EQ(po.numel(), c);
    for (int64_t ic = 0; ic < c; ++ic) {
        EXPECT_EQ(bitsOf(po.at(ic)), bitsOf(0.0f));
        EXPECT_EQ(argmax[static_cast<size_t>(ic)], -1);
    }
}

// The four-channel lanes against the scalar loop, over split patches
// with asymmetric and cropping paddings and inputs with ties, NaN and
// -Inf: each channel of a 6-channel pool (one lane group plus two
// scalar channels) must equal, byte for byte, the same channel pooled
// alone (the scalar loop), argmax included.
TEST(MaxPool2d, ChannelLanesMatchScalarChannels)
{
    Rng rng(15);
    const int64_t c = 6, ih = 11, iw = 13;
    Tensor x(Shape{2, c, ih, iw});
    for (int64_t i = 0; i < x.numel(); ++i) {
        const int64_t r = i % 7;
        x.at(i) = r == 0   ? std::numeric_limits<float>::quiet_NaN()
                  : r == 1 ? -std::numeric_limits<float>::infinity()
                  : r == 2 ? 1.0f // ties
                           : std::round(rng.normal() * 4.0f) / 4.0f;
    }
    const Window2d wins[] = {Window2d::square(2, 2, 0),
                             Window2d::square(3, 2, 1),
                             Window2d{3, 2, 1, 2, 2, 0, -1, 1}};
    for (const Window2d &win : wins)
        for (int parts : {1, 2, 3}) {
            SCOPED_TRACE(testing::Message() << win.toString() << " parts "
                                            << parts);
            const SplitScheme2d scheme = splitWindowOp2d(
                win, ih, iw, evenOutputSplit(win.outH(ih), parts),
                evenOutputSplit(win.outW(iw), parts));
            std::vector<int64_t> argmax;
            const Tensor out = splitMaxPool2dForward(x, win, scheme, argmax);
            const int64_t oplane = out.shape().dim(2) * out.shape().dim(3);
            for (int64_t in = 0; in < 2; ++in)
                for (int64_t ic = 0; ic < c; ++ic) {
                    Tensor one(Shape{1, 1, ih, iw});
                    const int64_t src = (in * c + ic) * ih * iw;
                    std::copy(x.data() + src, x.data() + src + ih * iw,
                              one.data());
                    std::vector<int64_t> one_argmax;
                    const Tensor want =
                        splitMaxPool2dForward(one, win, scheme, one_argmax);
                    const int64_t dst = (in * c + ic) * oplane;
                    for (int64_t o = 0; o < oplane; ++o) {
                        ASSERT_EQ(bitsOf(out.data()[dst + o]),
                                  bitsOf(want.data()[o]))
                            << "image " << in << " channel " << ic;
                        const int64_t a = one_argmax[static_cast<size_t>(o)];
                        ASSERT_EQ(argmax[static_cast<size_t>(dst + o)],
                                  a < 0 ? -1 : a + src)
                            << "image " << in << " channel " << ic;
                    }
                }
        }
}

TEST(SoftmaxXent, LossAndGradient)
{
    Rng rng(10);
    Tensor logits(Shape{4, 5});
    logits.fillNormal(rng, 0.0f, 2.0f);
    std::vector<int64_t> labels = {0, 3, 2, 4};
    Tensor probs;
    const float loss0 = softmaxXentForward(logits, labels, probs);
    EXPECT_GT(loss0, 0.0f);
    // Probabilities are a distribution per row.
    for (int64_t i = 0; i < 4; ++i) {
        float row = 0.0f;
        for (int64_t j = 0; j < 5; ++j)
            row += probs.at(i * 5 + j);
        EXPECT_NEAR(row, 1.0f, 1e-5f);
    }
    auto loss = [&]() {
        Tensor p;
        return softmaxXentForward(logits, labels, p);
    };
    Tensor g = softmaxXentBackward(probs, labels);
    EXPECT_LT(maxAbsDiff(g, numericGrad(logits, loss, 1e-2f)), 1e-3f);
}

TEST(SoftmaxXent, PerfectPredictionHasLowLoss)
{
    Tensor logits(Shape{2, 3});
    logits.at(0) = 20.0f; // class 0 for row 0
    logits.at(5) = 20.0f; // class 2 for row 1
    Tensor probs;
    const float loss =
        softmaxXentForward(logits, {0, 2}, probs);
    EXPECT_LT(loss, 1e-4f);
}

} // namespace
} // namespace scnn
