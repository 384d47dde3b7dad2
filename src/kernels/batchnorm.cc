#include "kernels/batchnorm.h"

#include <cmath>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/rowops.h"
#include "util/logging.h"

namespace scnn {

namespace {

struct ChannelView
{
    int64_t n, c, spatial;
};

ChannelView
viewOf(const Tensor &x)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "batchnorm input must be NCHW");
    return {x.shape().dim(0), x.shape().dim(1),
            x.shape().dim(2) * x.shape().dim(3)};
}

// The per-element normalize loops. Each lane runs the scalar loop's
// operations in its order, one rounding per operation, so the SSE and
// scalar forms give the same bits. This file is built without -mfma,
// so no multiply-add pair can be contracted into an FMA.

/** xh = (x - mean) * inv_std; y = g * xh + b. */
void
normalizeRow(const float *x, int64_t n, float mean, float inv_std, float g,
             float b, float *xh, float *y)
{
    int64_t s = 0;
#if defined(__SSE2__)
    const __m128 vm = _mm_set1_ps(mean), vs = _mm_set1_ps(inv_std);
    const __m128 vg = _mm_set1_ps(g), vb = _mm_set1_ps(b);
    for (; s + 4 <= n; s += 4) {
        const __m128 h =
            _mm_mul_ps(_mm_sub_ps(_mm_loadu_ps(x + s), vm), vs);
        _mm_storeu_ps(xh + s, h);
        _mm_storeu_ps(y + s, _mm_add_ps(_mm_mul_ps(vg, h), vb));
    }
#endif
    for (; s < n; ++s) {
        xh[s] = (x[s] - mean) * inv_std;
        y[s] = g * xh[s] + b;
    }
}

/** y = g * (x - mean) * inv_std + b. */
void
inferRow(const float *x, int64_t n, float mean, float inv_std, float g,
         float b, float *y)
{
    int64_t s = 0;
#if defined(__SSE2__)
    const __m128 vm = _mm_set1_ps(mean), vs = _mm_set1_ps(inv_std);
    const __m128 vg = _mm_set1_ps(g), vb = _mm_set1_ps(b);
    for (; s + 4 <= n; s += 4) {
        const __m128 d = _mm_sub_ps(_mm_loadu_ps(x + s), vm);
        _mm_storeu_ps(y + s,
                      _mm_add_ps(_mm_mul_ps(_mm_mul_ps(vg, d), vs), vb));
    }
#endif
    for (; s < n; ++s)
        y[s] = g * (x[s] - mean) * inv_std + b;
}

/** dx = (g * inv_std) * (dy - mean_dy - xh * mean_dy_xhat); the
 * caller passes the product g * inv_std, which C++'s left-to-right
 * evaluation of the old expression rounded first anyway. */
void
backwardRow(const float *dy, const float *xh, int64_t n, float g_inv_std,
            float mean_dy, float mean_dy_xhat, float *dx)
{
    int64_t s = 0;
#if defined(__SSE2__)
    const __m128 vgi = _mm_set1_ps(g_inv_std);
    const __m128 vmd = _mm_set1_ps(mean_dy);
    const __m128 vmx = _mm_set1_ps(mean_dy_xhat);
    for (; s + 4 <= n; s += 4) {
        const __m128 t =
            _mm_sub_ps(_mm_sub_ps(_mm_loadu_ps(dy + s), vmd),
                       _mm_mul_ps(_mm_loadu_ps(xh + s), vmx));
        _mm_storeu_ps(dx + s, _mm_mul_ps(vgi, t));
    }
#endif
    for (; s < n; ++s)
        dx[s] = g_inv_std * (dy[s] - mean_dy - xh[s] * mean_dy_xhat);
}

} // namespace

Tensor
batchNormForwardStats(const Tensor &x, const Tensor &gamma,
                      const Tensor &beta, float eps,
                      BatchNormCache &cache)
{
    const ChannelView v = viewOf(x);
    SCNN_REQUIRE(gamma.numel() == v.c && beta.numel() == v.c,
                 "batchnorm parameter size mismatch");
    const int64_t count = v.n * v.spatial;
    SCNN_REQUIRE(count > 0, "batchnorm over empty batch");

    cache.mean = Tensor(Shape{v.c});
    cache.batch_var = Tensor(Shape{v.c});
    cache.inv_std = Tensor(Shape{v.c});
    cache.x_hat = Tensor::uninitialized(x.shape());
    Tensor out = Tensor::uninitialized(x.shape());

    for (int64_t ic = 0; ic < v.c; ++ic) {
        double sum = 0.0, sq = 0.0;
        for (int64_t in = 0; in < v.n; ++in)
            accumulateSumSqD(x.data() + (in * v.c + ic) * v.spatial,
                             v.spatial, sum, sq);
        const double mean = sum / count;
        const double var = sq / count - mean * mean;
        const float inv_std =
            1.0f / std::sqrt(static_cast<float>(var) + eps);
        cache.mean.at(ic) = static_cast<float>(mean);
        cache.batch_var.at(ic) = static_cast<float>(var);
        cache.inv_std.at(ic) = inv_std;

        const float g = gamma.at(ic);
        const float b = beta.at(ic);
        for (int64_t in = 0; in < v.n; ++in) {
            const int64_t base = (in * v.c + ic) * v.spatial;
            normalizeRow(x.data() + base, v.spatial,
                         static_cast<float>(mean), inv_std, g, b,
                         cache.x_hat.data() + base, out.data() + base);
        }
    }
    return out;
}

void
applyBatchNormRunningUpdate(const BatchNormCache &cache, float momentum,
                            Tensor &running_mean, Tensor &running_var)
{
    const int64_t c = cache.mean.numel();
    SCNN_CHECK(running_mean.numel() == c && running_var.numel() == c,
               "batchnorm running stat size mismatch");
    for (int64_t ic = 0; ic < c; ++ic) {
        running_mean.at(ic) = (1.0f - momentum) * running_mean.at(ic) +
                              momentum * cache.mean.at(ic);
        running_var.at(ic) = (1.0f - momentum) * running_var.at(ic) +
                             momentum * cache.batch_var.at(ic);
    }
}

Tensor
batchNormForward(const Tensor &x, const Tensor &gamma, const Tensor &beta,
                 Tensor &running_mean, Tensor &running_var,
                 float momentum, float eps, BatchNormCache &cache)
{
    Tensor out = batchNormForwardStats(x, gamma, beta, eps, cache);
    applyBatchNormRunningUpdate(cache, momentum, running_mean,
                                running_var);
    return out;
}

Tensor
batchNormInference(const Tensor &x, const Tensor &gamma,
                   const Tensor &beta, const Tensor &running_mean,
                   const Tensor &running_var, float eps)
{
    const ChannelView v = viewOf(x);
    Tensor out = Tensor::uninitialized(x.shape());
    for (int64_t ic = 0; ic < v.c; ++ic) {
        const float inv_std =
            1.0f / std::sqrt(running_var.at(ic) + eps);
        const float g = gamma.at(ic);
        const float b = beta.at(ic);
        const float m = running_mean.at(ic);
        for (int64_t in = 0; in < v.n; ++in) {
            const int64_t base = (in * v.c + ic) * v.spatial;
            inferRow(x.data() + base, v.spatial, m, inv_std, g, b,
                     out.data() + base);
        }
    }
    return out;
}

Tensor
batchNormBackward(const Tensor &grad_out, const Tensor &gamma,
                  const BatchNormCache &cache, Tensor &grad_gamma,
                  Tensor &grad_beta)
{
    const ChannelView v = viewOf(grad_out);
    const int64_t count = v.n * v.spatial;
    Tensor grad_x = Tensor::uninitialized(grad_out.shape());

    for (int64_t ic = 0; ic < v.c; ++ic) {
        // Reductions: sum(dy), sum(dy * x_hat).
        double sum_dy = 0.0, sum_dy_xhat = 0.0;
        for (int64_t in = 0; in < v.n; ++in) {
            const int64_t base = (in * v.c + ic) * v.spatial;
            accumulateSumDotD(grad_out.data() + base,
                              cache.x_hat.data() + base, v.spatial,
                              sum_dy, sum_dy_xhat);
        }
        grad_beta.at(ic) += static_cast<float>(sum_dy);
        grad_gamma.at(ic) += static_cast<float>(sum_dy_xhat);

        const float g = gamma.at(ic);
        const float inv_std = cache.inv_std.at(ic);
        const float mean_dy = static_cast<float>(sum_dy / count);
        const float mean_dy_xhat =
            static_cast<float>(sum_dy_xhat / count);
        for (int64_t in = 0; in < v.n; ++in) {
            const int64_t base = (in * v.c + ic) * v.spatial;
            backwardRow(grad_out.data() + base, cache.x_hat.data() + base,
                        v.spatial, g * inv_std, mean_dy, mean_dy_xhat,
                        grad_x.data() + base);
        }
    }
    return grad_x;
}

} // namespace scnn
