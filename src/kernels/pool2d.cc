#include "kernels/pool2d.h"

#include <algorithm>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "analysis/shadow_access.h"
#include "core/split_op.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace scnn {

namespace {

/** Shadow claims for one pool patch: the contiguous input hull
 * it may read and the per-channel output block it writes — exactly
 * the spans buildSplitPoolPlan predicts for the item. */
void
shadowRecordPoolPatch(const float *img, int64_t c, int64_t ih,
                      int64_t iw, const PatchView &view,
                      const float *out, int64_t out_oh, int64_t out_ow,
                      int64_t oy0, int64_t ox0, int64_t oh_p,
                      int64_t ow_p)
{
    shadowRecord(img + view.r0 * iw + view.c0,
                 (c - 1) * ih * iw + (view.ih - 1) * iw + view.iw,
                 false);
    shadowRecordSpan(out + oy0 * out_ow + ox0,
                     {0, c, out_oh * out_ow, oh_p, out_ow, ow_p},
                     true);
}

} // namespace

Tensor
maxPool2dForward(const Tensor &x, const Window2d &win,
                 std::vector<int64_t> &argmax)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    return splitMaxPool2dForward(
        x, win, unsplitScheme(win, x.shape().dim(2), x.shape().dim(3)),
        argmax);
}

Tensor
maxPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                  const std::vector<int64_t> &argmax)
{
    const int64_t n = x_shape.dim(0);
    Tensor grad_x(x_shape); // zero: scatter-add target
    SCNN_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.numel(),
               "argmax size mismatch");
    SCNN_CHECK(n > 0 && grad_out.numel() % n == 0 &&
                   grad_x.numel() % n == 0,
               "grad_out batch mismatch");
    // argmax entries point inside their own image's slice of x, so
    // per-image scatter ranges are disjoint. Each image's entries are
    // validated against that slice before any is scattered.
    const int64_t per_image = grad_out.numel() / n;
    const int64_t x_per_image = grad_x.numel() / n;
    const float *go = grad_out.data();
    float *gx = grad_x.data();
    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t in = nb; in < ne; ++in) {
            const int64_t *idx = argmax.data() + in * per_image;
            const float *g = go + in * per_image;
            const int64_t lo = in * x_per_image;
            bool in_range = true;
            for (int64_t i = 0; i < per_image; ++i)
                in_range &= idx[i] < 0 || (idx[i] >= lo &&
                                           idx[i] < lo + x_per_image);
            SCNN_CHECK(in_range, "argmax of image "
                                     << in << " leaves its slice");
            for (int64_t i = 0; i < per_image; ++i)
                if (idx[i] >= 0)
                    gx[idx[i]] += g[i];
        }
    });
    return grad_x;
}

Tensor
avgPool2dForward(const Tensor &x, const Window2d &win)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    return splitAvgPool2dForward(
        x, win, unsplitScheme(win, x.shape().dim(2), x.shape().dim(3)));
}

Tensor
avgPool2dBackward(const Shape &x_shape, const Tensor &grad_out,
                  const Window2d &win)
{
    return splitAvgPool2dBackward(
        x_shape, grad_out, win,
        unsplitScheme(win, x_shape.dim(2), x_shape.dim(3)));
}

void
maxPool2dPatch(const float *img, int64_t c, int64_t ih, int64_t iw,
               const PatchView &view, const Window2d &win, float *out,
               int64_t out_oh, int64_t out_ow, int64_t oy0,
               int64_t ox0, int64_t *argmax, int64_t argmax_base)
{
    const int64_t oh_p = win.outH(view.ih);
    const int64_t ow_p = win.outW(view.iw);
    shadowRecordPoolPatch(img, c, ih, iw, view, out, out_oh, out_ow,
                          oy0, ox0, oh_p, ow_p);
    const int64_t plane = ih * iw;
    const int64_t out_plane = out_oh * out_ow;
    constexpr float kNegInf = -std::numeric_limits<float>::infinity();
    for (int64_t oy = 0; oy < oh_p; ++oy) {
        const int64_t iy0 = oy * win.sh - win.ph_b;
        const int64_t ky_lo = std::max<int64_t>(0, -iy0);
        const int64_t ky_hi = std::min(win.kh, view.ih - iy0);
        for (int64_t ox = 0; ox < ow_p; ++ox) {
            // The window's taps inside the view, clipped once for every
            // channel. The strict > keeps the first maximum in (ky, kx)
            // order and never lets NaN win; a window with no tap in the
            // view outputs 0 and argmax -1 (no gradient), matching zero
            // padding.
            const int64_t ix0 = ox * win.sw - win.pw_b;
            const int64_t kx_lo = std::max<int64_t>(0, -ix0);
            const int64_t kx_hi = std::min(win.kw, view.iw - ix0);
            const int64_t o = (oy0 + oy) * out_ow + ox0 + ox;
            int64_t ic = 0;
#if defined(__SSE2__)
            // Four channels per step, one per lane: each lane runs the
            // scalar loop's compare and select over the same taps in the
            // same order, branch-free. Lanes across channels share the
            // window's geometry, so edge windows and narrow split
            // patches cost what interior ones do.
            for (; ic + 4 <= c; ic += 4) {
                const float *p = img + ic * plane;
                __m128 best = _mm_set1_ps(kNegInf);
                __m128i idx = _mm_set1_epi32(-1);
                for (int64_t ky = ky_lo; ky < ky_hi; ++ky)
                    for (int64_t kx = kx_lo; kx < kx_hi; ++kx) {
                        const int64_t off =
                            view.parentOffset(iy0 + ky, ix0 + kx, iw);
                        const __m128 v =
                            _mm_setr_ps(p[off], p[off + plane],
                                        p[off + 2 * plane],
                                        p[off + 3 * plane]);
                        const __m128i gt =
                            _mm_castps_si128(_mm_cmpgt_ps(v, best));
                        best = _mm_max_ps(v, best); // gt ? v : best
                        const __m128i cand =
                            _mm_set1_epi32(static_cast<int32_t>(off));
                        idx = _mm_or_si128(_mm_and_si128(gt, cand),
                                           _mm_andnot_si128(gt, idx));
                    }
                const __m128i found =
                    _mm_cmpgt_epi32(idx, _mm_set1_epi32(-1));
                alignas(16) float val[4];
                alignas(16) int32_t rel[4];
                _mm_store_ps(val, _mm_and_ps(_mm_castsi128_ps(found), best));
                _mm_store_si128(reinterpret_cast<__m128i *>(rel), idx);
                for (int64_t l = 0; l < 4; ++l) {
                    out[(ic + l) * out_plane + o] = val[l];
                    argmax[(ic + l) * out_plane + o] =
                        rel[l] < 0 ? -1
                                   : argmax_base + (ic + l) * plane + rel[l];
                }
            }
#endif
            for (; ic < c; ++ic) {
                const float *chan = img + ic * plane;
                float best = kNegInf;
                int64_t best_idx = -1;
                for (int64_t ky = ky_lo; ky < ky_hi; ++ky)
                    for (int64_t kx = kx_lo; kx < kx_hi; ++kx) {
                        const int64_t off =
                            view.parentOffset(iy0 + ky, ix0 + kx, iw);
                        const float v = chan[off];
                        const bool gt = v > best;
                        best = gt ? v : best;
                        best_idx = gt ? argmax_base + ic * plane + off
                                      : best_idx;
                    }
                out[ic * out_plane + o] = best_idx < 0 ? 0.0f : best;
                argmax[ic * out_plane + o] = best_idx;
            }
        }
    }
}

void
avgPool2dPatch(const float *img, int64_t c, int64_t ih, int64_t iw,
               const PatchView &view, const Window2d &win, float *out,
               int64_t out_oh, int64_t out_ow, int64_t oy0,
               int64_t ox0)
{
    const int64_t oh_p = win.outH(view.ih);
    const int64_t ow_p = win.outW(view.iw);
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    shadowRecordPoolPatch(img, c, ih, iw, view, out, out_oh, out_ow,
                          oy0, ox0, oh_p, ow_p);
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        float *ochan = out + ic * out_oh * out_ow;
        for (int64_t oy = 0; oy < oh_p; ++oy) {
            float *orow = ochan + (oy0 + oy) * out_ow + ox0;
            for (int64_t ox = 0; ox < ow_p; ++ox) {
                float acc = 0.0f;
                for (int64_t ky = 0; ky < win.kh; ++ky) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih)
                        continue;
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (ix >= 0 && ix < view.iw)
                            acc += chan[view.parentOffset(iy, ix, iw)];
                    }
                }
                orow[ox] = acc * inv_area;
            }
        }
    }
}

Tensor
globalAvgPoolForward(const Tensor &x)
{
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t spatial = x.shape().dim(2) * x.shape().dim(3);
    Tensor out = Tensor::uninitialized(Shape{n, c, 1, 1});
    const float *xp = x.data();
    float *op = out.data();
    globalPool().parallelFor(n * c, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            float acc = 0.0f;
            const float *src = xp + i * spatial;
            for (int64_t s = 0; s < spatial; ++s)
                acc += src[s];
            op[i] = acc / static_cast<float>(spatial);
        }
    });
    return out;
}

Tensor
globalAvgPoolBackward(const Shape &x_shape, const Tensor &grad_out)
{
    const int64_t n = x_shape.dim(0);
    const int64_t c = x_shape.dim(1);
    const int64_t spatial = x_shape.dim(2) * x_shape.dim(3);
    SCNN_CHECK(grad_out.numel() == n * c,
               "global avg-pool grad_out size mismatch");
    Tensor grad_x = Tensor::uninitialized(x_shape);
    const float *go = grad_out.data();
    float *gx = grad_x.data();
    globalPool().parallelFor(n * c, [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            const float g = go[i] / static_cast<float>(spatial);
            float *dst = gx + i * spatial;
            for (int64_t s = 0; s < spatial; ++s)
                dst[s] = g;
        }
    });
    return grad_x;
}

} // namespace scnn
