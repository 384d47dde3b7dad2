/**
 * @file
 * Test-tree oracle for the window-op engine: the materialized
 * execution of Eqs. 4-7. Every patch is sliced into its own tensor,
 * the op runs on it with plain loops (naive im2col + gemmNaive for
 * conv, a scalar per-tile Winograd, direct window loops for pooling),
 * and the patch results are concatenated (forward) or scatter-added
 * into the parent (backward).
 *
 * The oracle shares no code with the engine beyond the split-scheme
 * math: no PatchView, no packing, no blocked GEMM. Where the engine
 * documents an accumulation order the oracle follows it, so under
 * the scalar microkernel the two agree bitwise:
 *   - conv forward and wgrad sum k ascending from zero (the naive GEMM
 *     order), wgrad over the image's output pixels in raster order;
 *   - dgrad and the pool backwards scatter image by image, bands of
 *     kSplitConvRowBand output rows ascending (conv), patches
 *     ascending within a band, taps ascending within a patch;
 *   - per-image weight and bias gradients reduce in image order.
 */
#ifndef SCNN_TESTS_WINDOW_ORACLE_H
#define SCNN_TESTS_WINDOW_ORACLE_H

#include <cstring>
#include <limits>
#include <vector>

#include "core/split_op.h"
#include "kernels/gemm.h"
#include "tensor/tensor_ops.h"

namespace scnn::oracle {

/** Copy the input rectangle of patch (hi, wi) into its own tensor. */
inline Tensor
slicePatch(const Tensor &x, const SplitScheme2d &scheme, int hi, int wi)
{
    const SplitPiece1d &ph = scheme.h.pieces[static_cast<size_t>(hi)];
    const SplitPiece1d &pw = scheme.w.pieces[static_cast<size_t>(wi)];
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    Tensor patch(Shape{n, c, ph.inLen(), pw.inLen()});
    for (int64_t nc = 0; nc < n * c; ++nc)
        for (int64_t y = 0; y < ph.inLen(); ++y)
            std::memcpy(patch.data() +
                            (nc * ph.inLen() + y) * pw.inLen(),
                        x.data() + (nc * ih + ph.in_start + y) * iw +
                            pw.in_start,
                        static_cast<size_t>(pw.inLen()) *
                            sizeof(float));
    return patch;
}

/** Concatenate per-patch outputs (row-major over the patch grid). */
inline Tensor
concatPatches(std::vector<Tensor> patches, const SplitScheme2d &scheme)
{
    std::vector<Tensor> rows;
    const int wp = scheme.w.parts();
    for (int hi = 0; hi < scheme.h.parts(); ++hi) {
        std::vector<Tensor> cols(
            patches.begin() + static_cast<size_t>(hi) * wp,
            patches.begin() + static_cast<size_t>(hi + 1) * wp);
        rows.push_back(concatDim(cols, 3));
    }
    return concatDim(rows, 2);
}

/** Slice every patch, run @p op(patch, local window), concatenate. */
template <typename Op>
Tensor
runSplit(const Tensor &x, const Window2d &win, const SplitScheme2d &scheme,
         Op &&op)
{
    std::vector<Tensor> outs;
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi)
            outs.push_back(op(slicePatch(x, scheme, hi, wi),
                              patchWindow(win, scheme, hi, wi)));
    return concatPatches(std::move(outs), scheme);
}

/** Window tap (ky, kx) of output (oy, ox) in one channel of an
 * ih x iw image, or 0 when it falls in the padding. */
inline float
tap(const float *chan, int64_t ih, int64_t iw, const Window2d &win,
    int64_t oy, int64_t ox, int64_t ky, int64_t kx)
{
    const int64_t iy = oy * win.sh - win.ph_b + ky;
    const int64_t ix = ox * win.sw - win.pw_b + kx;
    return (iy < 0 || iy >= ih || ix < 0 || ix >= iw)
               ? 0.0f
               : chan[iy * iw + ix];
}

/** Naive conv of a whole (materialized) tensor: im2col by plain
 * loops, gemmNaive, then the bias. */
inline Tensor
convForward(const Tensor &x, const Tensor &w, const Tensor &b,
            const Window2d &win)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oc = w.shape().dim(0);
    const int64_t oh = win.outH(ih), ow = win.outW(iw);
    const int64_t krows = c * win.kh * win.kw;
    Tensor out(Shape{n, oc, oh, ow});
    std::vector<float> col(static_cast<size_t>(krows * oh * ow));
    for (int64_t in = 0; in < n; ++in) {
        int64_t r = 0;
        for (int64_t ic = 0; ic < c; ++ic)
            for (int64_t ky = 0; ky < win.kh; ++ky)
                for (int64_t kx = 0; kx < win.kw; ++kx, ++r)
                    for (int64_t oy = 0; oy < oh; ++oy)
                        for (int64_t ox = 0; ox < ow; ++ox)
                            col[static_cast<size_t>(
                                (r * oh + oy) * ow + ox)] =
                                tap(x.data() + (in * c + ic) * ih * iw,
                                    ih, iw, win, oy, ox, ky, kx);
        float *o = out.data() + in * oc * oh * ow;
        gemmNaive(oc, oh * ow, krows, 1.0f, w.data(), col.data(), 0.0f,
                  o);
        if (b.numel() > 0)
            for (int64_t k = 0; k < oc; ++k)
                for (int64_t j = 0; j < oh * ow; ++j)
                    o[k * oh * ow + j] += b.at(k);
    }
    return out;
}

namespace detail {

inline void
winogradWeight(const float *g, float u[4][4])
{
    float t[4][3];
    for (int col = 0; col < 3; ++col) {
        const float g0 = g[col], g1 = g[3 + col], g2 = g[6 + col];
        t[0][col] = g0;
        t[1][col] = 0.5f * (g0 + g1 + g2);
        t[2][col] = 0.5f * (g0 - g1 + g2);
        t[3][col] = g2;
    }
    for (int row = 0; row < 4; ++row) {
        const float t0 = t[row][0], t1 = t[row][1], t2 = t[row][2];
        u[row][0] = t0;
        u[row][1] = 0.5f * (t0 + t1 + t2);
        u[row][2] = 0.5f * (t0 - t1 + t2);
        u[row][3] = t2;
    }
}

inline void
winogradInput(const float d[4][4], float v[4][4])
{
    float t[4][4];
    for (int col = 0; col < 4; ++col) {
        t[0][col] = d[0][col] - d[2][col];
        t[1][col] = d[1][col] + d[2][col];
        t[2][col] = d[2][col] - d[1][col];
        t[3][col] = d[1][col] - d[3][col];
    }
    for (int row = 0; row < 4; ++row) {
        v[row][0] = t[row][0] - t[row][2];
        v[row][1] = t[row][1] + t[row][2];
        v[row][2] = t[row][2] - t[row][1];
        v[row][3] = t[row][1] - t[row][3];
    }
}

inline void
winogradOutput(const float m[4][4], float y[2][2])
{
    float t[2][4];
    for (int col = 0; col < 4; ++col) {
        t[0][col] = m[0][col] + m[1][col] + m[2][col];
        t[1][col] = m[1][col] - m[2][col] - m[3][col];
    }
    for (int row = 0; row < 2; ++row) {
        y[row][0] = t[row][0] + t[row][1] + t[row][2];
        y[row][1] = t[row][1] - t[row][2] - t[row][3];
    }
}

} // namespace detail

/** Scalar per-tile Winograd F(2x2, 3x3) of a whole tensor: each
 * transform point's channel sum runs ascending from zero. */
inline Tensor
winogradForward(const Tensor &x, const Tensor &w, const Tensor &b,
                const Window2d &win)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oc = w.shape().dim(0);
    const int64_t oh = win.outH(ih), ow = win.outW(iw);
    std::vector<float> u(static_cast<size_t>(oc * c * 16));
    for (int64_t o = 0; o < oc; ++o)
        for (int64_t ic = 0; ic < c; ++ic) {
            float t[4][4];
            detail::winogradWeight(w.data() + (o * c + ic) * 9, t);
            for (int e = 0; e < 16; ++e)
                u[static_cast<size_t>((o * c + ic) * 16 + e)] =
                    t[e / 4][e % 4];
        }
    Tensor out(Shape{n, oc, oh, ow});
    std::vector<float> v(static_cast<size_t>(c * 16));
    for (int64_t in = 0; in < n; ++in)
        for (int64_t ty = 0; ty < (oh + 1) / 2; ++ty)
            for (int64_t tx = 0; tx < (ow + 1) / 2; ++tx) {
                for (int64_t ic = 0; ic < c; ++ic) {
                    const float *chan =
                        x.data() + (in * c + ic) * ih * iw;
                    float d[4][4], t[4][4];
                    for (int r = 0; r < 4; ++r)
                        for (int q = 0; q < 4; ++q) {
                            const int64_t yy = 2 * ty - win.ph_b + r;
                            const int64_t xx = 2 * tx - win.pw_b + q;
                            d[r][q] = (yy < 0 || yy >= ih || xx < 0 ||
                                       xx >= iw)
                                          ? 0.0f
                                          : chan[yy * iw + xx];
                        }
                    detail::winogradInput(d, t);
                    for (int e = 0; e < 16; ++e)
                        v[static_cast<size_t>(ic * 16 + e)] =
                            t[e / 4][e % 4];
                }
                for (int64_t o = 0; o < oc; ++o) {
                    float m[4][4];
                    for (int e = 0; e < 16; ++e) {
                        float acc = 0.0f;
                        for (int64_t ic = 0; ic < c; ++ic)
                            acc += u[static_cast<size_t>(
                                       (o * c + ic) * 16 + e)] *
                                   v[static_cast<size_t>(ic * 16 + e)];
                        m[e / 4][e % 4] = acc;
                    }
                    float y[2][2];
                    detail::winogradOutput(m, y);
                    const float bias = b.numel() > 0 ? b.at(o) : 0.0f;
                    for (int r = 0; r < 2; ++r)
                        for (int q = 0; q < 2; ++q)
                            if (2 * ty + r < oh && 2 * tx + q < ow)
                                out.at4(in, o, 2 * ty + r,
                                        2 * tx + q) = y[r][q] + bias;
                }
            }
    return out;
}

/** Naive max pool of a whole tensor; @p argmax (optional) gets
 * indices into that tensor, -1 for all-padding windows (output 0). */
inline Tensor
maxPoolForward(const Tensor &x, const Window2d &win,
               std::vector<int64_t> *argmax = nullptr)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oh = win.outH(ih), ow = win.outW(iw);
    Tensor out(Shape{n, c, oh, ow});
    if (argmax != nullptr)
        argmax->assign(static_cast<size_t>(out.numel()), -1);
    for (int64_t nc = 0; nc < n * c; ++nc)
        for (int64_t oy = 0; oy < oh; ++oy)
            for (int64_t ox = 0; ox < ow; ++ox) {
                float best = -std::numeric_limits<float>::infinity();
                int64_t best_idx = -1;
                for (int64_t ky = 0; ky < win.kh; ++ky)
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t iy = oy * win.sh - win.ph_b + ky;
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (iy < 0 || iy >= ih || ix < 0 || ix >= iw)
                            continue;
                        const int64_t idx = (nc * ih + iy) * iw + ix;
                        if (x.at(idx) > best) {
                            best = x.at(idx);
                            best_idx = idx;
                        }
                    }
                const int64_t oi = (nc * oh + oy) * ow + ox;
                out.at(oi) = best_idx < 0 ? 0.0f : best;
                if (argmax != nullptr)
                    (*argmax)[static_cast<size_t>(oi)] = best_idx;
            }
    return out;
}

/** Naive average pool (count_include_pad) of a whole tensor. */
inline Tensor
avgPoolForward(const Tensor &x, const Window2d &win)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oh = win.outH(ih), ow = win.outW(iw);
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    Tensor out(Shape{n, c, oh, ow});
    for (int64_t nc = 0; nc < n * c; ++nc)
        for (int64_t oy = 0; oy < oh; ++oy)
            for (int64_t ox = 0; ox < ow; ++ox) {
                float acc = 0.0f;
                for (int64_t ky = 0; ky < win.kh; ++ky)
                    for (int64_t kx = 0; kx < win.kw; ++kx) {
                        const int64_t iy = oy * win.sh - win.ph_b + ky;
                        const int64_t ix = ox * win.sw - win.pw_b + kx;
                        if (iy >= 0 && iy < ih && ix >= 0 && ix < iw)
                            acc += x.data()[(nc * ih + iy) * iw + ix];
                    }
                out.at((nc * oh + oy) * ow + ox) = acc * inv_area;
            }
    return out;
}

/** Split conv forward: per-patch naive conv (or scalar Winograd). */
inline Tensor
splitConvForward(const Tensor &x, const Tensor &w, const Tensor &b,
                 const Window2d &win, const SplitScheme2d &scheme,
                 bool winograd)
{
    return runSplit(x, win, scheme,
                    [&](const Tensor &patch, const Window2d &local) {
                        return winograd
                                   ? winogradForward(patch, w, b, local)
                                   : convForward(patch, w, b, local);
                    });
}

/** Split max-pool forward; @p argmax (optional) gets indices into
 * the parent tensor. */
inline Tensor
splitMaxPoolForward(const Tensor &x, const Window2d &win,
                    const SplitScheme2d &scheme,
                    std::vector<int64_t> *argmax = nullptr)
{
    const int64_t nc_total = x.shape().dim(0) * x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oh = scheme.h.pieces.back().out_end;
    const int64_t ow = scheme.w.pieces.back().out_end;
    if (argmax != nullptr)
        argmax->assign(static_cast<size_t>(nc_total * oh * ow), -1);
    std::vector<Tensor> outs;
    for (int hi = 0; hi < scheme.h.parts(); ++hi)
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            std::vector<int64_t> am;
            outs.push_back(maxPoolForward(slicePatch(x, scheme, hi, wi),
                                          patchWindow(win, scheme, hi,
                                                      wi),
                                          &am));
            if (argmax == nullptr)
                continue;
            // Patch-tensor index -> parent-tensor index.
            for (int64_t nc = 0; nc < nc_total; ++nc)
                for (int64_t y = 0; y < ph.outLen(); ++y)
                    for (int64_t xx = 0; xx < pw.outLen(); ++xx) {
                        const int64_t p = am[static_cast<size_t>(
                            (nc * ph.outLen() + y) * pw.outLen() + xx)];
                        if (p < 0)
                            continue;
                        const int64_t py = p / pw.inLen() % ph.inLen();
                        const int64_t px = p % pw.inLen();
                        (*argmax)[static_cast<size_t>(
                            (nc * oh + ph.out_start + y) * ow +
                            pw.out_start + xx)] =
                            (nc * ih + ph.in_start + py) * iw +
                            pw.in_start + px;
                    }
        }
    return concatPatches(std::move(outs), scheme);
}

inline Tensor
splitAvgPoolForward(const Tensor &x, const Window2d &win,
                    const SplitScheme2d &scheme)
{
    return runSplit(x, win, scheme,
                    [](const Tensor &patch, const Window2d &local) {
                        return avgPoolForward(patch, local);
                    });
}

/**
 * Split conv backward in the engine's documented order (see the file
 * comment). @p grad_w and @p grad_b accumulate like the engine's;
 * pass an empty @p grad_b for no bias.
 */
inline void
splitConvBackward(const Tensor &x, const Tensor &w, const Tensor &go,
                  const Window2d &win, const SplitScheme2d &scheme,
                  Tensor &grad_x, Tensor &grad_w, Tensor &grad_b)
{
    const int64_t n = x.shape().dim(0), c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2), iw = x.shape().dim(3);
    const int64_t oc = w.shape().dim(0);
    const int64_t oh = go.shape().dim(2), ow = go.shape().dim(3);
    const int64_t krows = c * win.kh * win.kw;
    grad_x = Tensor(x.shape());
    std::vector<float> gw_img(static_cast<size_t>(krows * oc));
    // The patch of a parent output row / column.
    auto pieceOf = [](const SplitScheme1d &s, int64_t o) {
        int i = 0;
        while (o >= s.pieces[static_cast<size_t>(i)].out_end)
            ++i;
        return i;
    };
    for (int64_t in = 0; in < n; ++in) {
        const float *img = x.data() + in * c * ih * iw;
        const float *g = go.data() + in * oc * oh * ow;
        float *gx = grad_x.data() + in * c * ih * iw;
        // wgrad: raster order over the parent output pixels.
        std::fill(gw_img.begin(), gw_img.end(), 0.0f);
        for (int64_t oy = 0; oy < oh; ++oy)
            for (int64_t ox = 0; ox < ow; ++ox) {
                const int hi = pieceOf(scheme.h, oy);
                const int wi = pieceOf(scheme.w, ox);
                const SplitPiece1d &ph = scheme.h.pieces[hi];
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                const Window2d local = patchWindow(win, scheme, hi, wi);
                int64_t r = 0;
                for (int64_t ic = 0; ic < c; ++ic)
                    for (int64_t ky = 0; ky < win.kh; ++ky)
                        for (int64_t kx = 0; kx < win.kw; ++kx, ++r) {
                            // The patch-local tap, read from the
                            // parent at the patch's offset.
                            const int64_t iy =
                                (oy - ph.out_start) * local.sh -
                                local.ph_b + ky;
                            const int64_t ix =
                                (ox - pw.out_start) * local.sw -
                                local.pw_b + kx;
                            const float t =
                                (iy < 0 || iy >= ph.inLen() || ix < 0 ||
                                 ix >= pw.inLen())
                                    ? 0.0f
                                    : img[ic * ih * iw +
                                          (ph.in_start + iy) * iw +
                                          pw.in_start + ix];
                            for (int64_t o = 0; o < oc; ++o)
                                gw_img[static_cast<size_t>(r * oc + o)] +=
                                    t * g[(o * oh + oy) * ow + ox];
                        }
            }
        for (int64_t o = 0; o < oc; ++o)
            for (int64_t r = 0; r < krows; ++r)
                grad_w.at(o * krows + r) +=
                    gw_img[static_cast<size_t>(r * oc + o)];
        if (grad_b.numel() > 0)
            for (int64_t o = 0; o < oc; ++o) {
                float acc = 0.0f;
                for (int64_t j = 0; j < oh * ow; ++j)
                    acc += g[o * oh * ow + j];
                grad_b.at(o) += 0.0f + acc;
            }
        // dgrad: bands of kSplitConvRowBand rows per patch-row
        // group, patches ascending, taps ascending.
        for (const SplitBandItem &band : splitConvBandItems(scheme.h)) {
            const SplitPiece1d &ph = scheme.h.pieces[band.hi];
            for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                const Window2d local =
                    patchWindow(win, scheme, band.hi, wi);
                int64_t r = 0;
                for (int64_t ic = 0; ic < c; ++ic)
                    for (int64_t ky = 0; ky < win.kh; ++ky)
                        for (int64_t kx = 0; kx < win.kw; ++kx, ++r)
                            for (int64_t oy = band.oy0; oy < band.oy1;
                                 ++oy)
                                for (int64_t ox = 0; ox < pw.outLen();
                                     ++ox) {
                                    const int64_t iy = oy * local.sh -
                                                       local.ph_b + ky;
                                    const int64_t ix = ox * local.sw -
                                                       local.pw_b + kx;
                                    if (iy < 0 || iy >= ph.inLen() ||
                                        ix < 0 || ix >= pw.inLen())
                                        continue;
                                    const int64_t pix =
                                        (ph.out_start + oy) * ow +
                                        pw.out_start + ox;
                                    float acc = 0.0f;
                                    for (int64_t o = 0; o < oc; ++o)
                                        acc += w.at(o * krows + r) *
                                               g[o * oh * ow + pix];
                                    gx[ic * ih * iw +
                                       (ph.in_start + iy) * iw +
                                       pw.in_start + ix] += acc;
                                }
            }
        }
    }
}

/** Split max-pool backward: image by image, patches ascending. */
inline Tensor
splitMaxPoolBackward(const Shape &in_shape, const Tensor &go,
                     const std::vector<int64_t> &argmax,
                     const SplitScheme2d &scheme)
{
    Tensor gx(in_shape);
    const int64_t n = in_shape.dim(0), c = in_shape.dim(1);
    const int64_t oh = go.shape().dim(2), ow = go.shape().dim(3);
    for (int64_t in = 0; in < n; ++in)
        for (const SplitPiece1d &ph : scheme.h.pieces)
            for (const SplitPiece1d &pw : scheme.w.pieces)
                for (int64_t ic = 0; ic < c; ++ic)
                    for (int64_t oy = ph.out_start; oy < ph.out_end;
                         ++oy)
                        for (int64_t ox = pw.out_start;
                             ox < pw.out_end; ++ox) {
                            const int64_t oi =
                                ((in * c + ic) * oh + oy) * ow + ox;
                            const int64_t idx =
                                argmax[static_cast<size_t>(oi)];
                            if (idx >= 0)
                                gx.at(idx) += go.at(oi);
                        }
    return gx;
}

/** Split avg-pool backward: image by image, patches ascending, each
 * output's in-patch taps receiving grad / (kh*kw). */
inline Tensor
splitAvgPoolBackward(const Shape &in_shape, const Tensor &go,
                     const Window2d &win, const SplitScheme2d &scheme)
{
    Tensor gx(in_shape);
    const int64_t n = in_shape.dim(0), c = in_shape.dim(1);
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    for (int64_t in = 0; in < n; ++in)
        for (int hi = 0; hi < scheme.h.parts(); ++hi)
            for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                const SplitPiece1d &ph = scheme.h.pieces[hi];
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                const Window2d local = patchWindow(win, scheme, hi, wi);
                for (int64_t ic = 0; ic < c; ++ic)
                    for (int64_t oy = 0; oy < ph.outLen(); ++oy)
                        for (int64_t ox = 0; ox < pw.outLen(); ++ox) {
                            const float g =
                                go.at4(in, ic, ph.out_start + oy,
                                       pw.out_start + ox) *
                                inv_area;
                            for (int64_t ky = 0; ky < local.kh; ++ky)
                                for (int64_t kx = 0; kx < local.kw;
                                     ++kx) {
                                    const int64_t iy = oy * local.sh -
                                                       local.ph_b + ky;
                                    const int64_t ix = ox * local.sw -
                                                       local.pw_b + kx;
                                    if (iy >= 0 && iy < ph.inLen() &&
                                        ix >= 0 && ix < pw.inLen())
                                        gx.at4(in, ic, ph.in_start + iy,
                                               pw.in_start + ix) += g;
                                }
                        }
            }
    return gx;
}

} // namespace scnn::oracle

#endif // SCNN_TESTS_WINDOW_ORACLE_H
