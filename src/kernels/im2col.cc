#include "kernels/im2col.h"

#include <algorithm>

#include "analysis/shadow_access.h"
#include "kernels/rowops.h"

namespace scnn {

void
im2colViewStrided(const float *img, int64_t c, int64_t ih, int64_t iw,
                  const PatchView &view, const Window2d &win,
                  int64_t oy0, int64_t oy1, float *col, int64_t col_ld,
                  int64_t row_step)
{
    const int64_t ow = win.outW(view.iw);
    // Shadow claim: everything read below lies inside the patch's
    // contiguous hull, channel 0's first rectangle float through
    // channel c-1's last (the span the SA6xx model predicts).
    shadowRecord(img + view.r0 * iw + view.c0,
                 (c - 1) * ih * iw + (view.ih - 1) * iw + view.iw,
                 false);
    int64_t row = 0;
    for (int64_t ic = 0; ic < c; ++ic) {
        const float *chan = img + ic * ih * iw;
        for (int64_t ky = 0; ky < win.kh; ++ky) {
            for (int64_t kx = 0; kx < win.kw; ++kx, ++row) {
                float *dst = col + row * col_ld;
                // The valid ox range hoists out of the oy loop for
                // *any* stride: ix = ox*sw - pw_b + kx must land in
                // [0, view.iw), so ox lives in
                // [ceil((pw_b - kx)/sw), ceil((view.iw + pw_b - kx)/sw)).
                // Zero the out-of-patch flanks and fill the middle
                // with one copy (stride 1) or one branch-free strided
                // gather — bit-identical to the old per-element walk.
                // Narrow patches make these rows short (1-4 outputs
                // at the deep layers), so the copies are rowops.h's
                // inline ones, not a libc call per segment.
                const int64_t num_lo = win.pw_b - kx;
                const int64_t lo = std::clamp<int64_t>(
                    num_lo > 0 ? (num_lo + win.sw - 1) / win.sw : 0,
                    0, ow);
                const int64_t num_hi = view.iw + win.pw_b - kx;
                const int64_t hi = std::clamp<int64_t>(
                    num_hi > 0 ? (num_hi + win.sw - 1) / win.sw : 0,
                    lo, ow);
                const int64_t src_off =
                    view.c0 + lo * win.sw - win.pw_b + kx;
                for (int64_t oy = oy0; oy < oy1; ++oy) {
                    float *drow = dst + (oy - oy0) * row_step;
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih) {
                        zeroFloats(drow, ow);
                        continue;
                    }
                    zeroFloats(drow, lo);
                    zeroFloats(drow + hi, ow - hi);
                    const float *src =
                        chan + (view.r0 + iy) * iw + src_off;
                    if (win.sw == 1)
                        copyFloats(drow + lo, src, hi - lo);
                    else
                        for (int64_t ox = lo; ox < hi; ++ox)
                            drow[ox] = src[(ox - lo) * win.sw];
                }
            }
        }
    }
}

void
col2imViewStrided(const float *col, int64_t c, int64_t ih, int64_t iw,
                  const PatchView &view, const Window2d &win,
                  int64_t oy0, int64_t oy1, float *img, int64_t col_ld,
                  int64_t row_step)
{
    const int64_t ow = win.outW(view.iw);
    // Shadow claim: every scatter below lands inside the band's
    // contiguous write hull — the patch rows [iy_lo, iy_hi) that
    // output rows [oy0, oy1) can touch, channel 0's first float
    // through channel c-1's last (the span the SA6xx backward model
    // predicts for this item).
    const int64_t iy_lo =
        std::max<int64_t>(0, oy0 * win.sh - win.ph_b);
    const int64_t iy_hi = std::min<int64_t>(
        view.ih, (oy1 - 1) * win.sh - win.ph_b + win.kh);
    if (iy_lo >= iy_hi)
        return; // every window element of the band is local padding
    shadowRecord(img + (view.r0 + iy_lo) * iw + view.c0,
                 (c - 1) * ih * iw + (iy_hi - 1 - iy_lo) * iw + view.iw,
                 true);
    int64_t row = 0;
    for (int64_t ic = 0; ic < c; ++ic) {
        float *chan = img + ic * ih * iw;
        for (int64_t ky = 0; ky < win.kh; ++ky) {
            for (int64_t kx = 0; kx < win.kw; ++kx, ++row) {
                const float *src = col + row * col_ld;
                // Same hoisted ox bounds as im2colViewStrided: only
                // ox in [lo, hi) has ix = ox*sw - pw_b + kx inside
                // [0, view.iw); the flanks are the dropped local
                // padding, so the inner loop is branch-free.
                const int64_t num_lo = win.pw_b - kx;
                const int64_t lo = std::clamp<int64_t>(
                    num_lo > 0 ? (num_lo + win.sw - 1) / win.sw : 0,
                    0, ow);
                const int64_t num_hi = view.iw + win.pw_b - kx;
                const int64_t hi = std::clamp<int64_t>(
                    num_hi > 0 ? (num_hi + win.sw - 1) / win.sw : 0,
                    lo, ow);
                const int64_t dst_off =
                    view.c0 + lo * win.sw - win.pw_b + kx;
                for (int64_t oy = oy0; oy < oy1; ++oy) {
                    const int64_t iy = oy * win.sh - win.ph_b + ky;
                    if (iy < 0 || iy >= view.ih)
                        continue;
                    const float *srow = src + (oy - oy0) * row_step;
                    float *drow = chan + (view.r0 + iy) * iw + dst_off;
                    if (win.sw == 1)
                        addRow(drow, srow + lo, hi - lo);
                    else
                        for (int64_t ox = lo; ox < hi; ++ox)
                            drow[(ox - lo) * win.sw] += srow[ox];
                }
            }
        }
    }
}

} // namespace scnn
