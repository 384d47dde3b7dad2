/**
 * @file
 * im2col / col2im lowering for convolution. Handles asymmetric and
 * negative padding: out-of-bounds window elements read as zero
 * (im2col) and are dropped (col2im).
 *
 * Both lower a rectangular patch of a parent image without
 * materializing it: window elements are read from parent memory
 * through strided offsets, and only the requested output-row range
 * is produced — the halo rows a split patch shares with its
 * neighbours are re-read from the parent, never copied into a
 * padded per-patch tensor. They produce exactly the bytes a
 * materialized patch's im2col would (copies and zero-fills are
 * exact), so they carry no determinism carve-out.
 */
#ifndef SCNN_KERNELS_IM2COL_H
#define SCNN_KERNELS_IM2COL_H

#include <cstdint>

#include "kernels/window.h"

namespace scnn {

/**
 * Lower output rows [oy0, oy1) of a patch view of one parent image
 * into a strided slice of a column matrix: window element row r of
 * patch-output pixel (oy, ox) lands at
 * col[r*col_ld + (oy-oy0)*row_step + ox], ox < outW(view.iw). The
 * split engine stages every patch of an output-row group into one
 * shared column matrix this way (col_ld = the group's full column
 * count, row_step = the parent output width), so the group runs as a
 * single packed GEMM whose C is the parent output itself. A whole
 * image is the full view (PatchView::full) with col_ld =
 * (oy1-oy0)*outW and row_step = outW.
 *
 * @param img the *parent* image, C x ih x iw, contiguous.
 * @param view the patch rectangle inside the parent.
 * @param win patch-local window geometry (the split scheme's
 *        per-patch paddings); output extents derive from view.ih/iw.
 */
void im2colViewStrided(const float *img, int64_t c, int64_t ih,
                       int64_t iw, const PatchView &view,
                       const Window2d &win, int64_t oy0, int64_t oy1,
                       float *col, int64_t col_ld, int64_t row_step);

/**
 * Scatter-add output rows [oy0, oy1) of a patch-view column matrix
 * back into the *parent* image: the adjoint of im2colViewStrided,
 * reading window element row r of patch-output pixel (oy, ox) from
 * col[r*col_ld + (oy-oy0)*row_step + ox] — the layout the band-level
 * dgrad GEMM writes, so the split backward scatters each patch
 * straight out of the shared gradient-column matrix. Window elements
 * falling in the patch's local padding are dropped; in-patch
 * elements accumulate (`+=`) at their parent offsets, so halo rows
 * shared with a neighbouring patch receive both patches'
 * contributions — the caller sequences overlapping patches (the
 * split backward runs one image per worker, patches in ascending
 * order, which pins the accumulation order bitwise). @p img must be
 * zero-initialized (or hold a prior accumulation) by the caller.
 */
void col2imViewStrided(const float *col, int64_t c, int64_t ih,
                       int64_t iw, const PatchView &view,
                       const Window2d &win, int64_t oy0, int64_t oy1,
                       float *img, int64_t col_ld, int64_t row_step);

} // namespace scnn

#endif // SCNN_KERNELS_IM2COL_H
