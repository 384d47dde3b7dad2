/**
 * @file
 * Winograd F(2x2, 3x3) convolution forward (Lavin & Gray), the fast
 * convolution algorithm Section 2.2.1 identifies as a driver of
 * memory-bound layers: it cuts the multiplications of a 3x3/1
 * convolution by ~2.25x at the price of transform workspace. The
 * simulator's cost model charges exactly this speedup; the split
 * engine (core/split_op.h) runs it for real on the CPU, split and
 * unsplit alike.
 */
#ifndef SCNN_KERNELS_WINOGRAD_H
#define SCNN_KERNELS_WINOGRAD_H

#include <cstdint>

#include "kernels/window.h"

namespace scnn {

/** True when the winograd kernel supports this geometry. */
bool winogradApplicable(const Window2d &win);

/**
 * Winograd-vs-im2col selection heuristic, shared by
 * the split engine's ConvKernel::Auto: Winograd's 2.25x MAC
 * saving must amortize the per-tile input/inverse transforms, which
 * scale with c + oc while the saving scales with c * oc. The
 * constants were calibrated against bench_kernels (the
 * winograd_speedup measurement gates them in CI). Deterministic in
 * the shapes alone, so kernel selection — and with it every output
 * byte — is stable across runs and thread counts.
 */
bool winogradCostModelWins(int64_t c, int64_t oc);

/**
 * @name Halo-aware patch-view winograd, batched-GEMM form
 *
 * Zero-copy split execution: transform and pack the filters once per
 * layer, then run whole blocks of tiles as packed GEMMs directly
 * over a patch view of the parent input, writing into a strided
 * region of the parent output.
 *
 * For each of the 16 transform points e, the input transforms of a
 * tile block are scattered into a c x T matrix V_e and contracted
 * against the packed oc x c weight matrix U_e in one gemmPackedA
 * call (the batched-GEMM Winograd formulation), instead of a scalar
 * per-tile multiply-accumulate loop. Under the scalar microkernel
 * the GEMM accumulates channels in the same ascending order with the
 * same per-step rounding as a scalar per-tile MAC loop, so outputs
 * are bit-identical to that reference; under AVX2 the contraction
 * joins the documented determinism carve-out.
 */
///@{
/** Floats winogradPackWeights needs for one layer's packed U. */
int64_t winogradPackedUSize(int64_t oc, int64_t c);

/** Transform all filters (U = G g G^T, 8 input channels per block)
 * and pack each of the 16 transform-point matrices U_e (oc x c) into
 * gemmPackA panels;
 * @p pu holds winogradPackedUSize(oc, c) floats, 64-byte aligned.
 * Packed under the active microkernel — pack and consume under the
 * same SIMD selection. */
void winogradPackWeights(const float *weight, int64_t oc, int64_t c,
                         float *pu);

/** One patch of a Winograd work item: a view of a parent image and
 * where its output block lands in the parent output. */
struct WinogradPatch
{
    const float *img; ///< parent image, C x ih x iw, contiguous
    PatchView view;   ///< patch rectangle inside the parent
    Window2d win;     ///< patch-local 3x3/1 window (split paddings)
    float *out;       ///< parent output image, [oc, out_oh, out_ow]
    int64_t oy0;      ///< where the patch's output block starts in out
    int64_t ox0;
};

/**
 * Run winograd tile rows [ty0, ty1) of @p count patches as one set of
 * batched GEMMs.
 *
 * The tiles of every patch (any images, any width patches) are
 * gathered side by side, patch after patch, into the 16 V_e matrices,
 * so each transform point is one gemmPackedA contraction over all of
 * them: small patches share the packed U across the whole group
 * instead of contracting a handful of tiles each. Every M element
 * accumulates channels ascending whatever the tile count, so results
 * do not depend on how patches are grouped.
 *
 * @param c,ih,iw channels and extents of every parent image.
 * @param pu packed weights from winogradPackWeights.
 * @param bias per-channel bias or nullptr.
 * @param out_oh,out_ow extents of every parent output image.
 *
 * Tile row ty produces patch-output rows [2ty, 2ty+2) clipped to the
 * patch output height, so callers can tile a patch across workers
 * with any even row granularity. Scratch (V and M matrices for the
 * block) comes from the calling thread's arena.
 *
 * The input and output transforms run 8 tiles per block over the
 * flat tile index (patch after patch, row-major within a patch), so
 * one block may span tile rows, patches and images. They use only
 * adds, subtracts and halvings, so the bytes equal a per-tile
 * transform's under either microkernel.
 */
void conv2dWinogradPatches(const WinogradPatch *patches, int64_t count,
                           int64_t c, int64_t ih, int64_t iw,
                           const float *pu, int64_t oc,
                           const float *bias, int64_t ty0, int64_t ty1,
                           int64_t out_oh, int64_t out_ow);
///@}

} // namespace scnn

#endif // SCNN_KERNELS_WINOGRAD_H
