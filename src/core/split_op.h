/**
 * @file
 * The window-op engine: split execution of conv and pooling
 * (Eqs. 4-7, Split_W(X, I) -> per-patch Op with computed paddings ->
 * concat) without materializing a patch. Patches are views into the
 * parent tensor and every patch writes its block of the parent
 * output in place. Unsplit ops are the one-piece scheme
 * (unsplitScheme), so conv2dForwardAuto, conv2dBackward and the pool
 * kernels run this same code.
 *
 * The 2-D case composes two independent 1-D schemes (height and
 * width), yielding h.parts() x w.parts() patches as in Figure 2.
 */
#ifndef SCNN_CORE_SPLIT_OP_H
#define SCNN_CORE_SPLIT_OP_H

#include <vector>

#include "core/split_scheme.h"
#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/** A 2-D split scheme: independent splits along H and W. */
struct SplitScheme2d
{
    SplitScheme1d h;
    SplitScheme1d w;

    int parts() const { return h.parts() * w.parts(); }
};

/**
 * Build a 2-D split scheme for a window op over an ih x iw input.
 *
 * @param win 2-D window geometry (symmetric or asymmetric padding).
 * @param ih input height; @p iw input width.
 * @param out_h_starts output partition along H (O tuple).
 * @param out_w_starts output partition along W.
 * @param policy how to pick I within [lb, ub] on both axes.
 */
SplitScheme2d splitWindowOp2d(const Window2d &win, int64_t ih, int64_t iw,
                              const std::vector<int64_t> &out_h_starts,
                              const std::vector<int64_t> &out_w_starts,
                              InputSplitPolicy policy =
                                  InputSplitPolicy::Center);

/** The local window geometry for patch (hi, wi) of a scheme. */
Window2d patchWindow(const Window2d &win, const SplitScheme2d &scheme,
                     int hi, int wi);

/**
 * The one-piece scheme of an unsplit window op: a single patch per
 * axis covering the whole ih x iw input with the op's own paddings
 * (the N = 1 case of Eqs. 4-7). Every unsplit conv and pool runs
 * through the split engine on this scheme, so split and unsplit
 * layers share one implementation; k < s windows need no special
 * case because the paddings are the op's, not derived ones.
 */
SplitScheme2d unsplitScheme(const Window2d &win, int64_t ih, int64_t iw);

/** @name Conv band decomposition
 *
 * The conv engine's unit of parallel work, exported so the SA6xx
 * parallel-safety analyzer (analysis/parallel_model.h) models the
 * *same* decomposition the kernel executes: both sides call
 * splitConvBandItems, so a change to the banding changes the proof
 * obligations with it.
 */
///@{

/** Output rows per conv work band. Fixed (never derived from
 * the thread count) so the band decomposition — and with it every
 * byte of the result — is identical at any pool size. Even, so
 * Winograd 2-row tiles never straddle bands. */
constexpr int64_t kSplitConvRowBand = 16;

/** One unit of conv work: patch-local output rows [oy0, oy1)
 * of patch-row group hi (all width patches of that group). */
struct SplitBandItem
{
    int hi;      ///< index into the H scheme's pieces
    int64_t oy0; ///< first patch-local output row (inclusive)
    int64_t oy1; ///< last patch-local output row (exclusive)
};

/** The flat per-image band list for an H split scheme: each piece's
 * output rows chopped into kSplitConvRowBand-row bands, in (hi, oy0)
 * order. */
std::vector<SplitBandItem> splitConvBandItems(const SplitScheme1d &h);

/** GEMM columns a conv work item aims for. A band narrower than this
 * per image — a small split patch, 1-4 output columns at the deep
 * layers of a 2x2-split VGG — batches consecutive images into one
 * GEMM until it reaches the target, so the packed weights are reused
 * across the whole group instead of running a mostly-empty 16-wide
 * microtile per image. Chosen with bench_kernels' small_spatial_conv
 * section: its gemm_n_sweep (packed-GEMM throughput against N at the
 * conv shapes) is flat from N = 16 on, and a larger target only grows
 * a grouped item's staging (64 raised a train step's peak RSS).
 * Fixed, so grouping — like banding — depends on shapes alone. */
constexpr int64_t kSplitConvGroupCols = 32;

/** Consecutive images [n0, n1) that share one conv work item. */
struct SplitImageGroup
{
    int64_t n0; ///< first image (inclusive)
    int64_t n1; ///< last image (exclusive)
};

/** The image groups of a conv over @p n images whose widest band
 * contributes @p cols_per_image GEMM columns per image: ascending
 * groups of g = min(n, ceil(kSplitConvGroupCols / cols_per_image))
 * images covering [0, n), the last one ragged. g = 1 once a band
 * reaches the target. The conv work item index is
 * group_index * bands.size() + band_index. */
std::vector<SplitImageGroup> splitConvImageGroups(int64_t n,
                                                  int64_t cols_per_image);

/** GEMM columns one image contributes to the widest band of
 * @p scheme: band rows x parent output width for im2col (forward and
 * dgrad), 2x2 output tiles of every width patch for Winograd. */
int64_t splitConvImageCols(const SplitScheme2d &scheme, bool winograd);

///@}

/** Which conv kernel the engine runs. */
enum class ConvKernel
{
    Auto,    ///< Winograd when winogradApplicable and the cost model
             ///< says it wins, im2col + GEMM otherwise
    Im2col,  ///< halo-aware im2col staging + packed-panel GEMM
    Winograd ///< batched-GEMM Winograd F(2x2, 3x3); 3x3/1 only
};

/** Whether @p kernel runs Winograd on a layer with @p c input and
 * @p oc output channels: Winograd pinned, or Auto with
 * winogradApplicable && winogradCostModelWins(c, oc). */
bool splitConvUsesWinograd(ConvKernel kernel, const Window2d &win,
                           int64_t c, int64_t oc);

/**
 * Split convolution forward (Eqs. 4-7 applied to conv2d).
 *
 * Patches are views into the parent tensor (no pad2d copy, no
 * per-patch output tensors, no concat). Each work item is an
 * output-row band of one patch-row group for one image group
 * (splitConvImageGroups): every patch of every image in the group
 * stages its halo-aware im2col columns into one shared column matrix,
 * image-major and then by parent output position, the matrix is
 * packed into B panels once and consumed across every output-channel
 * tile, and the GEMM writes the parent output — directly when the
 * group is one image, through a staging block copied out per image
 * otherwise. Wide bands thus run at the unsplit convolution's shape,
 * and small patches run one GEMM for the whole group instead of one
 * mostly-empty GEMM per image. The Winograd kernel gathers the tiles
 * of the same group into its 16 contractions. The weight operand is
 * packed once per call into the caller's scratch arena; the Winograd
 * kernel's transformed U is kept in a one-entry cache so the patch
 * clones of one layer share a single transform.
 *
 * @p kernel pins the kernel (tests and benches); Auto applies
 * winogradApplicable && winogradCostModelWins(c, oc).
 */
Tensor splitConv2dForward(const Tensor &x, const Tensor &weight,
                          const Tensor &bias, const Window2d &win,
                          const SplitScheme2d &scheme,
                          ConvKernel kernel = ConvKernel::Auto);

/** @name Winograd weight cache
 *
 * One entry holding the packed Winograd U of the most recent layer,
 * keyed by weight pointer, shape and active microkernel and
 * validated by a word-wise content hash, so in-place weight updates
 * (SGD) repack instead of serving stale panels. GEMM and dgrad
 * panels are never cached: they cost less to pack than to hash.
 */
///@{
struct SplitWeightCacheStats
{
    int64_t hits = 0;   ///< lookups served from the cached U
    int64_t misses = 0; ///< lookups that had to transform and pack
    int64_t evictions = 0; ///< entries displaced by another layer
    int64_t entries = 0; ///< live cached layers (0 or 1)
};

/** Snapshot of the cache counters (process-wide). */
SplitWeightCacheStats splitWeightCacheStats();

/** Drop the cached U and zero the counters. */
void splitWeightCacheClear();
///@}

/**
 * Split max-pool forward: one work item per (image, patch), each
 * pooling a halo-aware PatchView of the parent into its block of the
 * parent output.
 *
 * @param argmax [out] resized to the output size and filled with
 *        each output's linear index into the whole input tensor (-1
 *        for all-padding windows), the layout maxPool2dBackward
 *        reads.
 */
Tensor splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme,
                             std::vector<int64_t> &argmax);

/** Split average-pool forward (same work items as max-pool). */
Tensor splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme);

/**
 * Split convolution backward: the backward twin of the forward
 * pipeline. Gradient patches are PatchViews into the parent gradient
 * tensors — no per-patch bounce buffers. Two parallel phases:
 *
 *   wgrad: per image, its row bands serially on one worker (images
 *          fan out across the pool). Per band every patch stages its
 *          halo-aware im2col columns exactly as the forward does; the
 *          band's grad_out rows (packed A, straight from the parent
 *          tensor) contract against the columns packed transposed
 *          (gemmPackBStrided), chaining a per-image partial in
 *          grad_w's [oc x krows] layout across bands (beta = 1);
 *          partials are reduced into grad_w serially in image order,
 *          so the result is bitwise-identical for any thread count.
 *   dgrad: per image group (the forward's splitConvImageGroups), its
 *          row bands serially on one worker. W^T panels (packed once
 *          per call) contract against the group's grad_out band rows
 *          side by side in one GEMM, and each image's patches scatter
 *          their slice of the gradient columns into the parent
 *          grad_x through col2imViewStrided — halo rows accumulate
 *          under the worker's serial band/patch order (the SA609
 *          ordered-accumulation discipline).
 *
 * The dispatcher lints buildSplitConvBackwardPlan under
 * SCNN_LINT_PARALLEL.
 *
 * @param grad_x [out] overwritten with dL/dx at x's shape.
 * @param grad_w [out] accumulated into (pre-shaped like weight).
 * @param grad_b [out] accumulated into; pass an empty tensor when the
 *        convolution has no bias.
 */
void splitConv2dBackward(const Tensor &x, const Tensor &weight,
                         const Tensor &grad_out, const Window2d &win,
                         const SplitScheme2d &scheme, Tensor &grad_x,
                         Tensor &grad_w, Tensor &grad_b);

/**
 * Split average-pool backward. Gradients scatter through each patch's
 * PatchView into the parent grad_x: a worker owns an image and walks
 * its patches in ascending order, so halo rows (windows straddling a
 * patch seam when k > s) accumulate in a fixed order —
 * bitwise-deterministic for any thread count. Max-pool needs no split
 * twin: its forward argmax indexes the whole input tensor, so
 * maxPool2dBackward is the one scatter for either scheme.
 */
Tensor splitAvgPool2dBackward(const Shape &in_shape,
                              const Tensor &grad_out,
                              const Window2d &win,
                              const SplitScheme2d &scheme);

} // namespace scnn

#endif // SCNN_CORE_SPLIT_OP_H
