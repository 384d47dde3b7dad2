/**
 * @file
 * 2-D convolution forward and backward: the split engine
 * (core/split_op.h) on the one-piece scheme, so unsplit and split
 * layers run one implementation (band-staged im2col + packed-panel
 * GEMM, or batched-GEMM Winograd).
 */
#ifndef SCNN_KERNELS_CONV2D_H
#define SCNN_KERNELS_CONV2D_H

#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * Forward convolution with automatic algorithm selection: Winograd
 * F(2x2, 3x3) for 3x3 stride-1 windows where winogradCostModelWins,
 * im2col + GEMM otherwise.
 *
 * @param x input, [N, C, H, W].
 * @param weight [OC, C, kh, kw].
 * @param bias [OC]; pass an empty tensor for no bias.
 * @param win window geometry (kernel extents must match @p weight).
 * @return output, [N, OC, outH, outW].
 */
Tensor conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                         const Tensor &bias, const Window2d &win);

/**
 * Backward convolution.
 *
 * @param x forward input.
 * @param weight forward weight.
 * @param grad_out gradient w.r.t. the forward output.
 * @param win window geometry.
 * @param grad_x [out] gradient w.r.t. x (overwritten).
 * @param grad_w [out] gradient w.r.t. weight (accumulated into).
 * @param grad_b [out] gradient w.r.t. bias (accumulated into); pass an
 *        empty tensor when the convolution has no bias.
 */
void conv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    Tensor &grad_x, Tensor &grad_w, Tensor &grad_b);

} // namespace scnn

#endif // SCNN_KERNELS_CONV2D_H
