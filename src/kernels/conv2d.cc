#include "kernels/conv2d.h"

#include "core/split_op.h"
#include "util/logging.h"

namespace scnn {

Tensor
conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                  const Tensor &bias, const Window2d &win)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    return splitConv2dForward(
        x, weight, bias, win,
        unsplitScheme(win, x.shape().dim(2), x.shape().dim(3)));
}

void
conv2dBackward(const Tensor &x, const Tensor &weight,
               const Tensor &grad_out, const Window2d &win,
               Tensor &grad_x, Tensor &grad_w, Tensor &grad_b)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    splitConv2dBackward(
        x, weight, grad_out, win,
        unsplitScheme(win, x.shape().dim(2), x.shape().dim(3)), grad_x,
        grad_w, grad_b);
}

} // namespace scnn
