/**
 * @file
 * Batch normalization (per-channel, training and inference modes).
 */
#ifndef SCNN_KERNELS_BATCHNORM_H
#define SCNN_KERNELS_BATCHNORM_H

#include "tensor/tensor.h"

namespace scnn {

/** Per-batch statistics cached by the forward pass for backward. */
struct BatchNormCache
{
    Tensor mean;      ///< per-channel batch mean, [C]
    Tensor batch_var; ///< per-channel (biased) batch variance, [C]
    Tensor inv_std;   ///< per-channel 1/sqrt(var + eps), [C]
    Tensor x_hat;     ///< normalized input, same shape as x
};

/**
 * Training-mode batchnorm forward over NCHW input.
 *
 * Updates @p running_mean / @p running_var with the given momentum and
 * fills @p cache for the backward pass.
 */
Tensor batchNormForward(const Tensor &x, const Tensor &gamma,
                        const Tensor &beta, Tensor &running_mean,
                        Tensor &running_var, float momentum, float eps,
                        BatchNormCache &cache);

/**
 * Training-mode forward WITHOUT the running-statistics update.
 *
 * Computes the identical output and cache as batchNormForward (batch
 * statistics only — training mode never reads running stats). The
 * executor uses this so graph nodes that share parameters can run
 * concurrently; it then applies the deferred updates serially via
 * applyBatchNormRunningUpdate, in topological order.
 */
Tensor batchNormForwardStats(const Tensor &x, const Tensor &gamma,
                             const Tensor &beta, float eps,
                             BatchNormCache &cache);

/** The running-statistics update batchNormForward performs, factored
 * out so it can be deferred: r = (1 - momentum) * r + momentum * stat
 * per channel, with stats taken from @p cache. */
void applyBatchNormRunningUpdate(const BatchNormCache &cache,
                                 float momentum, Tensor &running_mean,
                                 Tensor &running_var);

/** Inference-mode batchnorm using running statistics. */
Tensor batchNormInference(const Tensor &x, const Tensor &gamma,
                          const Tensor &beta, const Tensor &running_mean,
                          const Tensor &running_var, float eps);

/**
 * Batchnorm backward.
 *
 * @param grad_out upstream gradient.
 * @param gamma scale parameter.
 * @param cache statistics cached by batchNormForward.
 * @param grad_gamma [out] accumulated gradient of gamma.
 * @param grad_beta [out] accumulated gradient of beta.
 * @return gradient w.r.t. x.
 */
Tensor batchNormBackward(const Tensor &grad_out, const Tensor &gamma,
                         const BatchNormCache &cache, Tensor &grad_gamma,
                         Tensor &grad_beta);

} // namespace scnn

#endif // SCNN_KERNELS_BATCHNORM_H
