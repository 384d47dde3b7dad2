/**
 * @file
 * Real (CPU) execution of a computation graph: parameter storage,
 * forward pass with intermediate caching, and back-propagation. This
 * engine runs the accuracy experiments (Figures 4-7, Table 1); the
 * timing experiments use the device simulator instead.
 */
#ifndef SCNN_TRAIN_EXECUTOR_H
#define SCNN_TRAIN_EXECUTOR_H

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "kernels/batchnorm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace scnn {

/**
 * Storage for parameter values and gradients, keyed by ParamId.
 *
 * The Split-CNN transformation preserves the parameter table of the
 * original graph, so one ParamStore can be shared by the unsplit
 * graph, the split graph, and per-minibatch stochastic-split graphs
 * (the mechanism behind evaluating a Stochastic Split-CNN unsplit).
 */
class ParamStore
{
  public:
    /** Allocate and initialize parameters per the graph's table. */
    ParamStore(const Graph &graph, Rng &rng);

    Tensor &value(ParamId id);
    const Tensor &value(ParamId id) const;
    Tensor &grad(ParamId id);

    /** Zero all gradient tensors. */
    void zeroGrad();

    size_t size() const { return values_.size(); }

    /** True if @p graph has the identical parameter table. */
    bool compatibleWith(const Graph &graph) const;

  private:
    std::vector<ParamInfo> infos_;
    std::vector<Tensor> values_;
    std::vector<Tensor> grads_;
};

/** Per-step intermediate state kept between forward and backward. */
struct ForwardCache
{
    /** Forward tensor values by TensorId. */
    std::vector<std::optional<Tensor>> values;
    /** Max-pool argmax per NodeId. */
    std::vector<std::vector<int64_t>> argmax;
    /** BatchNorm statistics per NodeId. */
    std::vector<BatchNormCache> bn;
};

/**
 * Group @p graph's topological order into dependency levels
 * ("waves"): a node's wave is 1 + the deepest wave among its input
 * producers, so every node in a wave depends only on earlier waves
 * and nodes within one wave can run concurrently. The partition is a
 * function of the graph alone (thread-count independent). Exported
 * so the SA6xx parallel-safety analyzer
 * (analysis/parallel_model.h) models the exact schedule the
 * executor runs.
 */
std::vector<std::vector<NodeId>> computeExecutionWaves(const Graph &graph);

/**
 * Graph executor bound to a graph and a parameter store.
 */
class Executor
{
  public:
    Executor(const Graph &graph, ParamStore &params);

    /**
     * Run the forward pass.
     *
     * @param input value for the graph input tensor.
     * @param training true for batch-stat BN (and running-stat
     *        updates); false for inference-mode BN.
     * @param cache [out] intermediates for backward; may be null for
     *        inference.
     * @return the graph output tensor value (logits).
     */
    Tensor forward(const Tensor &input, bool training,
                   ForwardCache *cache);

    /**
     * Back-propagate @p grad_output (gradient w.r.t. the graph
     * output) and accumulate parameter gradients into the store.
     */
    void backward(const ForwardCache &cache, const Tensor &grad_output);

  private:
    /**
     * Evaluate one node from cached input values. Training-mode
     * batchnorm computes batch statistics but leaves the running
     * stats untouched (forward applies them after the last wave,
     * serially, in topological order).
     */
    Tensor computeNode(const Node &n, const Tensor &input, bool training,
                       ForwardCache &c);

    const Graph &graph_;
    ParamStore &params_;
    std::vector<NodeId> topo_;
    /**
     * topo_ grouped into dependency levels ("waves"): every node in a
     * wave depends only on earlier waves, so nodes within one wave —
     * e.g. the per-patch clones a Split-CNN transform creates — can
     * run concurrently. Wave membership and in-wave order follow the
     * topological order, independent of thread count.
     */
    std::vector<std::vector<NodeId>> waves_;
};

} // namespace scnn

#endif // SCNN_TRAIN_EXECUTOR_H
