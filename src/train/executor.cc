#include "train/executor.h"

#include <algorithm>
#include <cmath>

#include "analysis/parallel_model.h"
#include "kernels/activations.h"
#include "kernels/conv2d.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace scnn {

ParamStore::ParamStore(const Graph &graph, Rng &rng)
    : infos_(graph.params())
{
    values_.reserve(infos_.size());
    grads_.reserve(infos_.size());
    for (const auto &info : infos_) {
        Tensor value(info.shape);
        switch (info.init) {
          case ParamInit::Zero:
            break;
          case ParamInit::One:
            value.fill(1.0f);
            break;
          case ParamInit::KaimingConv: {
            const auto &d = info.shape.dims();
            SCNN_CHECK(d.size() == 4, "conv weight must be rank 4");
            const float fan_in =
                static_cast<float>(d[1] * d[2] * d[3]);
            value.fillNormal(rng, 0.0f, std::sqrt(2.0f / fan_in));
            break;
          }
          case ParamInit::KaimingLinear: {
            const auto &d = info.shape.dims();
            SCNN_CHECK(d.size() == 2, "linear weight must be rank 2");
            const float fan_in = static_cast<float>(d[1]);
            value.fillNormal(rng, 0.0f, std::sqrt(2.0f / fan_in));
            break;
          }
        }
        values_.push_back(std::move(value));
        grads_.push_back(Tensor(info.shape));
    }
}

Tensor &
ParamStore::value(ParamId id)
{
    SCNN_CHECK(id >= 0 && id < static_cast<ParamId>(values_.size()),
               "bad param id " << id);
    return values_[static_cast<size_t>(id)];
}

const Tensor &
ParamStore::value(ParamId id) const
{
    return const_cast<ParamStore *>(this)->value(id);
}

Tensor &
ParamStore::grad(ParamId id)
{
    SCNN_CHECK(id >= 0 && id < static_cast<ParamId>(grads_.size()),
               "bad param id " << id);
    return grads_[static_cast<size_t>(id)];
}

void
ParamStore::zeroGrad()
{
    for (auto &g : grads_)
        g.fill(0.0f);
}

bool
ParamStore::compatibleWith(const Graph &graph) const
{
    if (graph.params().size() != infos_.size())
        return false;
    for (size_t i = 0; i < infos_.size(); ++i)
        if (!(graph.params()[i].shape == infos_[i].shape))
            return false;
    return true;
}

std::vector<std::vector<NodeId>>
computeExecutionWaves(const Graph &graph)
{
    std::vector<int64_t> tensor_level(graph.tensors().size(), 0);
    std::vector<std::vector<NodeId>> waves;
    for (NodeId id : graph.topoOrder()) {
        const Node &n = graph.node(id);
        int64_t level = 0;
        for (TensorId t : n.inputs)
            level = std::max(level,
                             tensor_level[static_cast<size_t>(t)] + 1);
        tensor_level[static_cast<size_t>(n.output)] = level;
        if (static_cast<size_t>(level) >= waves.size())
            waves.resize(static_cast<size_t>(level) + 1);
        waves[static_cast<size_t>(level)].push_back(id);
    }
    return waves;
}

Executor::Executor(const Graph &graph, ParamStore &params)
    : graph_(graph), params_(params), topo_(graph.topoOrder()),
      waves_(computeExecutionWaves(graph))
{
    SCNN_REQUIRE(params_.compatibleWith(graph_),
                 "parameter store incompatible with graph");
    // Debug hook: prove the wave schedule race-free before the first
    // forward() runs it. Training mode is the superset model (it adds
    // the deferred BN running-stat epochs).
    if (lintParallelEnabled()) {
        const std::vector<Diagnostic> diags =
            analyzeParallelPlan(buildExecutorWavePlan(graph_, true));
        SCNN_CHECK(diags.empty(),
                   "parallel-safety lint: "
                       << diags.size()
                       << " finding(s) in the executor wave plan; "
                          "first: "
                       << diags.front().toString());
    }
}

Tensor
Executor::computeNode(const Node &n, const Tensor &input, bool training,
                      ForwardCache &c)
{
    auto val = [&](TensorId t) -> const Tensor & {
        SCNN_CHECK(c.values[static_cast<size_t>(t)].has_value(),
                   "tensor t" << t << " not yet computed");
        return *c.values[static_cast<size_t>(t)];
    };

    Tensor out;
    switch (n.kind) {
      case OpKind::Input:
        SCNN_REQUIRE(input.shape() == graph_.tensor(n.output).shape,
                     "input shape "
                         << input.shape().toString()
                         << " != graph input "
                         << graph_.tensor(n.output).shape.toString());
        out = input;
        break;
      case OpKind::Conv2d:
        out = conv2dForwardAuto(
            val(n.inputs[0]), params_.value(n.params[0]),
            n.has_bias ? params_.value(n.params[1]) : Tensor(),
            n.win);
        break;
      case OpKind::MaxPool2d:
        out = maxPool2dForward(val(n.inputs[0]), n.win,
                               c.argmax[static_cast<size_t>(n.id)]);
        break;
      case OpKind::AvgPool2d:
        out = avgPool2dForward(val(n.inputs[0]), n.win);
        break;
      case OpKind::GlobalAvgPool:
        out = globalAvgPoolForward(val(n.inputs[0]));
        break;
      case OpKind::BatchNorm:
        if (training) {
            // Batch stats only; forward applies the running-stat
            // updates serially afterwards, because nodes sharing
            // running stats (split-graph patch clones) may run
            // concurrently.
            out = batchNormForwardStats(
                val(n.inputs[0]), params_.value(n.params[0]),
                params_.value(n.params[1]), 1e-5f,
                c.bn[static_cast<size_t>(n.id)]);
        } else {
            out = batchNormInference(val(n.inputs[0]),
                                     params_.value(n.params[0]),
                                     params_.value(n.params[1]),
                                     params_.value(n.params[2]),
                                     params_.value(n.params[3]),
                                     1e-5f);
        }
        break;
      case OpKind::ReLU:
        out = reluForward(val(n.inputs[0]));
        break;
      case OpKind::Linear:
        out = linearForward(val(n.inputs[0]),
                            params_.value(n.params[0]),
                            n.has_bias ? params_.value(n.params[1])
                                       : Tensor());
        break;
      case OpKind::Flatten:
        out = val(n.inputs[0]).reshape(graph_.tensor(n.output).shape);
        break;
      case OpKind::Add: {
        out = val(n.inputs[0]);
        for (size_t i = 1; i < n.inputs.size(); ++i)
            axpy(1.0f, val(n.inputs[i]), out);
        break;
      }
      case OpKind::Slice: {
        const Tensor &x = val(n.inputs[0]);
        out = pad2d(x, -n.h_start, n.h_end - x.shape().dim(2),
                    -n.w_start, n.w_end - x.shape().dim(3));
        break;
      }
      case OpKind::Concat: {
        std::vector<Tensor> parts;
        parts.reserve(n.inputs.size());
        for (TensorId t : n.inputs)
            parts.push_back(val(t));
        out = concatDim(parts, n.concat_dim);
        break;
      }
    }
    SCNN_CHECK(out.shape() == graph_.tensor(n.output).shape,
               "node " << n.name << " produced "
                       << out.shape().toString() << ", expected "
                       << graph_.tensor(n.output).shape.toString());
    return out;
}

Tensor
Executor::forward(const Tensor &input, bool training, ForwardCache *cache)
{
    ForwardCache local;
    ForwardCache &c = cache ? *cache : local;
    c.values.assign(graph_.tensors().size(), std::nullopt);
    c.argmax.assign(graph_.nodes().size(), {});
    c.bn.assign(graph_.nodes().size(), {});

    // Nodes within a wave are independent and write disjoint cache
    // slots, so each wave fans out across the pool (at one thread,
    // parallelFor runs it inline in wave order). Batchnorm
    // running-stat updates are deferred and applied serially below
    // in topological order — training-mode BN never reads running
    // stats, so outputs are unchanged and the updates compound in
    // the same order at any thread count.
    auto &pool = globalPool();
    auto run = [&](NodeId id) {
        const Node &n = graph_.node(id);
        c.values[static_cast<size_t>(n.output)] =
            computeNode(n, input, training, c);
    };
    for (const auto &wave : waves_) {
        if (static_cast<int>(wave.size()) < pool.threads()) {
            // Narrow wave: fewer nodes than workers. Nested
            // parallelFor calls run inline on their worker, so
            // fanning such a wave across the pool would strand each
            // node's internal kernel parallelism (GEMM column tiles,
            // split patch x row-tile items) on a single thread. Run
            // the nodes serially on the caller instead so every
            // kernel sees the full pool. Outputs are unchanged either
            // way: kernels are bitwise-deterministic for any thread
            // count.
            for (NodeId id : wave)
                run(id);
            continue;
        }
        pool.parallelFor(static_cast<int64_t>(wave.size()),
                         [&](int64_t begin, int64_t end) {
                             for (int64_t i = begin; i < end; ++i)
                                 run(wave[static_cast<size_t>(i)]);
                         });
    }
    if (training) {
        for (NodeId id : topo_) {
            const Node &n = graph_.node(id);
            if (n.kind == OpKind::BatchNorm)
                applyBatchNormRunningUpdate(
                    c.bn[static_cast<size_t>(id)], 0.1f,
                    params_.value(n.params[2]),
                    params_.value(n.params[3]));
        }
    }

    const TensorId out_id = graph_.outputTensor();
    SCNN_CHECK(c.values[static_cast<size_t>(out_id)].has_value(),
               "graph output not computed");
    return *c.values[static_cast<size_t>(out_id)];
}

void
Executor::backward(const ForwardCache &cache, const Tensor &grad_output)
{
    std::vector<std::optional<Tensor>> grads(graph_.tensors().size());
    const TensorId out_id = graph_.outputTensor();
    SCNN_REQUIRE(grad_output.shape() == graph_.tensor(out_id).shape,
                 "grad_output shape mismatch");
    grads[static_cast<size_t>(out_id)] = grad_output;

    auto val = [&](TensorId t) -> const Tensor & {
        return *cache.values[static_cast<size_t>(t)];
    };
    auto accum = [&](TensorId t, Tensor g) {
        auto &slot = grads[static_cast<size_t>(t)];
        if (slot.has_value())
            axpy(1.0f, g, *slot);
        else
            slot = std::move(g);
    };

    for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
        const Node &n = graph_.node(*it);
        if (n.kind == OpKind::Input)
            continue;
        auto &gslot = grads[static_cast<size_t>(n.output)];
        if (!gslot.has_value())
            continue; // output never influenced the loss
        const Tensor &go = *gslot;

        switch (n.kind) {
          case OpKind::Input:
            break;
          case OpKind::Conv2d: {
            Tensor gx;
            Tensor &gw = params_.grad(n.params[0]);
            Tensor gb_empty;
            Tensor &gb =
                n.has_bias ? params_.grad(n.params[1]) : gb_empty;
            conv2dBackward(val(n.inputs[0]),
                           params_.value(n.params[0]), go, n.win, gx,
                           gw, gb);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::MaxPool2d:
            accum(n.inputs[0],
                  maxPool2dBackward(
                      graph_.tensor(n.inputs[0]).shape, go,
                      cache.argmax[static_cast<size_t>(n.id)]));
            break;
          case OpKind::AvgPool2d:
            accum(n.inputs[0],
                  avgPool2dBackward(graph_.tensor(n.inputs[0]).shape,
                                    go, n.win));
            break;
          case OpKind::GlobalAvgPool:
            accum(n.inputs[0],
                  globalAvgPoolBackward(
                      graph_.tensor(n.inputs[0]).shape, go));
            break;
          case OpKind::BatchNorm: {
            Tensor gx = batchNormBackward(
                go, params_.value(n.params[0]),
                cache.bn[static_cast<size_t>(n.id)],
                params_.grad(n.params[0]), params_.grad(n.params[1]));
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::ReLU:
            accum(n.inputs[0], reluBackward(val(n.output), go));
            break;
          case OpKind::Linear: {
            Tensor gx;
            Tensor gb_empty;
            Tensor &gb =
                n.has_bias ? params_.grad(n.params[1]) : gb_empty;
            linearBackward(val(n.inputs[0]),
                           params_.value(n.params[0]), go, gx,
                           params_.grad(n.params[0]), gb);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::Flatten:
            accum(n.inputs[0],
                  go.reshape(graph_.tensor(n.inputs[0]).shape));
            break;
          case OpKind::Add:
            for (TensorId t : n.inputs)
                accum(t, go);
            break;
          case OpKind::Slice: {
            // Scatter-accumulate the patch gradient straight into the
            // parent slot — no full-canvas intermediate. Sibling
            // patches of one parent run in reverse topological order,
            // so halo overlaps accumulate deterministically.
            const Shape &in_shape = graph_.tensor(n.inputs[0]).shape;
            auto &slot = grads[static_cast<size_t>(n.inputs[0])];
            if (!slot.has_value())
                slot = Tensor(in_shape); // zero scatter target
            addWindow2d(go, n.h_start, n.w_start, *slot);
            break;
          }
          case OpKind::Concat: {
            // Split the gradient back into the input extents.
            std::vector<int64_t> starts;
            starts.reserve(n.inputs.size());
            int64_t cursor = 0;
            for (TensorId t : n.inputs) {
                starts.push_back(cursor);
                cursor += graph_.tensor(t).shape.dim(n.concat_dim);
            }
            auto pieces = splitDim(go, n.concat_dim, starts);
            for (size_t i = 0; i < n.inputs.size(); ++i)
                accum(n.inputs[i], std::move(pieces[i]));
            break;
          }
        }
        gslot.reset(); // free the consumed gradient early
    }
}

} // namespace scnn
