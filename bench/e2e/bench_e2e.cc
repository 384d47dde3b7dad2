/**
 * @file
 * End-to-end train-step and inference benchmark on the CPU executor.
 *
 * One process runs one round of one workload: set-up, warm-up
 * steps, a closed loop of timed steps for --seconds, then an untimed
 * scalar (SIMD-off) verification at seed 1 whose values run_e2e.py
 * checks against reference.json. Each train step mirrors the inner
 * loop of trainModel (train/trainer.cc); an inference step is batch
 * assembly, Executor construction and forward(training=false).
 *
 * With --trace-out, every timed step is followed, off the step clock,
 * by a replay of its forward and backward pass through the public
 * kernel and tensor functions, timed node by node. The replay reads
 * the step's ForwardCache and the parameters the step used, and its
 * dispatch mirrors Executor::computeNode / Executor::backward;
 * --selftest proves that bit for bit. Per-layer metrics are medians
 * over the traced steps; the spans go to a Chrome trace_event file.
 *
 * Usage:
 *   bench_e2e --workload NAME [--seed N] [--seconds S]
 *             [--trace-out FILE] [--selftest]
 *
 * The last line of stdout is one JSON object.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/split_op.h"
#include "core/splitter.h"
#include "data/synthetic.h"
#include "hmms/planner.h"
#include "hmms/static_planner.h"
#include "hmms/tso.h"
#include "kernels/activations.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/linear.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "models/models.h"
#include "sim/cost_model.h"
#include "sim/profile.h"
#include "tensor/tensor_ops.h"
#include "train/executor.h"
#include "train/sgd.h"
#include "train/trainer.h"
#include "util/threadpool.h"

namespace {

using namespace scnn;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;
/** Steps whose node spans go to the trace file (keeps it small). */
constexpr int kTracedStepsInFile = 24;
/** Set-ups per process; each is timed, and only the last session runs
 * the timed window. */
constexpr int kSetups = 3;
/** Untimed steps of the timed session before the window; the first is
 * part of its set-up. A process's first few steps run slow while the
 * allocator settles. */
constexpr int kWarmupSteps = 5;

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** A JSON array of numbers with six decimals. */
std::string
numberList(const std::vector<double> &xs)
{
    std::string s = "[";
    for (size_t i = 0; i < xs.size(); ++i) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%s%.6f", i ? ", " : "", xs[i]);
        s += buf;
    }
    return s + "]";
}

/** One benchmark workload; README.md says why each exists. */
struct Workload
{
    const char *name;
    const char *model;
    double width;
    int64_t batch;
    int threads;
    TrainMode mode;
    SplitOptions split;
    bool train;
};

// Train workloads use the fig04-07 accuracy protocol (bench_util.h:
// width 1/16, batch 32). The inference workload uses the serving
// tenant defaults (serve/request.h: width 1/8, max batch 8) at
// degradation-ladder rung 2 (serve/engine.cc: depth 1.0, 2x2). Every
// workload runs at 1 thread; README.md says why.
const Workload kWorkloads[] = {
    {"train_vgg19_unsplit", "vgg19", 1.0 / 16, 32, 1, TrainMode::Baseline,
     {.depth = 0.0}, true},
    {"train_vgg19_split2x2_d75", "vgg19", 1.0 / 16, 32, 1,
     TrainMode::SplitCnn, {.depth = 0.75, .splits_h = 2, .splits_w = 2},
     true},
    {"train_resnet18_sscnn2x2", "resnet18", 1.0 / 16, 32, 1,
     TrainMode::StochasticSplit,
     {.depth = 0.5, .splits_h = 2, .splits_w = 2, .omega = 0.2}, true},
    {"infer_vgg19_split2x2_b8", "vgg19", 1.0 / 8, 8, 1,
     TrainMode::SplitCnn, {.depth = 1.0, .splits_h = 2, .splits_w = 2},
     false},
};

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

/** A named interval on the wall clock. */
struct Span
{
    const char *name;
    Clock::time_point begin, end;
    double ms() const { return msBetween(begin, end); }
};

/** What one step leaves behind for verification and replay. */
struct StepResult
{
    Clock::time_point begin, end;
    double step_ms = 0.0; ///< end - begin minus the replay snapshot
    std::vector<Span> phases;
    std::unique_ptr<Graph> stochastic; ///< per-step SSCNN graph
    const Graph *graph = nullptr;
    Tensor x;
    std::vector<int64_t> labels;
    ForwardCache cache;
    Tensor logits;
    Tensor grad_logits;
    /** Traced train steps: the store as backward left it, before SGD
     * updated the weights (the values the step's kernels read). */
    std::optional<ParamStore> pre_update;
    float loss = 0.0f;

    double
    phaseMs(const char *name) const
    {
        double ms = 0.0;
        for (const Span &s : phases)
            if (std::strcmp(s.name, name) == 0)
                ms += s.ms();
        return ms;
    }
};

/** Dataset, model, parameters and RNG streams of one workload. */
class Session
{
  public:
    Session(const Workload &w, uint64_t seed);

    /**
     * Run one step. With @p keep, the step's inputs, forward cache
     * and pre-update parameters are retained for replay; otherwise
     * they are released inside the step, as trainModel does.
     */
    StepResult step(bool keep);

    const Workload &w;
    double gen_ms = 0.0, build_ms = 0.0, transform_ms = 0.0;
    std::optional<SyntheticDataset> data;
    Graph base;
    /** The graph every step runs, except SSCNN (a representative
     * draw, as trainModel reports it). */
    Graph graph;
    Rng rng;
    std::optional<ParamStore> params;
    std::optional<Sgd> sgd;
    Rng data_rng, split_rng;

  private:
    std::vector<int> order_;
    size_t cursor_ = 0;
    int test_cursor_ = 0;
};

Session::Session(const Workload &wl, uint64_t seed) : w(wl), rng(seed)
{
    const auto t0 = Clock::now();
    SyntheticSpec spec;
    spec.classes = 10;
    spec.image = 32;
    spec.train_samples = 512;
    spec.test_samples = 256;
    spec.noise = 1.6f;
    spec.seed = seed;
    data.emplace(spec);
    const auto t1 = Clock::now();
    base = buildModel(w.model, {.batch = w.batch,
                                .image = 32,
                                .classes = 10,
                                .width = w.width,
                                .batch_norm = true});
    const auto t2 = Clock::now();
    // Same construction order as trainModel, so seed N draws the same
    // parameters, data order and splits there and here.
    params.emplace(base, rng);
    if (w.train)
        sgd.emplace(base, SgdConfig{.lr = 0.05f,
                                    .momentum = 0.9f,
                                    .weight_decay = 1e-4f});
    const auto t3 = Clock::now();
    if (w.mode == TrainMode::StochasticSplit) {
        Rng probe = rng.fork();
        SplitOptions opt = w.split;
        opt.stochastic = true;
        graph = splitCnnTransform(base, opt, &probe);
    } else {
        graph = splitCnnTransform(base, w.split);
    }
    const auto t4 = Clock::now();
    data_rng = rng.fork();
    split_rng = rng.fork();
    gen_ms = msBetween(t0, t1);
    build_ms = msBetween(t1, t2);
    transform_ms = msBetween(t3, t4);
}

StepResult
Session::step(bool keep)
{
    StepResult r;
    double paused_ms = 0.0;
    auto mark = Clock::now();
    r.begin = mark;
    auto phase = [&](const char *name) {
        const auto now = Clock::now();
        r.phases.push_back({name, mark, now});
        mark = now;
    };

    const int batch = static_cast<int>(w.batch);
    if (w.train) {
        if (order_.empty() ||
            cursor_ + static_cast<size_t>(batch) > order_.size()) {
            order_ = data->shuffledEpoch(data_rng);
            cursor_ = 0;
        }
        const std::vector<int> indices(
            order_.begin() + static_cast<long>(cursor_),
            order_.begin() + static_cast<long>(cursor_) + batch);
        cursor_ += static_cast<size_t>(batch);
        r.x = data->trainBatch(indices, r.labels);
    } else {
        if (test_cursor_ + batch > data->testSize())
            test_cursor_ = 0;
        r.x = data->testBatch(test_cursor_, batch, r.labels);
        test_cursor_ += batch;
    }
    phase("data");

    r.graph = &graph;
    if (w.mode == TrainMode::StochasticSplit) {
        SplitOptions opt = w.split;
        opt.stochastic = true;
        r.stochastic = std::make_unique<Graph>(
            splitCnnTransform(base, opt, &split_rng));
        r.graph = r.stochastic.get();
        phase("transform");
    }

    {
        Executor ex(*r.graph, *params);
        phase("executor.ctor");
        r.logits = ex.forward(r.x, /*training=*/w.train,
                              (w.train || keep) ? &r.cache : nullptr);
        phase("forward");
        if (w.train) {
            Tensor probs;
            r.loss = softmaxXentForward(r.logits, r.labels, probs);
            phase("softmax_xent.fwd");
            params->zeroGrad();
            phase("zero_grad");
            r.grad_logits = softmaxXentBackward(probs, r.labels);
            phase("softmax_xent.bwd");
            ex.backward(r.cache, r.grad_logits);
            phase("backward");
            if (keep) {
                r.pre_update.emplace(*params);
                const auto now = Clock::now();
                paused_ms = msBetween(mark, now);
                mark = now;
            }
            sgd->step(*params);
            phase("sgd");
        }
    }
    if (!keep) {
        // trainModel frees these at the end of each iteration.
        r.cache = ForwardCache();
        r.stochastic.reset();
        r.graph = nullptr;
        r.x = Tensor();
        r.grad_logits = Tensor();
    }
    r.end = Clock::now();
    r.step_ms = msBetween(r.begin, r.end) - paused_ms;
    return r;
}

/** A step fails when its loss or logits are not finite. */
bool
stepFinite(const Workload &w, const StepResult &r)
{
    if (w.train && !std::isfinite(r.loss))
        return false;
    for (int64_t i = 0; i < r.logits.numel(); ++i)
        if (!std::isfinite(r.logits.data()[i]))
            return false;
    return true;
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.bytes())) == 0;
}

/** Layer category of a node, as the per-layer metrics name it. */
const char *
category(OpKind kind)
{
    switch (kind) {
      case OpKind::Conv2d: return "conv2d";
      case OpKind::BatchNorm: return "batchnorm";
      case OpKind::ReLU: return "relu";
      case OpKind::MaxPool2d:
      case OpKind::AvgPool2d:
      case OpKind::GlobalAvgPool: return "pool";
      case OpKind::Linear: return "linear";
      case OpKind::Input:
      case OpKind::Flatten:
      case OpKind::Add:
      case OpKind::Slice:
      case OpKind::Concat: return "tensor";
    }
    return "tensor";
}

/** One replayed node call. */
struct NodeSpan
{
    NodeId node;
    bool backward;
    Clock::time_point begin, end;
};

struct ReplayResult
{
    std::vector<NodeSpan> spans;
    int64_t outputs_checked = 0;
    int64_t grads_checked = 0;
    std::vector<std::string> mismatches;
};

/**
 * Replay step @p r through the kernels, node by node. @p params must
 * hold the weights the step's kernels read (and, for a train step,
 * the gradients its backward accumulated). With @p check, every
 * replayed output and parameter gradient is compared bitwise against
 * the executor's.
 */
ReplayResult
replayStep(const StepResult &r, ParamStore &params, bool training,
           bool check)
{
    const Graph &g = *r.graph;
    const ForwardCache &c = r.cache;
    ReplayResult out;
    const std::vector<NodeId> topo = g.topoOrder();
    auto val = [&](TensorId t) -> const Tensor & {
        return *c.values[static_cast<size_t>(t)];
    };
    auto mismatch = [&](const std::string &what) {
        out.mismatches.push_back(what);
    };

    // Forward: each node reads the executor's cached inputs, so a
    // node's output is compared against the same computation.
    for (NodeId id : topo) {
        const Node &n = g.node(id);
        std::vector<int64_t> argmax;
        BatchNormCache bn;
        const auto t0 = Clock::now();
        Tensor y;
        switch (n.kind) {
          case OpKind::Input:
            y = r.x;
            break;
          case OpKind::Conv2d:
            y = conv2dForwardAuto(
                val(n.inputs[0]), params.value(n.params[0]),
                n.has_bias ? params.value(n.params[1]) : Tensor(), n.win);
            break;
          case OpKind::MaxPool2d:
            y = maxPool2dForward(val(n.inputs[0]), n.win, argmax);
            break;
          case OpKind::AvgPool2d:
            y = avgPool2dForward(val(n.inputs[0]), n.win);
            break;
          case OpKind::GlobalAvgPool:
            y = globalAvgPoolForward(val(n.inputs[0]));
            break;
          case OpKind::BatchNorm:
            // Batch statistics only: the running-stat update the
            // serial executor also applies would mutate the store.
            y = training ? batchNormForwardStats(
                               val(n.inputs[0]), params.value(n.params[0]),
                               params.value(n.params[1]), 1e-5f, bn)
                         : batchNormInference(val(n.inputs[0]),
                                              params.value(n.params[0]),
                                              params.value(n.params[1]),
                                              params.value(n.params[2]),
                                              params.value(n.params[3]),
                                              1e-5f);
            break;
          case OpKind::ReLU:
            y = reluForward(val(n.inputs[0]));
            break;
          case OpKind::Linear:
            y = linearForward(val(n.inputs[0]), params.value(n.params[0]),
                              n.has_bias ? params.value(n.params[1])
                                         : Tensor());
            break;
          case OpKind::Flatten:
            y = val(n.inputs[0]).reshape(g.tensor(n.output).shape);
            break;
          case OpKind::Add:
            y = val(n.inputs[0]);
            for (size_t i = 1; i < n.inputs.size(); ++i)
                axpy(1.0f, val(n.inputs[i]), y);
            break;
          case OpKind::Slice: {
            const Tensor &x = val(n.inputs[0]);
            y = pad2d(x, -n.h_start, n.h_end - x.shape().dim(2),
                      -n.w_start, n.w_end - x.shape().dim(3));
            break;
          }
          case OpKind::Concat: {
            std::vector<Tensor> parts;
            parts.reserve(n.inputs.size());
            for (TensorId t : n.inputs)
                parts.push_back(val(t));
            y = concatDim(parts, n.concat_dim);
            break;
          }
        }
        out.spans.push_back({id, false, t0, Clock::now()});
        if (check) {
            ++out.outputs_checked;
            if (!sameBits(y, val(n.output)))
                mismatch("forward " + n.name);
            if (n.kind == OpKind::MaxPool2d &&
                argmax != c.argmax[static_cast<size_t>(id)])
                mismatch("argmax " + n.name);
        }
    }
    if (!training)
        return out;

    // Backward: the executor's reverse walk, with parameter gradients
    // accumulated into zeroed scratch instead of the store.
    std::vector<std::optional<Tensor>> grads(g.tensors().size());
    grads[static_cast<size_t>(g.outputTensor())] = r.grad_logits;
    std::vector<Tensor> pgrad;
    pgrad.reserve(g.params().size());
    for (const ParamInfo &info : g.params())
        pgrad.emplace_back(info.shape);
    auto pg = [&](ParamId id) -> Tensor & {
        return pgrad[static_cast<size_t>(id)];
    };
    auto accum = [&](TensorId t, Tensor gt) {
        auto &slot = grads[static_cast<size_t>(t)];
        if (slot.has_value())
            axpy(1.0f, gt, *slot);
        else
            slot = std::move(gt);
    };
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const Node &n = g.node(*it);
        if (n.kind == OpKind::Input)
            continue;
        auto &gslot = grads[static_cast<size_t>(n.output)];
        if (!gslot.has_value())
            continue;
        const Tensor &go = *gslot;
        const auto t0 = Clock::now();
        switch (n.kind) {
          case OpKind::Input:
            break;
          case OpKind::Conv2d: {
            Tensor gx;
            Tensor gb_empty;
            Tensor &gb = n.has_bias ? pg(n.params[1]) : gb_empty;
            conv2dBackward(val(n.inputs[0]), params.value(n.params[0]), go,
                           n.win, gx, pg(n.params[0]), gb);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::MaxPool2d:
            accum(n.inputs[0],
                  maxPool2dBackward(g.tensor(n.inputs[0]).shape, go,
                                    c.argmax[static_cast<size_t>(n.id)]));
            break;
          case OpKind::AvgPool2d:
            accum(n.inputs[0], avgPool2dBackward(
                                   g.tensor(n.inputs[0]).shape, go, n.win));
            break;
          case OpKind::GlobalAvgPool:
            accum(n.inputs[0], globalAvgPoolBackward(
                                   g.tensor(n.inputs[0]).shape, go));
            break;
          case OpKind::BatchNorm:
            accum(n.inputs[0],
                  batchNormBackward(go, params.value(n.params[0]),
                                    c.bn[static_cast<size_t>(n.id)],
                                    pg(n.params[0]), pg(n.params[1])));
            break;
          case OpKind::ReLU:
            accum(n.inputs[0], reluBackward(val(n.output), go));
            break;
          case OpKind::Linear: {
            Tensor gx;
            Tensor gb_empty;
            Tensor &gb = n.has_bias ? pg(n.params[1]) : gb_empty;
            linearBackward(val(n.inputs[0]), params.value(n.params[0]), go,
                           gx, pg(n.params[0]), gb);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::Flatten:
            accum(n.inputs[0], go.reshape(g.tensor(n.inputs[0]).shape));
            break;
          case OpKind::Add:
            for (TensorId t : n.inputs)
                accum(t, go);
            break;
          case OpKind::Slice: {
            auto &slot = grads[static_cast<size_t>(n.inputs[0])];
            if (!slot.has_value())
                slot = Tensor(g.tensor(n.inputs[0]).shape);
            addWindow2d(go, n.h_start, n.w_start, *slot);
            break;
          }
          case OpKind::Concat: {
            std::vector<int64_t> starts;
            starts.reserve(n.inputs.size());
            int64_t cursor = 0;
            for (TensorId t : n.inputs) {
                starts.push_back(cursor);
                cursor += g.tensor(t).shape.dim(n.concat_dim);
            }
            auto pieces = splitDim(go, n.concat_dim, starts);
            for (size_t i = 0; i < n.inputs.size(); ++i)
                accum(n.inputs[i], std::move(pieces[i]));
            break;
          }
        }
        gslot.reset();
        out.spans.push_back({n.id, true, t0, Clock::now()});
    }
    if (check) {
        for (size_t i = 0; i < pgrad.size(); ++i) {
            ++out.grads_checked;
            if (!sameBits(pgrad[i],
                          params.grad(static_cast<ParamId>(i))))
                mismatch("grad " + g.params()[i].name);
        }
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t m = v.size() / 2;
    return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/** Ranks with ties averaged (for Spearman's rho). */
std::vector<double>
ranks(const std::vector<double> &v)
{
    std::vector<size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size();) {
        size_t j = i;
        while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]])
            ++j;
        for (size_t k = i; k <= j; ++k)
            r[idx[k]] = 0.5 * static_cast<double>(i + j);
        i = j + 1;
    }
    return r;
}

double
spearman(const std::vector<double> &a, const std::vector<double> &b)
{
    const std::vector<double> ra = ranks(a), rb = ranks(b);
    const double n = static_cast<double>(a.size());
    const double ma = std::accumulate(ra.begin(), ra.end(), 0.0) / n;
    const double mb = std::accumulate(rb.begin(), rb.end(), 0.0) / n;
    double sab = 0, saa = 0, sbb = 0;
    for (size_t i = 0; i < ra.size(); ++i) {
        sab += (ra[i] - ma) * (rb[i] - mb);
        saa += (ra[i] - ma) * (ra[i] - ma);
        sbb += (rb[i] - mb) * (rb[i] - mb);
    }
    return saa > 0 && sbb > 0 ? sab / std::sqrt(saa * sbb) : 0.0;
}

/** Bytes the forward cache holds after forward (values, argmax, BN). */
int64_t
cacheBytes(const ForwardCache &c)
{
    int64_t bytes = 0;
    for (const auto &v : c.values)
        if (v.has_value())
            bytes += v->bytes();
    for (const auto &a : c.argmax)
        bytes += static_cast<int64_t>(a.size() * sizeof(int64_t));
    for (const BatchNormCache &b : c.bn)
        bytes += b.mean.bytes() + b.batch_var.bytes() + b.inv_std.bytes() +
                 b.x_hat.bytes();
    return bytes;
}

/** Per-step layer metrics of a traced step. */
std::map<std::string, double>
stepLayerMetrics(const Workload &w, const StepResult &r,
                 const ReplayResult &rp)
{
    const Graph &g = *r.graph;
    const DeviceSpec spec;
    std::map<std::string, double> m;
    const double step = r.step_ms;
    std::map<std::string, double> fwd, bwd;
    double split_ms = 0.0, conv_fwd_ms = 0.0, conv_bwd_ms = 0.0;
    double conv_fwd_flops = 0.0, conv_bwd_flops = 0.0;
    std::vector<double> predicted, measured;
    for (const NodeSpan &s : rp.spans) {
        const Node &n = g.node(s.node);
        const double ms = msBetween(s.begin, s.end);
        (s.backward ? bwd : fwd)[category(n.kind)] += ms;
        if (n.kind == OpKind::Slice || n.kind == OpKind::Concat)
            split_ms += ms;
        if (n.kind != OpKind::Conv2d)
            continue;
        if (s.backward) {
            conv_bwd_ms += ms;
            conv_bwd_flops += backwardCost(g, n).flops;
        } else {
            conv_fwd_ms += ms;
            conv_fwd_flops += forwardCost(g, n).flops;
            predicted.push_back(forwardTime(g, n, spec));
            measured.push_back(ms);
        }
    }
    double fwd_sum = 0.0, bwd_sum = 0.0;
    for (const auto &[k, v] : fwd)
        fwd_sum += v;
    for (const auto &[k, v] : bwd)
        bwd_sum += v;

    m["data.batch_ms"] = r.phaseMs("data");
    if (w.mode == TrainMode::StochasticSplit)
        m["core.transform_ms"] = r.phaseMs("transform");
    m["executor.ctor_ms"] = r.phaseMs("executor.ctor");
    m["executor.forward_ms"] = r.phaseMs("forward");
    m["executor.fwd_self_ms"] = r.phaseMs("forward") - fwd_sum;
    m["executor.backward_frac"] = r.phaseMs("backward") / step;
    m["executor.bwd_self_frac"] = (r.phaseMs("backward") - bwd_sum) / step;
    m["executor.fwd_cache_mib"] =
        static_cast<double>(cacheBytes(r.cache)) / kMiB;
    m["executor.nodes"] = static_cast<double>(g.nodes().size());
    m["sgd.step_frac"] = r.phaseMs("sgd") / step;
    m["sgd.zero_grad_frac"] = r.phaseMs("zero_grad") / step;
    m["kernels.softmax_xent_frac"] =
        (r.phaseMs("softmax_xent.fwd") + r.phaseMs("softmax_xent.bwd")) /
        step;
    for (const char *k : {"conv2d", "batchnorm", "relu", "pool", "linear"}) {
        m[std::string("kernels.") + k + ".fwd_ms"] = fwd[k];
        m[std::string("kernels.") + k + ".bwd_frac"] = bwd[k] / step;
    }
    m["tensor.fwd_ms"] = fwd["tensor"];
    m["tensor.bwd_frac"] = bwd["tensor"] / step;
    m["tensor.split_frac"] = split_ms / step;
    int64_t split_bytes = 0;
    for (const Node &n : g.nodes())
        if (n.kind == OpKind::Slice || n.kind == OpKind::Concat)
            split_bytes += g.tensor(n.output).shape.numel() *
                           static_cast<int64_t>(sizeof(float)) *
                           (w.train ? 2 : 1);
    m["tensor.split_copy_mib"] = static_cast<double>(split_bytes) / kMiB;
    m["kernels.conv2d.fwd_gflops"] =
        conv_fwd_ms > 0 ? conv_fwd_flops / (conv_fwd_ms * 1e6) : 0.0;
    m["kernels.conv2d.bwd_gflops"] =
        conv_bwd_ms > 0 ? conv_bwd_flops / (conv_bwd_ms * 1e6) : 0.0;
    m["sim.conv_fwd_rank_corr"] = spearman(predicted, measured);
    return m;
}

/** Median time of a 256^3 gemm, as GFLOP/s, at the current threads. */
double
gemmPeakGflops()
{
    const int64_t n = 256;
    std::vector<float> a(n * n), b(n * n), c(n * n);
    Rng rng(42);
    for (float &v : a)
        v = rng.uniform(-1.0f, 1.0f);
    for (float &v : b)
        v = rng.uniform(-1.0f, 1.0f);
    std::vector<double> s;
    for (int rep = 0; rep < 18; ++rep) {
        const auto t0 = Clock::now();
        gemm(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
        if (rep >= 3)
            s.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    return 2.0 * n * n * n / median(s) / 1e9;
}

/** HMMS plan of @p g (cap = profiled offload limit) vs no planning. */
void
hmmsMetrics(const Graph &g, std::map<std::string, double> &m)
{
    const DeviceSpec spec;
    const auto t0 = Clock::now();
    const StorageAssignment assignment = assignStorage(g, g.topoOrder());
    const double cap = profileForwardPass(g, spec).offloadable_fraction;
    const MemoryPlan plan =
        planMemory(g, spec, {PlannerKind::Hmms, cap, {}}, assignment)
            .value();
    const StaticMemoryPlan planned = planStaticMemory(g, assignment, plan);
    const auto t1 = Clock::now();
    const MemoryPlan none =
        planMemory(g, spec, {PlannerKind::None, 0.0, {}}, assignment)
            .value();
    const StaticMemoryPlan unplanned =
        planStaticMemory(g, assignment, none);
    m["hmms.plan_ms"] = msBetween(t0, t1);
    m["hmms.planned_peak_mib"] =
        static_cast<double>(planned.totalDeviceBytes()) / kMiB;
    m["hmms.unplanned_peak_mib"] =
        static_cast<double>(unplanned.totalDeviceBytes()) / kMiB;
}

std::string
hexFloat(float f)
{
    uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    char buf[16];
    std::snprintf(buf, sizeof buf, "%08x", bits);
    return buf;
}

/** FNV-1a over a tensor's bytes: a bitwise checksum of logits. */
std::string
hexHash(const Tensor &t)
{
    uint64_t h = 1469598103934665603ULL;
    const auto *p = reinterpret_cast<const unsigned char *>(t.data());
    for (int64_t i = 0; i < t.bytes(); ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * Two steps at seed 1 on the scalar microkernel: the losses of a
 * train workload, the logits checksums of an inference workload.
 */
std::vector<std::string>
scalarVerification(const Workload &w)
{
    const bool simd = simdEnabled();
    setSimdEnabled(false);
    std::vector<std::string> values;
    {
        Session s(w, 1);
        for (int i = 0; i < 2; ++i) {
            StepResult r = s.step(false);
            values.push_back(w.train ? hexFloat(r.loss)
                                     : hexHash(r.logits));
        }
    }
    setSimdEnabled(simd);
    return values;
}

/** Minimal JSON object writer (keys are plain ASCII). */
class Json
{
  public:
    Json &
    num(const std::string &k, double v)
    {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(v) ? v : 0.0);
        return raw(k, buf);
    }
    Json &str(const std::string &k, const std::string &v)
    {
        return raw(k, quote(v));
    }
    Json &
    raw(const std::string &k, const std::string &v)
    {
        os_ << (first_ ? "" : ", ") << quote(k) << ": " << v;
        first_ = false;
        return *this;
    }
    std::string done() const { return "{" + os_.str() + "}"; }

    static std::string
    quote(const std::string &s)
    {
        std::string q = "\"";
        for (char ch : s) {
            if (ch == '"' || ch == '\\')
                q += '\\';
            q += ch;
        }
        return q + "\"";
    }

  private:
    std::ostringstream os_;
    bool first_ = true;
};

/** Chrome trace_event spans, written once at the end. */
class TraceFile
{
  public:
    explicit TraceFile(Clock::time_point origin) : origin_(origin) {}

    void
    add(const std::string &name, const char *cat, int tid,
        Clock::time_point a, Clock::time_point b,
        const std::string &args = "{}")
    {
        char buf[96];
        std::snprintf(buf, sizeof buf,
                      ", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                      "\"ts\": %.3f, \"dur\": %.3f, \"args\": ",
                      tid, us(a), std::max(0.0, us(b) - us(a)));
        events_.push_back("{\"name\": " + Json::quote(name) +
                          ", \"cat\": " + Json::quote(cat) + buf + args +
                          "}");
    }

    bool
    write(const std::string &path, const std::string &workload) const
    {
        std::ofstream f(path);
        f << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"workload\": "
          << Json::quote(workload) << "}, \"traceEvents\": [\n";
        const char *lanes[] = {"", "step", "replay"};
        for (int tid = 1; tid <= 2; ++tid)
            f << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": "
              << tid << ", \"args\": {\"name\": \"" << lanes[tid]
              << "\"}},\n";
        for (size_t i = 0; i < events_.size(); ++i)
            f << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
        f << "]}\n";
        return static_cast<bool>(f);
    }

  private:
    double
    us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<std::string> events_;
};

void
traceStep(TraceFile &tf, int index, const StepResult &r,
          const ReplayResult &rp)
{
    char args[64];
    std::snprintf(args, sizeof args, "{\"step\": %d, \"step_ms\": %.4f}",
                  index, r.step_ms);
    tf.add("step", "step", 1, r.begin, r.end, args);
    for (const Span &s : r.phases)
        tf.add(s.name, "phase", 1, s.begin, s.end);
    if (index >= kTracedStepsInFile || rp.spans.empty())
        return;
    const Graph &g = *r.graph;
    auto lane = [&](bool backward, const char *name) {
        Clock::time_point a = Clock::time_point::max(), b{};
        for (const NodeSpan &s : rp.spans)
            if (s.backward == backward) {
                a = std::min(a, s.begin);
                b = std::max(b, s.end);
            }
        if (b > a)
            tf.add(name, "phase", 2, a, b);
    };
    lane(false, "replay.forward");
    lane(true, "replay.backward");
    for (const NodeSpan &s : rp.spans) {
        const Node &n = g.node(s.node);
        tf.add(n.name.empty() ? opKindName(n.kind) : n.name,
               opKindName(n.kind), 2, s.begin, s.end,
               "{\"node\": " + std::to_string(n.id) + "}");
    }
}

int
runSelftest(const Workload &w, uint64_t seed)
{
    setSimdEnabled(false);
    Session s(w, seed);
    StepResult r = s.step(true);
    ParamStore &store = w.train ? *r.pre_update : *s.params;
    const ReplayResult rp = replayStep(r, store, w.train, true);
    std::string list = "[";
    for (size_t i = 0; i < rp.mismatches.size() && i < 8; ++i)
        list += (i ? ", " : "") + Json::quote(rp.mismatches[i]);
    list += "]";
    std::printf("%s\n",
                Json()
                    .str("workload", w.name)
                    .str("mode", "selftest")
                    .num("outputs_checked",
                         static_cast<double>(rp.outputs_checked))
                    .num("grads_checked",
                         static_cast<double>(rp.grads_checked))
                    .num("mismatch_count",
                         static_cast<double>(rp.mismatches.size()))
                    .raw("mismatches", list)
                    .done()
                    .c_str());
    return rp.mismatches.empty() ? 0 : 1;
}

int
runTimed(const Workload &w, uint64_t seed, double seconds,
         const std::string &trace_out)
{
    const bool traced = !trace_out.empty();
    const auto origin = Clock::now();
    TraceFile tf(origin);

    // One set-up of about 0.1 s is moved by a single slow stretch of a
    // shared machine, so it runs kSetups times and run_e2e.py reports the
    // median. Each starts from a cleared weight-panel cache, so panel
    // packing counts as set-up. The last session is the one timed.
    std::vector<double> setup_s;
    std::unique_ptr<Session> session;
    int64_t nonfinite = 0;
    for (int k = 0; k < kSetups; ++k) {
        session.reset();
        splitWeightCacheClear();
        const auto setup_begin = Clock::now();
        session = std::make_unique<Session>(w, seed);
        const StepResult r = session->step(false);
        setup_s.push_back(msBetween(setup_begin, Clock::now()) / 1e3);
        nonfinite += stepFinite(w, r) ? 0 : 1;
    }
    Session &s = *session;
    for (int i = 1; i < kWarmupSteps; ++i) {
        const StepResult r = s.step(false);
        nonfinite += stepFinite(w, r) ? 0 : 1;
    }

    std::map<std::string, double> once;
    if (traced) {
        once["data.gen_ms"] = s.gen_ms;
        once["models.build_ms"] = s.build_ms;
        if (w.mode != TrainMode::StochasticSplit)
            once["core.transform_ms"] = s.transform_ms;
        hmmsMetrics(s.graph, once);
        once["kernels.gemm.peak_gflops"] = gemmPeakGflops();
    }

    std::vector<double> step_ms;
    std::map<std::string, std::vector<double>> series;
    const auto window_begin = Clock::now();
    auto window_end = window_begin;
    while (msBetween(window_begin, window_end) < seconds * 1e3) {
        const SplitWeightCacheStats c0 = splitWeightCacheStats();
        const int64_t packs0 = gemmPackACalls();
        StepResult r = s.step(traced);
        const SplitWeightCacheStats c1 = splitWeightCacheStats();
        const int64_t packs1 = gemmPackACalls();
        step_ms.push_back(r.step_ms);
        nonfinite += stepFinite(w, r) ? 0 : 1;
        if (traced) {
            ParamStore &store = w.train ? *r.pre_update : *s.params;
            const ReplayResult rp = replayStep(r, store, w.train, false);
            auto m = stepLayerMetrics(w, r, rp);
            m["core.weight_cache_hits"] =
                static_cast<double>(c1.hits - c0.hits);
            m["core.weight_cache_misses"] =
                static_cast<double>(c1.misses - c0.misses);
            m["core.weight_cache_evictions"] =
                static_cast<double>(c1.evictions - c0.evictions);
            m["kernels.gemm.pack_a_calls"] =
                static_cast<double>(packs1 - packs0);
            for (const auto &[k, v] : m)
                series[k].push_back(v);
            traceStep(tf, static_cast<int>(step_ms.size()) - 1, r, rp);
        }
        window_end = Clock::now();
    }
    const double timed_s = msBetween(window_begin, window_end) / 1e3;
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    const double maxrss_kib = static_cast<double>(ru.ru_maxrss);
    const std::string simd_name = simdKernelName();

    const std::vector<std::string> verify = scalarVerification(w);

    Json out;
    out.str("workload", w.name)
        .str("mode", traced ? "traced" : "timed")
        .num("seed", static_cast<double>(seed))
        .num("threads", w.threads)
        .num("batch", static_cast<double>(w.batch))
        .str("simd", simd_name)
        .raw("setup_s", numberList(setup_s))
        .num("timed_s", timed_s)
        .num("maxrss_kib", maxrss_kib)
        .num("warmup_steps", kSetups - 1 + kWarmupSteps)
        .num("nonfinite", static_cast<double>(nonfinite));
    out.raw("step_ms", numberList(step_ms));
    std::string vlist = "[";
    for (size_t i = 0; i < verify.size(); ++i)
        vlist += (i ? ", " : "") + Json::quote(verify[i]);
    out.raw("verify", vlist + "]");
    if (traced) {
        Json layers;
        for (const auto &[k, v] : series)
            layers.num(k, median(v));
        for (const auto &[k, v] : once)
            layers.num(k, v);
        const double peak = once["kernels.gemm.peak_gflops"];
        layers.num("kernels.conv2d.fwd_peak_frac",
                   peak > 0 ? median(series["kernels.conv2d.fwd_gflops"]) /
                                  peak
                            : 0.0);
        out.raw("layers", layers.done());
        if (!tf.write(trace_out, w.name)) {
            std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
            return 1;
        }
    }
    std::printf("%s\n", out.done().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_e2e --workload NAME [--seed N] "
                 "[--seconds S] [--trace-out FILE] [--selftest]\n"
                 "workloads:");
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, trace_out;
    uint64_t seed = 1;
    double seconds = 6.0;
    bool selftest = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--workload" && has_value)
            workload = argv[++i];
        else if (a == "--seed" && has_value)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has_value)
            seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace-out" && has_value)
            trace_out = argv[++i];
        else if (a == "--selftest")
            selftest = true;
        else
            return usage();
    }
    const Workload *w = findWorkload(workload);
    if (w == nullptr || !(seconds >= 0.0))
        return usage();
    try {
        setGlobalThreads(w->threads);
        return selftest ? runSelftest(*w, seed)
                        : runTimed(*w, seed, seconds, trace_out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_e2e: %s\n", e.what());
        return 1;
    }
}
