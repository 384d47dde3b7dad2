#include "train/sgd.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace scnn {

Sgd::Sgd(const Graph &graph, SgdConfig config) : config_(config)
{
    trainable_.reserve(graph.params().size());
    velocity_.reserve(graph.params().size());
    for (const auto &info : graph.params()) {
        trainable_.push_back(info.requires_grad);
        velocity_.push_back(Tensor(info.shape));
    }
}

void
Sgd::step(ParamStore &params)
{
    SCNN_CHECK(params.size() == trainable_.size(),
               "optimizer bound to a different parameter table");
    for (size_t p = 0; p < trainable_.size(); ++p) {
        if (!trainable_[p])
            continue;
        Tensor &w = params.value(static_cast<ParamId>(p));
        Tensor &g = params.grad(static_cast<ParamId>(p));
        Tensor &v = velocity_[p];
        const int64_t n = w.numel();
        SCNN_CHECK(g.numel() == n && v.numel() == n,
                   "parameter " << p << " has a mis-sized gradient or "
                                   "velocity");
        float *wp = w.data();
        const float *gp = g.data();
        float *vp = v.data();
        const float wd = config_.weight_decay;
        const float mom = config_.momentum;
        const float lr = config_.lr;
        for (int64_t i = 0; i < n; ++i) {
            const float grad = gp[i] + wd * wp[i];
            vp[i] = mom * vp[i] + grad;
            wp[i] -= lr * vp[i];
        }
    }
}

StepLrSchedule::StepLrSchedule(float base_lr, std::vector<int> milestones,
                               float decay)
    : base_lr_(base_lr), milestones_(std::move(milestones)), decay_(decay)
{
    SCNN_REQUIRE(std::is_sorted(milestones_.begin(), milestones_.end()),
                 "lr milestones must be sorted");
}

float
StepLrSchedule::lrAt(int epoch) const
{
    float lr = base_lr_;
    for (int m : milestones_)
        if (epoch >= m)
            lr *= decay_;
    return lr;
}

} // namespace scnn
