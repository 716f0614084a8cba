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
        Tensor &wt = params.value(static_cast<ParamId>(p));
        Tensor &gt = params.grad(static_cast<ParamId>(p));
        Tensor &vt = velocity_[p];
        SCNN_CHECK(gt.shape() == wt.shape() && vt.shape() == wt.shape(),
                   "param " << p << ": value, gradient and velocity "
                                 "shapes differ");
        float *w = wt.data();
        const float *g = gt.data();
        float *v = vt.data();
        const float lr = config_.lr;
        const float mu = config_.momentum;
        const float wd = config_.weight_decay;
        const int64_t n = wt.numel();
        for (int64_t i = 0; i < n; ++i) {
            const float grad = g[i] + wd * w[i];
            v[i] = mu * v[i] + grad;
            w[i] -= lr * v[i];
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
