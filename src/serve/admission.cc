#include "serve/admission.h"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/logging.h"

namespace scnn {
namespace serve {

AdmissionQueue::AdmissionQueue(const VirtualClock &clock,
                               const std::vector<int> &weights)
    : clock_(clock), queues_(std::max<size_t>(weights.size(), 1))
{
    const int64_t total_weight = std::max<int64_t>(
        std::accumulate(weights.begin(), weights.end(), int64_t{0}),
        1);
    share_.resize(queues_.size(), 1);
    for (size_t t = 0; t < weights.size(); ++t) {
        SCNN_REQUIRE(weights[t] >= 1,
                     "tenant weight must be >= 1, got " << weights[t]);
        share_[t] = std::max<int64_t>(
            1, kAdmissionCapacity * weights[t] / total_weight);
    }
}

Status
AdmissionQueue::submit(const Request &request)
{
    SCNN_CHECK(request.tenant >= 0 &&
                   static_cast<size_t>(request.tenant) <
                       queues_.size(),
               "tenant index out of range");
    MutexLock lock(mu_);
    if (shutdown_)
        return unavailable("admission queue is shut down");
    auto &q = queues_[static_cast<size_t>(request.tenant)];
    const int64_t share = share_[static_cast<size_t>(request.tenant)];
    if (total_ >= kAdmissionCapacity)
        return resourceExhausted("admission queue full (" +
                                 std::to_string(total_) + " queued)");
    if (static_cast<int64_t>(q.size()) >= share)
        return resourceExhausted(
            "tenant '" + std::to_string(request.tenant) +
            "' is over its fair share (" + std::to_string(q.size()) +
            "/" + std::to_string(share) + " slots)");
    q.push_back(request);
    ++total_;
    work_cv_.notify_one();
    return Status();
}

std::vector<Request>
AdmissionQueue::pop(int tenant, int64_t max_n)
{
    std::vector<Request> out;
    MutexLock lock(mu_);
    auto &q = queues_[static_cast<size_t>(tenant)];
    while (!q.empty() && static_cast<int64_t>(out.size()) < max_n) {
        out.push_back(q.front());
        q.pop_front();
        --total_;
    }
    return out;
}

std::vector<TenantQueueState>
AdmissionQueue::state() const
{
    MutexLock lock(mu_);
    std::vector<TenantQueueState> out(queues_.size());
    for (size_t t = 0; t < queues_.size(); ++t) {
        out[t].pending = static_cast<int64_t>(queues_[t].size());
        if (!queues_[t].empty()) {
            out[t].oldest_arrival = queues_[t].front().arrival;
            out[t].oldest_deadline = queues_[t].front().deadline;
        }
    }
    return out;
}

std::vector<Request>
AdmissionQueue::sweepExpired(double now)
{
    std::vector<Request> expired;
    MutexLock lock(mu_);
    for (auto &q : queues_) {
        for (auto it = q.begin(); it != q.end();) {
            if (it->expiredAt(now)) {
                expired.push_back(*it);
                it = q.erase(it);
                --total_;
            } else {
                ++it;
            }
        }
    }
    return expired;
}

int64_t
AdmissionQueue::size() const
{
    MutexLock lock(mu_);
    return total_;
}

int64_t
AdmissionQueue::shareOf(int tenant) const
{
    return share_[static_cast<size_t>(tenant)];
}

bool
AdmissionQueue::waitForWork(double vtimeout)
{
    std::unique_lock<Mutex> lock(mu_);
    if (total_ > 0 || shutdown_)
        return true;
    const auto wall = std::chrono::duration<double>(
        vtimeout * clock_.timeScale());
    work_cv_.wait_for(lock, wall,
                      [&] { return total_ > 0 || shutdown_; });
    return total_ > 0 || shutdown_;
}

bool
AdmissionQueue::isShutdown() const
{
    MutexLock lock(mu_);
    return shutdown_;
}

void
AdmissionQueue::shutdown()
{
    MutexLock lock(mu_);
    shutdown_ = true;
    work_cv_.notify_all();
}

} // namespace serve
} // namespace scnn
