#include "serve/batcher.h"

#include <algorithm>

#include "util/logging.h"

namespace scnn {
namespace serve {

int64_t
bucketFor(int64_t n, int64_t max_batch)
{
    SCNN_CHECK(n > 0, "bucket of an empty run");
    int64_t bucket = 1;
    while (bucket < n)
        bucket *= 2;
    return std::min(bucket, std::max<int64_t>(max_batch, 1));
}

DynamicBatcher::DynamicBatcher(
    const VirtualClock &clock, AdmissionQueue &queue,
    const std::vector<TenantProfile> &tenants,
    const BatcherOptions &options)
    : clock_(clock), queue_(queue), tenants_(tenants),
      options_(options)
{
    SCNN_REQUIRE(!tenants_.empty(), "batcher needs >= 1 tenant");
}

std::optional<Batch>
DynamicBatcher::next()
{
    while (true) {
        const double now = clock_.now();
        const auto states = queue_.state();

        // Round-robin scan starting at the fairness cursor: the
        // first ripe tenant wins, and the cursor advances past it so
        // a backlogged tenant cannot monopolize the batch stream.
        const bool draining = queue_.isShutdown();
        for (size_t i = 0; i < states.size(); ++i) {
            const size_t t = (cursor_ + i) % states.size();
            const TenantQueueState &qs = states[t];
            if (qs.pending == 0)
                continue;
            const TenantProfile &profile = tenants_[t];
            const bool full = qs.pending >= profile.max_batch;
            const bool lingered =
                now - qs.oldest_arrival >= options_.max_linger;
            const bool deadline_close =
                qs.oldest_deadline - now <=
                kDeadlineSlack * profile.deadline;
            if (!(full || lingered || deadline_close || draining))
                continue;

            Batch batch;
            batch.requests = queue_.pop(static_cast<int>(t),
                                        profile.max_batch);
            if (batch.requests.empty())
                continue; // lost a race with the expiry sweeper
            batch.id = next_id_++;
            batch.tenant = static_cast<int>(t);
            batch.bucket = bucketFor(
                static_cast<int64_t>(batch.requests.size()),
                profile.max_batch);
            batch.formed_at = now;
            cursor_ = (t + 1) % states.size();
            return batch;
        }

        if (draining && queue_.size() == 0)
            return std::nullopt;

        // Nothing ripe. Sleep until the earliest partial bucket
        // matures (so we neither busy-spin on a pending-but-young
        // queue nor oversleep a linger expiry), or block for new
        // work when everything is empty.
        double soonest = now + options_.max_linger;
        bool any_pending = false;
        for (const TenantQueueState &qs : states) {
            if (qs.pending == 0)
                continue;
            any_pending = true;
            soonest = std::min(soonest,
                               qs.oldest_arrival +
                                   options_.max_linger);
        }
        if (any_pending)
            clock_.sleepFor(std::clamp(soonest - now,
                                       options_.max_linger * 0.05,
                                       options_.max_linger));
        else
            queue_.waitForWork(options_.max_linger);
    }
}

} // namespace serve
} // namespace scnn
