/**
 * @file
 * Dynamic batcher: coalesces queued requests into batch-size
 * buckets so the plan cache only ever sees a small set of
 * (model, batch) shapes.
 *
 * Policy per tenant, evaluated round-robin for fairness:
 *  - a full bucket (max_batch pending) flushes immediately;
 *  - a partial bucket flushes once its oldest request has lingered
 *    max_linger, or when that request's deadline is within
 *    kDeadlineSlack of the tenant's relative deadline;
 *  - the popped run is padded up to the next power-of-two bucket
 *    (padding slots are tracked, they waste compute not
 *    correctness).
 */
#ifndef SCNN_SERVE_BATCHER_H
#define SCNN_SERVE_BATCHER_H

#include <cstdint>
#include <optional>
#include <vector>

#include "serve/admission.h"
#include "serve/clock.h"
#include "serve/request.h"

namespace scnn {
namespace serve {

/**
 * Flush a partial bucket when its oldest member's deadline is within
 * this fraction of the tenant's relative deadline.
 */
constexpr double kDeadlineSlack = 0.5;

/** Batching knobs. */
struct BatcherOptions
{
    /** Virtual seconds a partial bucket waits for more requests. */
    double max_linger = 0.01;
};

/** One coalesced unit of execution. */
struct Batch
{
    uint64_t id = 0;
    int tenant = -1;
    int64_t bucket = 0; ///< padded execution batch size (pow2)
    std::vector<Request> requests;
    double formed_at = 0.0;

    int64_t
    paddedSlots() const
    {
        return bucket - static_cast<int64_t>(requests.size());
    }
};

/** Smallest power of two >= n, capped at max_batch. */
int64_t bucketFor(int64_t n, int64_t max_batch);

class DynamicBatcher
{
  public:
    DynamicBatcher(const VirtualClock &clock, AdmissionQueue &queue,
                   const std::vector<TenantProfile> &tenants,
                   const BatcherOptions &options);

    /**
     * Form the next batch, blocking while the queue is empty or no
     * bucket is ripe. Returns nullopt only once the queue has shut
     * down AND drained, so pending requests still become batches
     * during shutdown instead of leaking.
     */
    std::optional<Batch> next();

  private:
    const VirtualClock &clock_;
    AdmissionQueue &queue_;
    std::vector<TenantProfile> tenants_;
    BatcherOptions options_;
    size_t cursor_ = 0; ///< round-robin fairness cursor
    uint64_t next_id_ = 1;
};

} // namespace serve
} // namespace scnn

#endif // SCNN_SERVE_BATCHER_H
