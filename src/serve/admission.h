/**
 * @file
 * Bounded multi-tenant admission queue with load shedding and
 * per-tenant fair backpressure.
 *
 * Each tenant owns a FIFO sub-queue capped at a weighted share of
 * the total capacity, so one hot tenant saturating its share sheds
 * at once without starving anyone else's slots. The batcher drains
 * sub-queues round-robin; expired requests are swept out by the
 * watchdog and accounted DeadlineExceeded, never silently dropped.
 */
#ifndef SCNN_SERVE_ADMISSION_H
#define SCNN_SERVE_ADMISSION_H

#include <deque>
#include <vector>

#include "serve/clock.h"
#include "serve/request.h"
#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace scnn {
namespace serve {

/** Total queued requests across all tenants. */
constexpr int64_t kAdmissionCapacity = 256;

/** Per-tenant queue occupancy, for the batcher's policy loop. */
struct TenantQueueState
{
    int64_t pending = 0;
    double oldest_arrival = 0.0; ///< valid when pending > 0
    double oldest_deadline = 0.0;
};

class AdmissionQueue
{
  public:
    /**
     * @param weights one entry per tenant; tenant t's share of
     *        kAdmissionCapacity is proportional to weights[t]
     *        (minimum 1 slot each).
     */
    AdmissionQueue(const VirtualClock &clock,
                   const std::vector<int> &weights);

    /**
     * Admit @p request into its tenant's sub-queue.
     *
     * @returns Ok on admission; ResourceExhausted when the tenant's
     *          share (or the whole queue) is full — the caller
     *          accounts the request as Shed; Unavailable after
     *          shutdown().
     */
    Status submit(const Request &request);

    /** Pop up to @p max_n requests of @p tenant, FIFO. */
    std::vector<Request> pop(int tenant, int64_t max_n);

    /** Occupancy snapshot of every tenant sub-queue. */
    std::vector<TenantQueueState> state() const;

    /**
     * Remove every queued request whose deadline expired before
     * @p now and return them for DeadlineExceeded accounting.
     */
    std::vector<Request> sweepExpired(double now);

    /** Total queued requests. */
    int64_t size() const;

    /** Per-tenant share cap, for tests. */
    int64_t shareOf(int tenant) const;

    /**
     * Block until some request is queued, @p vtimeout virtual
     * seconds pass, or shutdown. Returns true when work may be
     * available.
     */
    bool waitForWork(double vtimeout)
        SCNN_NO_THREAD_SAFETY_ANALYSIS; // work_cv_ wait loop

    /** Wake everything and refuse further submissions. */
    void shutdown();

    bool isShutdown() const;

  private:
    const VirtualClock &clock_;
    std::vector<int64_t> share_; ///< per-tenant slot cap

    mutable Mutex mu_;
    CondVar work_cv_; ///< queue became non-empty
    std::vector<std::deque<Request>> queues_ SCNN_GUARDED_BY(mu_);
    int64_t total_ SCNN_GUARDED_BY(mu_) = 0;
    bool shutdown_ SCNN_GUARDED_BY(mu_) = false;
};

} // namespace serve
} // namespace scnn

#endif // SCNN_SERVE_ADMISSION_H
