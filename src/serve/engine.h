/**
 * @file
 * Overload-hardened multi-tenant inference serving engine.
 *
 * Pipeline: submit() -> bounded fair AdmissionQueue -> DynamicBatcher
 * (batch-size buckets) -> PlanCache (LRU, single-flight HMMS
 * planning) -> MemoryGovernor (peak-memory admission) -> worker
 * execution against the stream simulator's timing model.
 *
 * Robustness behaviours, all accounted (never silent):
 *  - admission control sheds when a tenant's fair share is full and
 *    consults the planner's peak-memory estimate before execution;
 *  - under memory pressure a tenant is degraded down the Split-CNN
 *    ladder (deeper splits -> smaller footprint -> more concurrent
 *    tenants) before anything is rejected, and recovers back up when
 *    pressure subsides;
 *  - every request carries a deadline; expiry cancels it and
 *    accounts DeadlineExceeded whether it was queued, batched, or
 *    finished late;
 *  - transient chaos faults (FaultPlan) trigger bounded retry with
 *    exponential backoff + deterministic jitter;
 *  - a per-plan circuit breaker trips after repeated failures and
 *    routes around the poisoned cache entry (invalidating it);
 *  - a watchdog kills stuck batches with a diagnosable Status.
 *
 * Accounting invariant (checked by the chaos soak):
 *   submitted == completed + shed + deadline_exceeded + failed.
 */
#ifndef SCNN_SERVE_ENGINE_H
#define SCNN_SERVE_ENGINE_H

#include <atomic>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "serve/admission.h"
#include "serve/batcher.h"
#include "serve/circuit_breaker.h"
#include "serve/clock.h"
#include "serve/governor.h"
#include "serve/plan_cache.h"
#include "serve/request.h"
#include "serve/stats.h"
#include "sim/device.h"
#include "sim/faults.h"

namespace scnn {
namespace serve {

/**
 * Total rungs: rung 0 is the unsplit HMMS plan at the profiled
 * offload cap; rungs 1.. are splitDegradationLadder() at full cap.
 */
int servingMaxRungs();

/**
 * Build, verify, and time one serving plan: the default PlanCache
 * builder. Fails with InvalidArgument when @p rung is infeasible
 * for the model geometry (splitRungFeasible; the engine walks past
 * such rungs), Internal when the built plan fails the static
 * verifier.
 */
StatusOr<PlanPtr> buildServingPlan(const TenantProfile &profile,
                                   int64_t batch,
                                   const DeviceSpec &spec, int rung);

/** Engine configuration. */
struct EngineOptions
{
    DeviceSpec device;
    /** Wall seconds per virtual second (see serve/clock.h). */
    double time_scale = 0.01;
    /** Batch-execution worker threads. */
    int workers = 2;

    BatcherOptions batcher;

    /** Walk the degradation ladder under memory pressure. */
    bool enable_degradation = true;
    /**
     * Virtual seconds a deepest-rung batch waits for device memory
     * (backpressure) before its requests are shed.
     */
    double memory_reserve_timeout = 0.05;

    double retry_backoff = 0.005; ///< virtual seconds, first retry
    double watchdog_interval = 0.02; ///< virtual seconds

    /** Chaos schedule; default-constructed = no injected faults. */
    FaultPlan faults;
    uint64_t seed = 1;
};

class ServingEngine
{
  public:
    ServingEngine(std::vector<TenantProfile> tenants,
                  EngineOptions options);
    ~ServingEngine();

    ServingEngine(const ServingEngine &) = delete;
    ServingEngine &operator=(const ServingEngine &) = delete;

    /**
     * Validate configuration, warm each tenant's admission estimate
     * (walking the ladder for the shallowest rung that fits the
     * device at batch 1), and spawn the pipeline threads.
     */
    Status start();

    /**
     * Submit one request; its relative deadline defaults to the
     * tenant's profile. Returns the request id. The request WILL
     * reach a terminal outcome (possibly Shed synchronously).
     */
    uint64_t submit(int tenant);
    uint64_t submit(int tenant, double relative_deadline);

    /**
     * Install the terminal-outcome callback, invoked once per request
     * (latency in virtual seconds, meaningful for Completed) from
     * engine threads; it must not re-enter the engine destructor.
     * Must be called before start() (the load generator needs the
     * engine to exist before it can capture it).
     */
    void setOnComplete(
        std::function<void(const Request &, Outcome, double)> cb);

    /**
     * Stop accepting work, serve out everything queued or in
     * flight, and join all threads. Idempotent. After drain() the
     * accounting identity holds exactly.
     */
    void drain();

    const VirtualClock &clock() const { return clock_; }
    ServeStats &stats() { return stats_; }
    StatsSnapshot snapshot() const { return stats_.snapshot(); }
    const std::vector<TenantProfile> &tenants() const
    {
        return tenants_;
    }
    /** Tenant's current degradation rung (0 = undergraded). */
    int tenantRung(int tenant) const;
    bool tenantServable(int tenant) const;
    PlanCache &planCache() { return *cache_; }
    MemoryGovernor &governor() { return *governor_; }

  private:
    struct TenantState
    {
        std::atomic<int> rung{0};
        std::atomic<int> clean_batches{0};
        std::atomic<bool> unservable{false};
    };

    /** One executing batch, visible to the watchdog. */
    struct Flight
    {
        uint64_t batch_id = 0;
        int tenant = -1;
        std::atomic<double> attempt_started{0.0};
        std::atomic<double> expected{0.0};
        std::atomic<bool> cancel{false};
    };

    PlanKey makeKey(int tenant, int64_t bucket, int rung) const;
    void finish(const Request &request, Outcome outcome,
                double latency = 0.0);
    void finishAll(const std::vector<Request> &requests,
                   Outcome outcome);
    void executeBatch(Batch &&batch);

    void batcherLoop();
    void workerLoop();
    void watchdogLoop();

    void pushBatch(Batch &&batch)
        SCNN_NO_THREAD_SAFETY_ANALYSIS; // bq_cv_ wait loop
    std::optional<Batch> popBatch()
        SCNN_NO_THREAD_SAFETY_ANALYSIS; // bq_cv_ wait loop
    void closeBatchQueue();

    std::vector<TenantProfile> tenants_;
    EngineOptions options_;
    std::function<void(const Request &, Outcome, double)> on_complete_;
    VirtualClock clock_;
    ServeStats stats_;
    uint64_t spec_digest_ = 0;

    std::unique_ptr<AdmissionQueue> queue_;
    std::unique_ptr<DynamicBatcher> batcher_;
    std::unique_ptr<PlanCache> cache_;
    std::unique_ptr<BreakerRegistry> breakers_;
    std::unique_ptr<MemoryGovernor> governor_;
    std::vector<std::unique_ptr<TenantState>> tenant_state_;

    std::atomic<uint64_t> next_request_id_{1};
    std::atomic<uint64_t> fault_index_{0};

    // Batcher -> workers handoff (bounded; push blocks when full).
    Mutex bq_mu_;
    CondVar bq_cv_;
    std::deque<Batch> bq_ SCNN_GUARDED_BY(bq_mu_);
    bool bq_closed_ SCNN_GUARDED_BY(bq_mu_) = false;

    Mutex flights_mu_;
    std::vector<std::shared_ptr<Flight>> flights_
        SCNN_GUARDED_BY(flights_mu_);

    std::atomic<bool> watchdog_stop_{false};
    std::thread batcher_thread_;
    std::vector<std::thread> worker_threads_;
    std::thread watchdog_thread_;
    bool started_ = false;
    bool drained_ = false;
};

} // namespace serve
} // namespace scnn

#endif // SCNN_SERVE_ENGINE_H
