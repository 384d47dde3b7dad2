/**
 * @file
 * Per-plan circuit breaker.
 *
 * A plan whose executions keep failing (poisoned cache entry,
 * persistently faulty device path) must not keep soaking up retry
 * budget: after kBreakerFailureThreshold consecutive failures the
 * breaker opens and execution routes around the plan (deeper rung or
 * fail fast) for kBreakerOpenDuration virtual seconds. It then
 * half-opens and admits a single probe — success closes it, failure
 * re-opens it.
 */
#ifndef SCNN_SERVE_CIRCUIT_BREAKER_H
#define SCNN_SERVE_CIRCUIT_BREAKER_H

#include <memory>
#include <unordered_map>

#include "serve/plan_cache.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace scnn {
namespace serve {

/** Consecutive failures that trip the breaker. */
constexpr int kBreakerFailureThreshold = 3;
/** Virtual seconds the breaker stays open before half-opening. */
constexpr double kBreakerOpenDuration = 0.5;

enum class BreakerState
{
    Closed,
    Open,
    HalfOpen
};

const char *breakerStateName(BreakerState state);

/** Breaker for one plan key. Thread-safe. */
class CircuitBreaker
{
  public:
    /**
     * May an execution attempt proceed at time @p now? Half-open
     * admits exactly one in-flight probe.
     */
    bool allow(double now);

    void recordSuccess();

    /** @returns true when this failure tripped the breaker open. */
    bool recordFailure(double now);

    BreakerState state(double now) const;

  private:
    mutable Mutex mu_;
    int consecutive_failures_ SCNN_GUARDED_BY(mu_) = 0;
    bool open_ SCNN_GUARDED_BY(mu_) = false;
    bool probe_in_flight_ SCNN_GUARDED_BY(mu_) = false;
    double open_until_ SCNN_GUARDED_BY(mu_) = 0.0;
};

/** Lazily-created breaker per plan key. */
class BreakerRegistry
{
  public:
    CircuitBreaker &of(const PlanKey &key);

  private:
    Mutex mu_;
    std::unordered_map<PlanKey, std::unique_ptr<CircuitBreaker>,
                       PlanKeyHash>
        breakers_ SCNN_GUARDED_BY(mu_);
};

} // namespace serve
} // namespace scnn

#endif // SCNN_SERVE_CIRCUIT_BREAKER_H
