#include "serve/circuit_breaker.h"

namespace scnn {
namespace serve {

const char *
breakerStateName(BreakerState state)
{
    switch (state) {
    case BreakerState::Closed:
        return "closed";
    case BreakerState::Open:
        return "open";
    case BreakerState::HalfOpen:
        return "half-open";
    }
    return "unknown";
}

bool
CircuitBreaker::allow(double now)
{
    MutexLock lock(mu_);
    if (!open_)
        return true;
    if (now < open_until_)
        return false;
    // Half-open: admit one probe at a time; its outcome decides
    // whether the breaker closes or re-opens.
    if (probe_in_flight_)
        return false;
    probe_in_flight_ = true;
    return true;
}

void
CircuitBreaker::recordSuccess()
{
    MutexLock lock(mu_);
    consecutive_failures_ = 0;
    open_ = false;
    probe_in_flight_ = false;
}

bool
CircuitBreaker::recordFailure(double now)
{
    MutexLock lock(mu_);
    probe_in_flight_ = false;
    ++consecutive_failures_;
    const bool tripped =
        !open_ && consecutive_failures_ >= kBreakerFailureThreshold;
    if (tripped || open_) {
        open_ = true;
        open_until_ = now + kBreakerOpenDuration;
    }
    return tripped;
}

BreakerState
CircuitBreaker::state(double now) const
{
    MutexLock lock(mu_);
    if (!open_)
        return BreakerState::Closed;
    return now < open_until_ ? BreakerState::Open
                             : BreakerState::HalfOpen;
}

CircuitBreaker &
BreakerRegistry::of(const PlanKey &key)
{
    MutexLock lock(mu_);
    auto &slot = breakers_[key];
    if (!slot)
        slot = std::make_unique<CircuitBreaker>();
    return *slot;
}

} // namespace serve
} // namespace scnn
