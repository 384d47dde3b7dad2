#include "serve/engine.h"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>

#include "analysis/analyzer.h"
#include "hmms/degradation.h"
#include "models/models.h"
#include "sim/profile.h"
#include "sim/stream_sim.h"
#include "util/logging.h"

namespace scnn {
namespace serve {

namespace {

/** Plans the LRU plan cache holds. */
constexpr size_t kPlanCacheCapacity = 32;
/** Failed execution attempts retried per batch. */
constexpr int kMaxRetries = 3;
/** Retry i (from 1) backs off retry_backoff * kRetryBackoffGrowth^(i-1)
 * virtual seconds, scaled by 1 + kRetryJitter * U(-1, 1) drawn
 * deterministically. */
constexpr double kRetryBackoffGrowth = 2.0;
constexpr double kRetryJitter = 0.5;
/** A degraded tenant steps one rung back up after kRecoverAfter
 * clean batches below kRecoverBelowUtilization device reservation. */
constexpr int kRecoverAfter = 8;
constexpr double kRecoverBelowUtilization = 0.5;
/** The watchdog kills an attempt running longer than
 * kWatchdogGrace * its expected time + watchdog_interval. */
constexpr double kWatchdogGrace = 6.0;

} // namespace

int
servingMaxRungs()
{
    return 1 + static_cast<int>(splitDegradationLadder().size());
}

StatusOr<PlanPtr>
buildServingPlan(const TenantProfile &profile, int64_t batch,
                 const DeviceSpec &spec, int rung)
{
    if (rung < 0 || rung >= servingMaxRungs())
        return invalidArgument("degradation rung " +
                               std::to_string(rung) +
                               " is outside the ladder");
    try {
        ModelConfig cfg = profile.config;
        cfg.batch = batch;
        Graph g = buildModel(profile.model, cfg);

        PlannerConfig pc;
        pc.kind = PlannerKind::Hmms;
        bool split_applied = false;
        SplitOptions sopt;
        if (rung == 0) {
            pc.offload_cap =
                profileForwardPass(g, spec).offloadable_fraction;
        } else {
            sopt = splitDegradationLadder()
                [static_cast<size_t>(rung - 1)];
            SCNN_RETURN_IF_ERROR(splitRungFeasible(g, sopt).withContext(
                "rung " + std::to_string(rung) + " of '" +
                profile.model + "'"));
            g = splitCnnTransform(g, sopt);
            split_applied = true;
            pc.offload_cap = 1.0;
        }

        StorageAssignment assignment =
            assignStorage(g, g.topoOrder());
        auto plan_or = planMemory(g, spec, pc, assignment);
        if (!plan_or.ok())
            return plan_or.status().withContext(
                "serving plan " + profile.model + "/b" +
                std::to_string(batch) + " rung " +
                std::to_string(rung));
        MemoryPlan plan = std::move(plan_or).value();
        StaticMemoryPlan memory =
            planStaticMemory(g, assignment, plan, pc.backward);

        // Never serve a plan `scnn lint` would reject.
        AnalyzerOptions lint_options;
        lint_options.backward = pc.backward;
        const auto diags =
            analyzePlan(g, assignment, plan, memory, lint_options);
        const int errors = countBySeverity(diags, DiagSeverity::Error);
        if (errors > 0)
            return internalError(
                "plan for " + profile.model + "/b" +
                std::to_string(batch) + " rung " +
                std::to_string(rung) + " failed lint with " +
                std::to_string(errors) + " error(s)");

        SCNN_ASSIGN_OR_RETURN(
            SimResult sim,
            simulatePlan(g, spec, plan, assignment, pc.backward));

        auto cached = std::make_shared<CachedPlan>();
        cached->graph = std::move(g);
        cached->assignment = std::move(assignment);
        cached->plan = std::move(plan);
        cached->memory = std::move(memory);
        cached->config = pc;
        cached->split_applied = split_applied;
        cached->split = sopt;
        cached->device_bytes = cached->memory.totalDeviceBytes();
        cached->batch_time = sim.total_time;
        return PlanPtr(std::move(cached));
    } catch (const std::exception &e) {
        return internalError("planning " + profile.model + "/b" +
                             std::to_string(batch) + " rung " +
                             std::to_string(rung) +
                             " threw: " + e.what());
    }
}

ServingEngine::ServingEngine(std::vector<TenantProfile> tenants,
                             EngineOptions options)
    : tenants_(std::move(tenants)), options_(std::move(options)),
      clock_(options_.time_scale)
{
    SCNN_REQUIRE(!tenants_.empty(), "engine needs >= 1 tenant");
    spec_digest_ = deviceSpecDigest(options_.device);

    std::vector<int> weights;
    weights.reserve(tenants_.size());
    for (const TenantProfile &t : tenants_)
        weights.push_back(t.weight);
    queue_ = std::make_unique<AdmissionQueue>(clock_, weights);
    batcher_ = std::make_unique<DynamicBatcher>(
        clock_, *queue_, tenants_, options_.batcher);
    cache_ = std::make_unique<PlanCache>(
        [this](const PlanKey &key) {
            const TenantProfile *profile = nullptr;
            for (const TenantProfile &t : tenants_)
                if (t.model == key.model) {
                    profile = &t;
                    break;
                }
            if (profile == nullptr)
                return StatusOr<PlanPtr>(
                    notFound("no tenant serves model '" +
                             key.model + "'"));
            return buildServingPlan(*profile, key.batch,
                                    options_.device, key.rung);
        },
        kPlanCacheCapacity, &stats_);
    breakers_ = std::make_unique<BreakerRegistry>();
    governor_ = std::make_unique<MemoryGovernor>(
        clock_, options_.device.memory_capacity);
    for (size_t t = 0; t < tenants_.size(); ++t)
        tenant_state_.push_back(std::make_unique<TenantState>());
}

ServingEngine::~ServingEngine() { drain(); }

PlanKey
ServingEngine::makeKey(int tenant, int64_t bucket, int rung) const
{
    return PlanKey{tenants_[static_cast<size_t>(tenant)].model,
                   bucket, spec_digest_, rung};
}

Status
ServingEngine::start()
{
    SCNN_RETURN_IF_ERROR(
        validateDeviceSpec(options_.device)
            .withContext("serving engine device"));
    SCNN_RETURN_IF_ERROR(options_.faults.validate().withContext(
        "serving engine chaos plan"));
    if (options_.workers < 1)
        return invalidArgument("engine needs >= 1 worker");
    SCNN_CHECK(!started_, "start() called twice");

    // Admission warm-up: find each tenant's shallowest rung whose
    // batch-1 plan fits the device at all. A tenant whose deepest
    // rung still exceeds the whole device can never be served and
    // is shed at submit() instead of wasting batcher/planner work.
    const int rung_limit =
        options_.enable_degradation ? servingMaxRungs() : 1;
    for (size_t t = 0; t < tenants_.size(); ++t) {
        bool servable = false;
        for (int rung = 0; rung < rung_limit; ++rung) {
            auto plan =
                cache_->get(makeKey(static_cast<int>(t), 1, rung));
            if (!plan.ok())
                continue; // infeasible rung, walk deeper
            if (plan.value()->device_bytes <=
                options_.device.memory_capacity) {
                tenant_state_[t]->rung.store(rung);
                servable = true;
                break;
            }
        }
        tenant_state_[t]->unservable.store(!servable);
        if (!servable)
            SCNN_LOG_WARN
                << "tenant '" << tenants_[t].name
                << "' cannot fit the device at any rung; its "
                   "requests will be shed";
    }

    batcher_thread_ = std::thread([this] { batcherLoop(); });
    for (int w = 0; w < options_.workers; ++w)
        worker_threads_.emplace_back([this] { workerLoop(); });
    watchdog_thread_ = std::thread([this] { watchdogLoop(); });
    started_ = true;
    return Status();
}

void
ServingEngine::setOnComplete(
    std::function<void(const Request &, Outcome, double)> cb)
{
    SCNN_CHECK(!started_,
               "setOnComplete must run before start()");
    on_complete_ = std::move(cb);
}

uint64_t
ServingEngine::submit(int tenant)
{
    return submit(
        tenant, tenants_[static_cast<size_t>(tenant)].deadline);
}

uint64_t
ServingEngine::submit(int tenant, double relative_deadline)
{
    SCNN_REQUIRE(tenant >= 0 &&
                     static_cast<size_t>(tenant) < tenants_.size(),
                 "tenant index " << tenant << " out of range");
    Request request;
    request.id = next_request_id_++;
    request.tenant = tenant;
    request.arrival = clock_.now();
    request.deadline = request.arrival + relative_deadline;
    ++stats_.submitted;

    if (tenant_state_[static_cast<size_t>(tenant)]
            ->unservable.load()) {
        finish(request, Outcome::Shed);
        return request.id;
    }
    const Status admitted = queue_->submit(request);
    if (!admitted.ok()) {
        finish(request, Outcome::Shed);
        return request.id;
    }
    ++stats_.admitted;
    return request.id;
}

void
ServingEngine::finish(const Request &request, Outcome outcome,
                      double latency)
{
    stats_.recordOutcome(request.tenant, outcome);
    if (outcome == Outcome::Completed)
        stats_.recordLatency(request.tenant, latency);
    if (on_complete_)
        on_complete_(request, outcome, latency);
}

void
ServingEngine::finishAll(const std::vector<Request> &requests,
                         Outcome outcome)
{
    for (const Request &r : requests)
        finish(r, outcome);
}

void
ServingEngine::pushBatch(Batch &&batch)
{
    std::unique_lock<Mutex> lock(bq_mu_);
    // Bounded handoff: the batcher blocks when every worker is busy
    // and the buffer is full, pushing the backlog back into the
    // admission queue where shedding and deadlines handle it.
    const size_t cap =
        static_cast<size_t>(options_.workers) * 2 + 1;
    bq_cv_.wait(lock, [&] {
        return bq_.size() < cap || bq_closed_;
    });
    if (bq_closed_) {
        // Drain already completed; never silently drop the batch.
        lock.unlock();
        finishAll(batch.requests, Outcome::Shed);
        return;
    }
    bq_.push_back(std::move(batch));
    bq_cv_.notify_all();
}

std::optional<Batch>
ServingEngine::popBatch()
{
    std::unique_lock<Mutex> lock(bq_mu_);
    bq_cv_.wait(lock,
                [&] { return !bq_.empty() || bq_closed_; });
    if (bq_.empty())
        return std::nullopt;
    Batch batch = std::move(bq_.front());
    bq_.pop_front();
    bq_cv_.notify_all();
    return batch;
}

void
ServingEngine::closeBatchQueue()
{
    MutexLock lock(bq_mu_);
    bq_closed_ = true;
    bq_cv_.notify_all();
}

void
ServingEngine::batcherLoop()
{
    while (auto batch = batcher_->next())
        pushBatch(std::move(*batch));
}

void
ServingEngine::workerLoop()
{
    while (auto batch = popBatch())
        executeBatch(std::move(*batch));
}

void
ServingEngine::executeBatch(Batch &&batch)
{
    const size_t t = static_cast<size_t>(batch.tenant);
    TenantState &ts = *tenant_state_[t];

    // 1. Cancel members whose deadline already expired in queue.
    std::vector<Request> live;
    live.reserve(batch.requests.size());
    {
        const double now = clock_.now();
        for (const Request &r : batch.requests) {
            if (r.expiredAt(now))
                finish(r, Outcome::DeadlineExceeded);
            else
                live.push_back(r);
        }
    }
    if (live.empty())
        return;
    double oldest_deadline = live.front().deadline;
    for (const Request &r : live)
        oldest_deadline = std::min(oldest_deadline, r.deadline);

    // 2. Acquire a plan and a memory reservation, degrading the
    // tenant down the ladder under pressure before ever shedding.
    const int rung_limit =
        options_.enable_degradation ? servingMaxRungs() : 1;
    int rung = std::min(ts.rung.load(), rung_limit - 1);
    PlanPtr plan;
    PlanKey key;
    Status why = resourceExhausted("no admissible plan");
    bool reserved = false;
    while (rung < rung_limit) {
        key = makeKey(batch.tenant, batch.bucket, rung);
        CircuitBreaker &breaker = breakers_->of(key);
        if (!breaker.allow(clock_.now())) {
            // Route around the poisoned plan: try a deeper rung.
            ++stats_.breaker_rejections;
            why = unavailable("circuit breaker open for " +
                              key.toString());
            ++rung;
            continue;
        }
        auto got = cache_->get(key);
        if (!got.ok()) {
            // Infeasible or unbuildable rung; walk deeper.
            why = got.status();
            ++rung;
            continue;
        }
        plan = got.value();
        if (governor_->tryReserve(plan->device_bytes)) {
            reserved = true;
            break;
        }
        if (rung + 1 < rung_limit) {
            // Memory pressure: degrade to a smaller footprint.
            ++rung;
            continue;
        }
        // Deepest rung: bounded backpressure, then shed.
        const double wait =
            std::min(options_.memory_reserve_timeout,
                     oldest_deadline - clock_.now());
        if (wait > 0.0 &&
            governor_->reserveFor(plan->device_bytes, wait)) {
            reserved = true;
            break;
        }
        why = resourceExhausted(
            "device memory exhausted for " + key.toString() +
            " (" + std::to_string(plan->device_bytes) + " bytes)");
        break;
    }
    if (!reserved) {
        SCNN_LOG_DEBUG << "shedding batch " << batch.id << ": "
                       << why.toString();
        finishAll(live, Outcome::Shed);
        return;
    }
    if (rung > 0)
        ++stats_.degraded_plans;
    // Stickiness: future batches of this tenant start at the rung
    // that worked, instead of re-walking the ladder every time.
    ts.rung.store(rung);

    // 3. Execute with bounded retry + backoff under the watchdog.
    auto flight = std::make_shared<Flight>();
    flight->batch_id = batch.id;
    flight->tenant = batch.tenant;
    {
        MutexLock lock(flights_mu_);
        flights_.push_back(flight);
    }
    auto unregister = [&] {
        MutexLock lock(flights_mu_);
        flights_.erase(
            std::remove(flights_.begin(), flights_.end(), flight),
            flights_.end());
    };
    CircuitBreaker &breaker = breakers_->of(key);
    const FaultPlan &faults = options_.faults;
    int attempts = 0;
    bool executed = false;
    Status failure;
    while (!executed) {
        const uint64_t draw = fault_index_++;
        const double u =
            faultUniform(options_.seed, kFaultStreamServe, draw);
        const bool hang = u < faults.serve_hang_rate;
        const bool fail =
            !hang && u < faults.serve_hang_rate +
                             faults.transfer_failure_rate;
        double service = plan->batch_time;
        if (faults.kernel_jitter > 0.0) {
            const double ju = faultUniform(
                options_.seed, kFaultStreamKernel, draw);
            service *= 1.0 + faults.kernel_jitter * (2.0 * ju - 1.0);
        }
        flight->expected.store(service);
        flight->attempt_started.store(clock_.now());
        const bool ran =
            hang ? clock_.sleepFor(
                       std::numeric_limits<double>::infinity(),
                       flight->cancel)
                 : clock_.sleepFor(service, flight->cancel);
        if (!ran) {
            // Watchdog killed the attempt: diagnosable, accounted.
            failure = internalError(
                "watchdog cancelled stuck batch " +
                std::to_string(batch.id) + " on " +
                key.toString() + " after " +
                std::to_string(attempts) + " retries");
            breaker.recordFailure(clock_.now());
            break;
        }
        if (!fail) {
            executed = true;
            break;
        }
        // Transient device fault: breaker bookkeeping, then bounded
        // retry with exponential backoff + deterministic jitter.
        if (breaker.recordFailure(clock_.now())) {
            ++stats_.breaker_trips;
            cache_->invalidate(key);
        }
        if (attempts >= kMaxRetries) {
            failure = unavailable(
                "batch " + std::to_string(batch.id) + " on " +
                key.toString() + " failed after " +
                std::to_string(attempts + 1) + " attempts");
            break;
        }
        ++attempts;
        ++stats_.retries;
        double backoff = options_.retry_backoff *
                         std::pow(kRetryBackoffGrowth, attempts - 1);
        const double bu = faultUniform(
            options_.seed, kFaultStreamServe, fault_index_++);
        backoff *= 1.0 + kRetryJitter * (2.0 * bu - 1.0);
        flight->expected.store(backoff);
        flight->attempt_started.store(clock_.now());
        if (!clock_.sleepFor(backoff, flight->cancel)) {
            failure = internalError(
                "watchdog cancelled batch " +
                std::to_string(batch.id) + " during retry backoff");
            break;
        }
    }
    unregister();
    governor_->release(plan->device_bytes);

    if (!executed) {
        SCNN_LOG_WARN << "batch " << batch.id
                      << " failed: " << failure.toString();
        finishAll(live, Outcome::Failed);
        return;
    }

    breaker.recordSuccess();
    ++stats_.batches;
    stats_.padded_slots += static_cast<uint64_t>(
        std::max<int64_t>(batch.paddedSlots(), 0));
    const double finished = clock_.now();
    for (const Request &r : live) {
        if (finished > r.deadline) {
            // Completed too late: the response is cancelled, not
            // silently returned stale.
            finish(r, Outcome::DeadlineExceeded);
        } else {
            finish(r, Outcome::Completed, finished - r.arrival);
        }
    }

    // Recovery: after enough clean batches at low memory pressure,
    // step one rung back toward the undergraded plan.
    if (rung > 0 &&
        governor_->utilization() < kRecoverBelowUtilization) {
        if (ts.clean_batches.fetch_add(1) + 1 >= kRecoverAfter) {
            ts.clean_batches.store(0);
            ts.rung.store(rung - 1);
        }
    } else {
        ts.clean_batches.store(0);
    }
}

void
ServingEngine::watchdogLoop()
{
    while (clock_.sleepFor(options_.watchdog_interval,
                           watchdog_stop_)) {
        const double now = clock_.now();
        // Queued requests whose deadline passed: cancel + account.
        for (const Request &r : queue_->sweepExpired(now))
            finish(r, Outcome::DeadlineExceeded);
        // Stuck executions: cancel; the owning worker accounts.
        MutexLock lock(flights_mu_);
        for (const auto &flight : flights_) {
            if (flight->cancel.load())
                continue;
            const double budget =
                kWatchdogGrace * flight->expected.load() +
                options_.watchdog_interval;
            if (now > flight->attempt_started.load() + budget) {
                flight->cancel.store(true);
                ++stats_.watchdog_kills;
                SCNN_LOG_WARN
                    << "watchdog: batch " << flight->batch_id
                    << " of tenant "
                    << tenants_[static_cast<size_t>(flight->tenant)]
                           .name
                    << " exceeded its execution budget; cancelling";
            }
        }
    }
}

int
ServingEngine::tenantRung(int tenant) const
{
    return tenant_state_[static_cast<size_t>(tenant)]->rung.load();
}

bool
ServingEngine::tenantServable(int tenant) const
{
    return !tenant_state_[static_cast<size_t>(tenant)]
                ->unservable.load();
}

void
ServingEngine::drain()
{
    if (!started_ || drained_)
        return;
    drained_ = true;
    // Ordering matters: stop admissions, let the batcher flush the
    // queue into batches, let workers serve every batch, then stop
    // the watchdog (it must stay alive to kill stuck batches that
    // would otherwise wedge the drain).
    queue_->shutdown();
    if (batcher_thread_.joinable())
        batcher_thread_.join();
    closeBatchQueue();
    for (std::thread &w : worker_threads_)
        if (w.joinable())
            w.join();
    watchdog_stop_.store(true);
    if (watchdog_thread_.joinable())
        watchdog_thread_.join();
}

} // namespace serve
} // namespace scnn
