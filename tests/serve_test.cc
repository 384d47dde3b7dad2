/**
 * @file
 * Serving-engine tests: virtual clock, admission control and fair
 * shares, bucket math, LRU plan cache with single-flight
 * population, circuit breaker state machine, memory governor,
 * deterministic load generation, and end-to-end engine runs — the
 * accounting identity under chaos, deadline cancellation, the
 * watchdog killing hung batches, and the Split-CNN degradation
 * ladder buying concurrent tenants under memory pressure.
 *
 * Engine tests run threaded (batcher + workers + watchdog) and are
 * part of the TSan CI filter (Serve*); keep them free of
 * wall-clock-sensitive assertions — accounting identities and
 * state-machine facts only.
 */
#include "serve/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/loadgen.h"
#include "util/logging.h"
#include "util/status.h"

namespace scnn {
namespace serve {
namespace {

TenantProfile
testTenant(const std::string &name, double deadline)
{
    TenantProfile t;
    t.name = name;
    t.model = "vgg19";
    t.config = {.batch = 1, .image = 32, .width = 0.125};
    t.max_batch = 8;
    t.deadline = deadline;
    return t;
}

/** One-time plan probe shared by every engine test. */
struct Calibration
{
    double batch_time = 0.0;
    int64_t unsplit_bytes = 0;
    int64_t split_bytes = 0;
};

const Calibration &
calibration()
{
    static const Calibration c = [] {
        Calibration out;
        const TenantProfile t = testTenant("probe", 1.0);
        DeviceSpec spec;
        auto p0 = buildServingPlan(t, 8, spec, 0);
        SCNN_CHECK(p0.ok(), p0.status().toString());
        out.batch_time = p0.value()->batch_time;
        out.unsplit_bytes = p0.value()->device_bytes;
        out.split_bytes = out.unsplit_bytes;
        for (int rung = servingMaxRungs() - 1; rung >= 1; --rung) {
            auto pd = buildServingPlan(t, 8, spec, rung);
            if (pd.ok()) {
                out.split_bytes = pd.value()->device_bytes;
                break;
            }
        }
        return out;
    }();
    return c;
}

/** Engine options calibrated like bench_serving (2.5 ms per batch
 *  wall, every knob in batch-time units). */
EngineOptions
testOptions()
{
    const Calibration &c = calibration();
    EngineOptions o;
    o.workers = 2;
    o.time_scale = 2.5e-3 / c.batch_time;
    o.batcher.max_linger = 2.0 * c.batch_time;
    o.memory_reserve_timeout = 8.0 * c.batch_time;
    o.retry_backoff = c.batch_time;
    o.watchdog_interval = 4.0 * c.batch_time;
    return o;
}

double
testDeadline()
{
    return 50.0 * calibration().batch_time;
}

// --- clock ----------------------------------------------------------

TEST(ServeClock, VirtualTimeScalesWall)
{
    VirtualClock fast(0.001); // 1 virtual second = 1 wall ms
    const double t0 = fast.now();
    fast.sleepFor(5.0);
    EXPECT_GE(fast.now() - t0, 5.0);
}

TEST(ServeClock, CancellableSleepReturnsEarly)
{
    VirtualClock clock(1.0);
    std::atomic<bool> cancel{false};
    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        cancel.store(true);
    });
    const auto wall0 = std::chrono::steady_clock::now();
    // A full hour of virtual sleep must abort within ~the cancel
    // latency plus one slice.
    EXPECT_FALSE(clock.sleepFor(3600.0, cancel));
    const auto waited = std::chrono::steady_clock::now() - wall0;
    EXPECT_LT(waited, std::chrono::seconds(30));
    canceller.join();
    std::atomic<bool> never{false};
    EXPECT_TRUE(clock.sleepFor(0.0, never));
}

// --- stats ----------------------------------------------------------

TEST(ServeStats, AccountingLeakDetectsMismatch)
{
    ServeStats stats;
    stats.submitted = 5;
    stats.recordOutcome(0, Outcome::Completed);
    stats.recordOutcome(0, Outcome::Shed);
    stats.recordOutcome(1, Outcome::DeadlineExceeded);
    stats.recordOutcome(1, Outcome::Failed);
    EXPECT_EQ(stats.snapshot().accountingLeak(), 1);
    stats.recordOutcome(0, Outcome::Completed);
    EXPECT_EQ(stats.snapshot().accountingLeak(), 0);
    const auto per_tenant = stats.perTenant();
    ASSERT_GE(per_tenant.size(), 2u);
    EXPECT_EQ(per_tenant[0][static_cast<size_t>(
                  Outcome::Completed)],
              2u);
    EXPECT_EQ(
        per_tenant[1][static_cast<size_t>(Outcome::Failed)], 1u);
}

TEST(ServeStats, PercentilesInterpolate)
{
    std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0};
    EXPECT_DOUBLE_EQ(percentile(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(percentile(sorted, 1.0), 5.0);
    EXPECT_GT(percentile(sorted, 0.99), 4.9);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
}

// --- admission ------------------------------------------------------

TEST(ServeAdmission, ShedsWhenTenantShareIsFull)
{
    VirtualClock clock(0.001);
    AdmissionQueue queue(clock, {1, 1});
    const int64_t share = kAdmissionCapacity / 2;
    EXPECT_EQ(queue.shareOf(0), share);
    EXPECT_EQ(queue.shareOf(1), share);

    Request r;
    r.tenant = 0;
    for (int64_t i = 0; i < share; ++i)
        EXPECT_TRUE(queue.submit(r).ok());
    // Tenant 0's share is exhausted; the queue itself is not.
    const Status over = queue.submit(r);
    EXPECT_EQ(over.code(), StatusCode::ResourceExhausted);
    // Tenant 1 is unaffected by tenant 0's overload.
    r.tenant = 1;
    EXPECT_TRUE(queue.submit(r).ok());
    EXPECT_EQ(queue.size(), share + 1);

    // Popping frees the share again.
    EXPECT_EQ(queue.pop(0, share).size(), static_cast<size_t>(share));
    r.tenant = 0;
    EXPECT_TRUE(queue.submit(r).ok());
}

TEST(ServeAdmission, SweepExpiredCollectsOnlyExpired)
{
    VirtualClock clock(0.001);
    AdmissionQueue queue(clock, {1});
    Request fresh;
    fresh.id = 1;
    fresh.tenant = 0;
    fresh.deadline = 1e9;
    Request stale;
    stale.id = 2;
    stale.tenant = 0;
    stale.deadline = -1.0;
    ASSERT_TRUE(queue.submit(fresh).ok());
    ASSERT_TRUE(queue.submit(stale).ok());
    const auto expired = queue.sweepExpired(clock.now());
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].id, 2u);
    EXPECT_EQ(queue.size(), 1);
}

TEST(ServeAdmission, ShutdownRefusesSubmissions)
{
    VirtualClock clock(0.001);
    AdmissionQueue queue(clock, {1});
    queue.shutdown();
    Request r;
    r.tenant = 0;
    EXPECT_EQ(queue.submit(r).code(), StatusCode::Unavailable);
    EXPECT_TRUE(queue.isShutdown());
}

// --- batcher --------------------------------------------------------

TEST(ServeBatcher, BucketRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(bucketFor(1, 8), 1);
    EXPECT_EQ(bucketFor(2, 8), 2);
    EXPECT_EQ(bucketFor(3, 8), 4);
    EXPECT_EQ(bucketFor(5, 8), 8);
    EXPECT_EQ(bucketFor(8, 8), 8);
    EXPECT_EQ(bucketFor(100, 8), 8);
}

// --- plan cache -----------------------------------------------------

PlanPtr
dummyPlan(int64_t bytes)
{
    auto plan = std::make_shared<CachedPlan>();
    plan->device_bytes = bytes;
    plan->batch_time = 0.001;
    return plan;
}

TEST(ServePlanCache, SingleFlightBuildsOnceUnderStampede)
{
    std::atomic<int> builds{0};
    PlanCache cache(
        [&](const PlanKey &) -> StatusOr<PlanPtr> {
            ++builds;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(30));
            return dummyPlan(1);
        },
        4);
    const PlanKey key{"vgg19", 8, 1, 0};
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int i = 0; i < 8; ++i)
        threads.emplace_back([&] {
            auto got = cache.get(key);
            if (got.ok() && got.value()->device_bytes == 1)
                ++ok;
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(builds.load(), 1);
    EXPECT_EQ(ok.load(), 8);
}

TEST(ServePlanCache, EvictsLeastRecentlyUsed)
{
    std::atomic<int> builds{0};
    PlanCache cache(
        [&](const PlanKey &key) -> StatusOr<PlanPtr> {
            ++builds;
            return dummyPlan(key.batch);
        },
        2);
    const PlanKey a{"m", 1, 0, 0}, b{"m", 2, 0, 0},
        c{"m", 4, 0, 0};
    ASSERT_TRUE(cache.get(a).ok());
    ASSERT_TRUE(cache.get(b).ok());
    ASSERT_TRUE(cache.get(a).ok()); // refresh a; b is now LRU
    ASSERT_TRUE(cache.get(c).ok()); // evicts b
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(builds.load(), 3);
    ASSERT_TRUE(cache.get(b).ok()); // rebuilt
    EXPECT_EQ(builds.load(), 4);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ServePlanCache, CachesDeterministicFailures)
{
    std::atomic<int> builds{0};
    PlanCache cache(
        [&](const PlanKey &) -> StatusOr<PlanPtr> {
            ++builds;
            return invalidArgument("infeasible rung");
        },
        4);
    const PlanKey key{"m", 8, 0, 3};
    EXPECT_EQ(cache.get(key).status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(cache.get(key).status().code(),
              StatusCode::InvalidArgument);
    // Second miss was served from the negative cache.
    EXPECT_EQ(builds.load(), 1);
}

TEST(ServePlanCache, InvalidateForcesReplan)
{
    std::atomic<int> builds{0};
    PlanCache cache(
        [&](const PlanKey &) -> StatusOr<PlanPtr> {
            ++builds;
            return dummyPlan(builds.load());
        },
        4);
    const PlanKey key{"m", 8, 0, 0};
    EXPECT_EQ(cache.get(key).value()->device_bytes, 1);
    EXPECT_EQ(cache.get(key).value()->device_bytes, 1);
    cache.invalidate(key);
    EXPECT_EQ(cache.get(key).value()->device_bytes, 2);
    EXPECT_EQ(builds.load(), 2);
}

// --- circuit breaker ------------------------------------------------

TEST(ServeBreaker, TripsAfterThresholdAndHalfOpens)
{
    static_assert(kBreakerFailureThreshold == 3);
    const double open = kBreakerOpenDuration;
    CircuitBreaker breaker;
    EXPECT_EQ(breaker.state(0.0), BreakerState::Closed);
    EXPECT_FALSE(breaker.recordFailure(0.0));
    EXPECT_FALSE(breaker.recordFailure(0.0));
    EXPECT_TRUE(breaker.recordFailure(0.0)); // third failure trips
    EXPECT_EQ(breaker.state(0.5 * open), BreakerState::Open);
    EXPECT_FALSE(breaker.allow(0.5 * open));

    // After the cooldown: half-open, exactly one probe admitted.
    EXPECT_EQ(breaker.state(1.5 * open), BreakerState::HalfOpen);
    EXPECT_TRUE(breaker.allow(1.5 * open));
    EXPECT_FALSE(breaker.allow(1.6 * open));
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(1.7 * open), BreakerState::Closed);
    EXPECT_TRUE(breaker.allow(1.7 * open));
}

TEST(ServeBreaker, FailedProbeReopens)
{
    const double open = kBreakerOpenDuration;
    CircuitBreaker breaker;
    for (int i = 1; i < kBreakerFailureThreshold; ++i)
        EXPECT_FALSE(breaker.recordFailure(0.0));
    EXPECT_TRUE(breaker.recordFailure(0.0));
    ASSERT_TRUE(breaker.allow(1.5 * open)); // half-open probe
    // A failed probe re-opens (recordFailure reports a *new* trip
    // only from the closed state, so it returns false here).
    EXPECT_FALSE(breaker.recordFailure(1.5 * open));
    EXPECT_EQ(breaker.state(1.6 * open), BreakerState::Open);
    EXPECT_FALSE(breaker.allow(1.6 * open));
    // Successes fully reset the failure streak.
    ASSERT_TRUE(breaker.allow(3.0 * open));
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(3.0 * open), BreakerState::Closed);
}

TEST(ServeBreaker, RegistryKeysBreakersByPlan)
{
    BreakerRegistry registry;
    const PlanKey a{"m", 8, 0, 0}, b{"m", 8, 0, 1};
    EXPECT_EQ(&registry.of(a), &registry.of(a));
    EXPECT_NE(&registry.of(a), &registry.of(b));
}

// --- governor -------------------------------------------------------

TEST(ServeGovernor, TracksReservationsAndPeak)
{
    VirtualClock clock(0.001);
    MemoryGovernor governor(clock, 100);
    EXPECT_TRUE(governor.tryReserve(60));
    EXPECT_FALSE(governor.tryReserve(60)); // would exceed capacity
    EXPECT_TRUE(governor.tryReserve(40));
    EXPECT_EQ(governor.reserved(), 100);
    EXPECT_EQ(governor.peakConcurrent(), 2);
    governor.release(60);
    governor.release(40);
    EXPECT_EQ(governor.reserved(), 0);
    EXPECT_EQ(governor.peakConcurrent(), 2); // high-water mark
    // Bounded wait gives up without space...
    ASSERT_TRUE(governor.tryReserve(100));
    EXPECT_FALSE(governor.reserveFor(1, 0.001));
    // ...and succeeds when space frees under the wait (the long
    // timeout only matters on a badly stalled machine).
    std::thread releaser([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        governor.release(100);
    });
    EXPECT_TRUE(governor.reserveFor(1, 1000.0));
    releaser.join();
    governor.release(1);
}

// --- load generator -------------------------------------------------

TEST(ServeLoadgen, ArrivalsAreDeterministicAndSorted)
{
    LoadGenOptions options;
    options.duration = 1.0;
    options.rate = 100.0;
    options.seed = 7;
    const auto a = generateArrivals(3, options);
    const auto b = generateArrivals(3, options);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].time, b[i].time);
        EXPECT_EQ(a[i].tenant, b[i].tenant);
        EXPECT_GE(a[i].time, 0.0);
        EXPECT_LT(a[i].time, options.duration);
        if (i > 0) {
            EXPECT_GE(a[i].time, a[i - 1].time);
        }
    }
    // Poisson with rate 100 over 1s x 3 tenants: ~300 expected,
    // wildly loose bounds so the test never flakes on seed choice.
    EXPECT_GT(a.size(), 150u);
    EXPECT_LT(a.size(), 600u);

    options.seed = 8;
    const auto c = generateArrivals(3, options);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].time != c[i].time;
    EXPECT_TRUE(differs);
}

TEST(ServeLoadgen, BurstyThinningKeepsASubsetAtHigherPeak)
{
    LoadGenOptions steady;
    steady.duration = 2.0;
    steady.rate = 200.0;
    steady.seed = 21;
    LoadGenOptions bursty = steady;
    bursty.bursty = true;
    bursty.burst_factor = 4.0;
    bursty.burst_period = 0.5;
    const auto s = generateArrivals(1, steady);
    const auto b = generateArrivals(1, bursty);
    // Mean bursty rate is (1 + factor) / 2 x the steady rate.
    EXPECT_GT(b.size(), s.size());
    // On-phase [0, 0.5) must be denser than off-phase [0.5, 1.0).
    auto countIn = [&](const std::vector<Arrival> &v, double lo,
                       double hi) {
        return std::count_if(v.begin(), v.end(),
                             [&](const Arrival &a) {
                                 return a.time >= lo &&
                                        a.time < hi;
                             });
    };
    EXPECT_GT(countIn(b, 0.0, 0.5), countIn(b, 0.5, 1.0));
}

// --- plan builder ---------------------------------------------------

TEST(ServePlanBuilder, RejectsOutOfLadderRungs)
{
    const TenantProfile t = testTenant("t", 1.0);
    DeviceSpec spec;
    EXPECT_EQ(buildServingPlan(t, 8, spec, -1).status().code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(
        buildServingPlan(t, 8, spec, servingMaxRungs())
            .status()
            .code(),
        StatusCode::InvalidArgument);
}

TEST(ServePlanBuilder, DeeperFeasibleRungsShrinkFootprint)
{
    const Calibration &c = calibration();
    EXPECT_GT(c.batch_time, 0.0);
    EXPECT_GT(c.unsplit_bytes, 0);
    // The Split-CNN lever the whole degradation design rests on.
    EXPECT_LT(c.split_bytes, c.unsplit_bytes);
}

// --- engine end-to-end ----------------------------------------------

TEST(ServeEngine, CompletesEverythingUnderLightLoad)
{
    std::vector<TenantProfile> tenants = {
        testTenant("a", testDeadline()),
        testTenant("b", testDeadline())};
    ServingEngine engine(tenants, testOptions());
    ASSERT_TRUE(engine.start().ok());
    const double bt = calibration().batch_time;
    for (int i = 0; i < 24; ++i) {
        engine.submit(i % 2);
        if (i % 6 == 5)
            engine.clock().sleepFor(bt);
    }
    engine.drain();
    const StatsSnapshot s = engine.snapshot();
    EXPECT_EQ(s.accountingLeak(), 0);
    EXPECT_EQ(s.submitted, 24u);
    EXPECT_EQ(s.completed, 24u);
    EXPECT_EQ(s.shed, 0u);
    EXPECT_EQ(s.failed, 0u);
    EXPECT_GT(s.batches, 0u);
    // The cache saw a handful of shapes (warm-up probes plus at
    // most the four pow2 buckets per tenant), not one build per
    // batch.
    EXPECT_LE(s.cache_misses, 12u);
    EXPECT_FALSE(engine.stats().latencies().empty());
}

TEST(ServeEngine, ExpiredDeadlinesAreCancelledAndAccounted)
{
    std::vector<TenantProfile> tenants = {
        testTenant("a", testDeadline())};
    ServingEngine engine(tenants, testOptions());
    ASSERT_TRUE(engine.start().ok());
    // An already-expired deadline: whether the watchdog sweeps it
    // from the queue or the worker drops it at batch formation, it
    // must surface as DeadlineExceeded, never Completed or lost.
    for (int i = 0; i < 8; ++i)
        engine.submit(0, -1.0);
    engine.drain();
    const StatsSnapshot s = engine.snapshot();
    EXPECT_EQ(s.accountingLeak(), 0);
    EXPECT_EQ(s.deadline_exceeded, 8u);
    EXPECT_EQ(s.completed, 0u);
}

TEST(ServeEngine, WatchdogKillsHungBatches)
{
    std::vector<TenantProfile> tenants = {
        testTenant("a", testDeadline())};
    EngineOptions options = testOptions();
    options.faults.serve_hang_rate = 1.0; // every attempt wedges
    ServingEngine engine(tenants, options);
    ASSERT_TRUE(engine.start().ok());
    for (int i = 0; i < 4; ++i)
        engine.submit(0);
    engine.drain();
    const StatsSnapshot s = engine.snapshot();
    EXPECT_EQ(s.accountingLeak(), 0);
    EXPECT_EQ(s.completed, 0u);
    EXPECT_GT(s.watchdog_kills, 0u);
    // A watchdog kill fails the batch at once; only transient
    // failures are retried.
    EXPECT_EQ(s.retries, 0u);
    // Killed batches surface as Failed (or DeadlineExceeded when
    // the deadline fires first) — never as silent losses.
    EXPECT_EQ(s.failed + s.deadline_exceeded, 4u);
}

TEST(ServeEngine, PersistentFailuresExhaustBoundedRetries)
{
    std::vector<TenantProfile> tenants = {
        testTenant("a", testDeadline())};
    EngineOptions options = testOptions();
    options.faults.transfer_failure_rate = 1.0; // every attempt fails
    ServingEngine engine(tenants, options);
    ASSERT_TRUE(engine.start().ok());
    for (int i = 0; i < 4; ++i)
        engine.submit(0);
    engine.drain();
    const StatsSnapshot s = engine.snapshot();
    EXPECT_EQ(s.accountingLeak(), 0);
    EXPECT_EQ(s.completed, 0u);
    // Retries are bounded: the batch fails instead of looping, and
    // its failure streak trips the plan's breaker on the way.
    EXPECT_GT(s.retries, 0u);
    EXPECT_GT(s.breaker_trips, 0u);
    EXPECT_EQ(s.failed + s.shed + s.deadline_exceeded, 4u);
}

TEST(ServeEngine, ChaosRunKeepsAccountingExact)
{
    std::vector<TenantProfile> tenants = {
        testTenant("a", testDeadline()),
        testTenant("b", testDeadline())};
    EngineOptions options = testOptions();
    options.faults.transfer_failure_rate = 0.25;
    options.faults.serve_hang_rate = 0.05;
    options.faults.kernel_jitter = 0.2;
    options.seed = 42;
    ServingEngine engine(tenants, options);
    LoadGenOptions load;
    load.duration = 60.0 * calibration().batch_time;
    load.rate = 0.5 * options.workers * 8.0 /
                (calibration().batch_time * 2.0);
    load.seed = 5;
    LoadGenerator gen(engine, load);
    engine.setOnComplete(
        [&gen](const Request &r, Outcome o, double latency) {
            gen.onComplete(r, o, latency);
        });
    ASSERT_TRUE(engine.start().ok());
    gen.run();
    engine.drain();
    const StatsSnapshot s = engine.snapshot();
    EXPECT_EQ(s.accountingLeak(), 0);
    EXPECT_GT(s.submitted, 0u);
    EXPECT_GT(s.completed, 0u);
    // The fault machinery actually fired under a 25% failure rate.
    EXPECT_GT(s.retries + s.failed + s.watchdog_kills, 0u);
}

TEST(ServeEngine, DegradationServesMoreConcurrentTenants)
{
    const Calibration &c = calibration();
    ASSERT_LT(c.split_bytes, c.unsplit_bytes);
    // Capacity fits ONE unsplit plan plus change, never two: extra
    // concurrency must come from the Split-CNN degradation ladder.
    EngineOptions tight = testOptions();
    tight.device.memory_capacity = std::max(
        static_cast<int64_t>(1.05 * c.unsplit_bytes),
        std::min(static_cast<int64_t>(1.9 * c.unsplit_bytes),
                 c.unsplit_bytes + 3 * c.split_bytes));

    auto runTight = [&](bool degradation) {
        EngineOptions options = tight;
        options.enable_degradation = degradation;
        std::vector<TenantProfile> tenants = {
            testTenant("a", testDeadline()),
            testTenant("b", testDeadline()),
            testTenant("c", testDeadline())};
        ServingEngine engine(tenants, options);
        LoadGenOptions load;
        load.duration = 200.0 * c.batch_time;
        load.closed_loop = true;
        load.concurrency = 6;
        load.refill_interval = c.batch_time;
        LoadGenerator gen(engine, load);
        engine.setOnComplete(
            [&gen](const Request &r, Outcome o, double latency) {
                gen.onComplete(r, o, latency);
            });
        SCNN_CHECK(engine.start().ok(), "engine start failed");
        gen.run();
        engine.drain();
        SCNN_CHECK(engine.snapshot().accountingLeak() == 0,
                   "accounting leak in tight-capacity run");
        return std::make_pair(engine.governor().peakConcurrent(),
                              engine.snapshot());
    };

    const auto [peak_on, snap_on] = runTight(true);
    const auto [peak_off, snap_off] = runTight(false);
    // The acceptance criterion: with the ladder, deeper
    // (smaller-footprint) plans run concurrently where full-size
    // plans would serialize through the governor.
    EXPECT_GT(peak_on, peak_off);
    EXPECT_GT(snap_on.degraded_plans, 0u);
    EXPECT_GT(snap_on.completed, 0u);
    EXPECT_GT(snap_off.completed, 0u);
}

TEST(ServeEngine, UnservableTenantShedsAtSubmit)
{
    std::vector<TenantProfile> tenants = {
        testTenant("a", testDeadline())};
    EngineOptions options = testOptions();
    // Below even the deepest split plan at batch 1: the tenant can
    // never be served and must shed synchronously, not hang.
    options.device.memory_capacity = 1024;
    ServingEngine engine(tenants, options);
    ASSERT_TRUE(engine.start().ok());
    EXPECT_FALSE(engine.tenantServable(0));
    engine.submit(0);
    engine.submit(0);
    engine.drain();
    const StatsSnapshot s = engine.snapshot();
    EXPECT_EQ(s.accountingLeak(), 0);
    EXPECT_EQ(s.shed, 2u);
}

TEST(ServeEngine, DrainIsIdempotentAndDestructorSafe)
{
    std::vector<TenantProfile> tenants = {
        testTenant("a", testDeadline())};
    ServingEngine engine(tenants, testOptions());
    ASSERT_TRUE(engine.start().ok());
    engine.submit(0);
    engine.drain();
    engine.drain(); // second drain is a no-op
    EXPECT_EQ(engine.snapshot().accountingLeak(), 0);
    // Destructor runs drain() again harmlessly on scope exit.
}

} // namespace
} // namespace serve
} // namespace scnn
