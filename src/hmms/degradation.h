/**
 * @file
 * Graceful-degradation fallback chain: when a memory plan no longer
 * fits the (possibly degraded) device capacity, escalate through the
 * knob space the paper gives us instead of dying:
 *
 *   1. the caller's own configuration, as-is;
 *   2. raise the offload cap (profiled theoretical limit, then 1.0)
 *      under the HMMS scheduler;
 *   3. fall back to the LayerWise scheduler at full cap — its eager
 *      per-layer synchronization frees device copies sooner, buying
 *      a smaller footprint at a throughput cost;
 *   4. apply Split-CNN at progressively deeper/finer geometry
 *      (splitDegradationLadder()), replanning each rung with HMMS at
 *      full cap; rungs splitRungFeasible() rejects are skipped, not
 *      attempted.
 *
 * The ladder is finite, so the chain always terminates: either some
 * rung fits and a complete re-plan is returned, or every rung is
 * recorded in the DegradationReport and ResourceExhausted comes
 * back.
 */
#ifndef SCNN_HMMS_DEGRADATION_H
#define SCNN_HMMS_DEGRADATION_H

#include <string>
#include <vector>

#include "core/splitter.h"
#include "graph/graph.h"
#include "hmms/planner.h"
#include "hmms/static_planner.h"
#include "hmms/tso.h"
#include "sim/device.h"
#include "util/status.h"

namespace scnn {

/**
 * The Split-CNN rungs of the chain, shallowest first: depth 0.5 2x2
 * -> 1.0 2x2 -> 1.0 3x3 -> 1.0 4x4. The serving engine degrades
 * tenants down the same ladder (serve/engine.h).
 */
const std::vector<SplitOptions> &splitDegradationLadder();

/**
 * Whether @p sopt can split @p graph: a cut point must exist at
 * sopt.depth, and the join tensor's spatial extent must be at least
 * the grid, or some patch would be empty.
 *
 * @returns Ok, or InvalidArgument naming the check that failed.
 */
Status splitRungFeasible(const Graph &graph, const SplitOptions &sopt);

/** One rung of the chain and whether its plan fit. */
struct DegradationAttempt
{
    std::string action; ///< "initial", "raise offload cap", ...
    PlannerKind kind = PlannerKind::Hmms;
    double offload_cap = 0.0;
    bool split = false;
    SplitOptions split_options;
    int64_t device_bytes = 0; ///< static-plan peak of this rung
    bool fits = false;
    /**
     * Error findings from the static analyzer (analysis/analyzer.h)
     * over this rung's plan. A fitting rung with lint errors is
     * rejected: degradation never hands back a plan `scnn lint`
     * would fail.
     */
    int lint_errors = 0;
};

/** Everything the chain tried, in order, and how it ended. */
struct DegradationReport
{
    int64_t capacity = 0; ///< capacity the chain planned against
    std::vector<DegradationAttempt> attempts;
    bool success = false;

    std::string toString() const;
};

/** A complete re-plan produced by a successful fallback. */
struct DegradedPlan
{
    Graph graph; ///< possibly split copy of the caller's graph
    StorageAssignment assignment;
    MemoryPlan plan;
    StaticMemoryPlan memory;
    PlannerConfig config; ///< the configuration that finally fit
    bool split_applied = false;
    SplitOptions split; ///< valid when split_applied
};

/**
 * Plan @p base for @p spec starting from @p initial and walking the
 * fallback chain until some rung's static plan fits
 * spec.memory_capacity. Every rung plans with initial.backward.
 *
 * @param report optional; receives every attempt even on failure.
 * @returns the first fitting re-plan, or ResourceExhausted when the
 *          whole ladder is spent.
 */
StatusOr<DegradedPlan>
planWithDegradation(const Graph &base, const DeviceSpec &spec,
                    const PlannerConfig &initial,
                    DegradationReport *report = nullptr);

} // namespace scnn

#endif // SCNN_HMMS_DEGRADATION_H
