#include "hmms/degradation.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <utility>

#include "analysis/analyzer.h"
#include "analysis/parallel_model.h"
#include "sim/profile.h"
#include "util/logging.h"

namespace scnn {

const std::vector<SplitOptions> &
splitDegradationLadder()
{
    static const std::vector<SplitOptions> ladder = {
        SplitOptions{.depth = 0.5, .splits_h = 2, .splits_w = 2},
        SplitOptions{.depth = 1.0, .splits_h = 2, .splits_w = 2},
        SplitOptions{.depth = 1.0, .splits_h = 3, .splits_w = 3},
        SplitOptions{.depth = 1.0, .splits_h = 4, .splits_w = 4},
    };
    return ladder;
}

Status
splitRungFeasible(const Graph &graph, const SplitOptions &sopt)
{
    const int cut = chooseCutPoint(graph, sopt.depth);
    if (cut < 0)
        return invalidArgument("no split cut point at depth " +
                               std::to_string(sopt.depth));
    const Shape &join =
        graph.tensor(graph.cutPoints()[static_cast<size_t>(cut)].tensor)
            .shape;
    if (join.dim(2) < sopt.splits_h || join.dim(3) < sopt.splits_w)
        return invalidArgument(
            "split grid " + std::to_string(sopt.splits_h) + "x" +
            std::to_string(sopt.splits_w) + " exceeds the join extent " +
            std::to_string(join.dim(2)) + "x" +
            std::to_string(join.dim(3)));
    return Status();
}

std::string
DegradationReport::toString() const
{
    char line[160];
    std::snprintf(line, sizeof(line),
                  "DegradationReport: capacity %.2f GB, %d attempts, "
                  "%s\n",
                  static_cast<double>(capacity) / 1e9,
                  static_cast<int>(attempts.size()),
                  success ? "recovered" : "exhausted");
    std::string out = line;
    for (size_t i = 0; i < attempts.size(); ++i) {
        const DegradationAttempt &a = attempts[i];
        std::string what = a.action;
        if (a.split) {
            char geom[48];
            std::snprintf(geom, sizeof(geom), " (depth %.0f%%, %dx%d)",
                          100.0 * a.split_options.depth,
                          a.split_options.splits_h,
                          a.split_options.splits_w);
            what += geom;
        }
        const char *verdict =
            !a.fits ? "does not fit"
                    : (a.lint_errors > 0 ? "rejected by lint"
                                         : "fits");
        std::snprintf(line, sizeof(line),
                      "  [%d] %-32s %-10s cap %3.0f%%  peak %6.2f GB"
                      "  %s\n",
                      static_cast<int>(i + 1), what.c_str(),
                      plannerKindName(a.kind), 100.0 * a.offload_cap,
                      static_cast<double>(a.device_bytes) / 1e9,
                      verdict);
        out += line;
    }
    return out;
}

StatusOr<DegradedPlan>
planWithDegradation(const Graph &base, const DeviceSpec &spec,
                    const PlannerConfig &initial,
                    DegradationReport *report)
{
    SCNN_RETURN_IF_ERROR(validateDeviceSpec(spec));

    DegradationReport local;
    DegradationReport &rep = report != nullptr ? *report : local;
    rep = DegradationReport{};
    rep.capacity = spec.memory_capacity;

    const BackwardOptions &backward = initial.backward;
    std::optional<DegradedPlan> found;
    auto tryRung = [&](Graph g, PlannerKind kind, double cap,
                       bool is_split, const SplitOptions &sopt,
                       const char *action) -> Status {
        cap = std::clamp(cap, 0.0, 1.0);
        StorageAssignment assignment =
            assignStorage(g, g.topoOrder());
        auto plan_or = planMemory(
            g, spec, {kind, cap, backward}, assignment);
        if (!plan_or.ok())
            return plan_or.status().withContext(
                std::string("degradation rung '") + action + "'");
        MemoryPlan plan = std::move(plan_or).value();
        StaticMemoryPlan mem =
            planStaticMemory(g, assignment, plan, backward);

        DegradationAttempt attempt;
        attempt.action = action;
        attempt.kind = kind;
        attempt.offload_cap = cap;
        attempt.split = is_split;
        attempt.split_options = sopt;
        attempt.device_bytes = mem.totalDeviceBytes();
        attempt.fits = mem.fits(spec.memory_capacity);
        if (attempt.fits && !found) {
            // Never accept a fallback plan the static analyzer
            // rejects — a fitting-but-ill-formed plan is worse than
            // walking one more rung.
            AnalyzerOptions lint_options;
            lint_options.backward = backward;
            const auto diags =
                analyzePlan(g, assignment, plan, mem, lint_options);
            attempt.lint_errors =
                countBySeverity(diags, DiagSeverity::Error);
            if (attempt.lint_errors > 0)
                SCNN_LOG_WARN << "degradation rung '" << action
                              << "' rejected by lint:\n"
                              << renderDiagnosticsText(diags);
            // Suite 6 gate: the rung must also be provably race-free
            // — its wave schedule and, for split rungs, the split
            // decomposition at this rung's grid (SA6xx).
            const auto pdiags = analyzeParallelExecution(
                g, is_split ? sopt.splits_h : 1,
                is_split ? sopt.splits_w : 1);
            const int perrors =
                countBySeverity(pdiags, DiagSeverity::Error);
            if (perrors > 0)
                SCNN_LOG_WARN
                    << "degradation rung '" << action
                    << "' rejected by the parallel-safety lint:\n"
                    << renderDiagnosticsText(pdiags);
            attempt.lint_errors += perrors;
        }
        rep.attempts.push_back(attempt);

        if (attempt.fits && attempt.lint_errors == 0 && !found) {
            DegradedPlan result;
            result.graph = std::move(g);
            result.assignment = std::move(assignment);
            result.plan = std::move(plan);
            result.memory = std::move(mem);
            result.config = {kind, cap, backward};
            result.split_applied = is_split;
            result.split = sopt;
            found = std::move(result);
        }
        return Status();
    };

    // Rung 1: the caller's own configuration.
    SCNN_RETURN_IF_ERROR(tryRung(base, initial.kind,
                                 initial.offload_cap, false, {},
                                 "initial"));

    // Rung 2: raise the offload cap under the HMMS scheduler, to the
    // profiled theoretical limit (<= 1.0), then 1.0.
    if (!found) {
        double prev = -1.0;
        for (double cap :
             {profileForwardPass(base, spec).offloadable_fraction,
              1.0}) {
            if (found)
                break;
            // Skip rungs that cannot offload more than what already
            // failed (and a limit of exactly 1.0 tried twice).
            if (initial.kind == PlannerKind::Hmms &&
                cap <= initial.offload_cap)
                continue;
            if (cap == prev)
                continue;
            prev = cap;
            SCNN_RETURN_IF_ERROR(tryRung(base, PlannerKind::Hmms,
                                         cap, false, {},
                                         "raise offload cap"));
        }
    }

    // Rung 3: LayerWise scheduler — eager per-layer sync frees
    // device copies sooner (smaller footprint, slower iteration).
    if (!found)
        SCNN_RETURN_IF_ERROR(tryRung(base, PlannerKind::LayerWise,
                                     1.0, false, {},
                                     "layer-wise scheduler"));

    // Rung 4: Split-CNN at progressively finer geometry; a rung that
    // cannot split this graph is skipped rather than tripping the
    // splitter's input validation.
    for (const SplitOptions &sopt : splitDegradationLadder()) {
        if (found)
            break;
        if (!splitRungFeasible(base, sopt).ok())
            continue;
        SCNN_RETURN_IF_ERROR(tryRung(splitCnnTransform(base, sopt),
                                     PlannerKind::Hmms, 1.0, true, sopt,
                                     "split-cnn re-split"));
    }

    rep.success = found.has_value();
    if (!found)
        return resourceExhausted(
            "no fallback configuration fits " +
            std::to_string(static_cast<double>(
                               spec.memory_capacity) /
                           1e9) +
            " GB after " + std::to_string(rep.attempts.size()) +
            " attempts");
    return std::move(*found);
}

} // namespace scnn
