#include "analysis/parallel_model.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

#include "kernels/gemm.h"
#include "kernels/winograd.h"
#include "train/executor.h"

namespace scnn {

int64_t
findParallelRegion(const ParallelPlan &plan, const std::string &name)
{
    for (size_t i = 0; i < plan.regions.size(); ++i)
        if (plan.regions[i].name == name)
            return static_cast<int64_t>(i);
    return -1;
}

std::string
parallelItemName(const ParallelPlan &plan, int64_t item)
{
    if (item >= 0 && item < static_cast<int64_t>(plan.items.size()) &&
        !plan.items[static_cast<size_t>(item)].name.empty())
        return plan.items[static_cast<size_t>(item)].name;
    std::ostringstream os;
    os << "item " << item;
    return os.str();
}

namespace {

/** Expanded-interval explosion guard for corrupt spans. Every span a
 * builder emits expands to at most (items x channels) intervals —
 * orders of magnitude below this. */
constexpr int64_t kMaxSpanExpansion = int64_t{1} << 22;

/** Happens-before checks walk a per-offset array; ordered regions
 * are slot-granular (one slot per tensor), far below this. */
constexpr int64_t kMaxOrderedRegionSize = int64_t{1} << 20;

/** Stop repeating one failure mode past this many findings/region. */
constexpr int kMaxFindingsPerRegion = 16;

/** Min/max float offset touched by a span; false for malformed
 * spans (non-positive counts or lengths). Handles negative strides
 * so corrupt plans get bounds diagnostics instead of UB. */
bool
spanBounds(const StridedSpan &sp, int64_t *lo, int64_t *hi)
{
    if (sp.len <= 0 || sp.n1 <= 0 || sp.n2 <= 0)
        return false;
    const int64_t r1 = (sp.n1 - 1) * sp.s1;
    const int64_t r2 = (sp.n2 - 1) * sp.s2;
    *lo = sp.base + std::min<int64_t>(r1, 0) + std::min<int64_t>(r2, 0);
    *hi = sp.base + std::max<int64_t>(r1, 0) + std::max<int64_t>(r2, 0) +
          sp.len;
    return true;
}

/** One expanded contiguous interval of one item's access. */
struct Interval
{
    int64_t lo = 0;
    int64_t hi = 0; ///< exclusive
    int64_t item = -1;
    int64_t epoch = 0;
    int64_t seq = -1;
};

void
expandSpan(const StridedSpan &sp, int64_t item, int64_t epoch,
           int64_t seq, std::vector<Interval> &out)
{
    // Zero-stride repeats expand to the same interval; dedupe them so
    // a degenerate span cannot blow up the interval list.
    const int64_t n1 = sp.s1 == 0 ? 1 : sp.n1;
    const int64_t n2 = sp.s2 == 0 ? 1 : sp.n2;
    for (int64_t i1 = 0; i1 < n1; ++i1)
        for (int64_t i2 = 0; i2 < n2; ++i2) {
            const int64_t base = sp.base + i1 * sp.s1 + i2 * sp.s2;
            out.push_back({base, base + sp.len, item, epoch, seq});
        }
}

/** Per-region interval sets, split by direction. */
struct RegionAccesses
{
    std::vector<Interval> writes;
    std::vector<Interval> reads;
};

bool
byEpochThenLo(const Interval &a, const Interval &b)
{
    if (a.epoch != b.epoch)
        return a.epoch < b.epoch;
    return a.lo < b.lo;
}

/**
 * SA601: within every epoch, sweep reads and writes together; any
 * overlap between *different* items where at least one side writes
 * is a data race.
 */
void
checkSameEpochRaces(const ParallelPlan &plan, int64_t region,
                    RegionAccesses &ra, DiagnosticSink &sink)
{
    const std::string &rname =
        plan.regions[static_cast<size_t>(region)].name;
    struct Tagged
    {
        Interval iv;
        bool write;
    };
    std::vector<Tagged> all;
    all.reserve(ra.writes.size() + ra.reads.size());
    for (const Interval &iv : ra.writes)
        all.push_back({iv, true});
    for (const Interval &iv : ra.reads)
        all.push_back({iv, false});
    std::sort(all.begin(), all.end(),
              [](const Tagged &a, const Tagged &b) {
                  return byEpochThenLo(a.iv, b.iv);
              });

    int findings = 0;
    std::vector<const Tagged *> active;
    for (size_t i = 0; i < all.size(); ++i) {
        if (i > 0 && all[i].iv.epoch != all[i - 1].iv.epoch)
            active.clear();
        const Tagged &cur = all[i];
        // Expire intervals that end at or before the new start.
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](const Tagged *t) {
                                        return t->iv.hi <= cur.iv.lo;
                                    }),
                     active.end());
        for (const Tagged *t : active) {
            if (t->iv.item == cur.iv.item)
                continue;
            if (!t->write && !cur.write)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << rname << "': "
               << (t->write && cur.write ? "write sets of "
                                         : "write/read sets of ")
               << parallelItemName(plan, t->iv.item) << " and "
               << parallelItemName(plan, cur.iv.item) << " overlap at ["
               << std::max(t->iv.lo, cur.iv.lo) << ", "
               << std::min(t->iv.hi, cur.iv.hi) << ") in epoch "
               << cur.iv.epoch;
            DiagLocation loc;
            loc.step = static_cast<int>(cur.iv.item);
            sink.add("SA601", loc, os.str());
        }
        active.push_back(&all[i]);
    }
}

/**
 * SA605 (ordered regions): every offset a read touches in epoch e
 * must have been written in some epoch strictly before e.
 */
void
checkHappensBefore(const ParallelPlan &plan, int64_t region,
                   const RegionAccesses &ra, DiagnosticSink &sink)
{
    const ParallelRegion &r =
        plan.regions[static_cast<size_t>(region)];
    if (r.size <= 0 || r.size > kMaxOrderedRegionSize)
        return; // bounds problems are reported as SA602
    std::vector<int64_t> first_write(static_cast<size_t>(r.size),
                                     INT64_MAX);
    for (const Interval &w : ra.writes)
        for (int64_t off = std::max<int64_t>(w.lo, 0);
             off < std::min(w.hi, r.size); ++off)
            first_write[static_cast<size_t>(off)] =
                std::min(first_write[static_cast<size_t>(off)],
                         w.epoch);
    int findings = 0;
    for (const Interval &rd : ra.reads)
        for (int64_t off = std::max<int64_t>(rd.lo, 0);
             off < std::min(rd.hi, r.size); ++off) {
            if (first_write[static_cast<size_t>(off)] < rd.epoch)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << r.name << "': "
               << parallelItemName(plan, rd.item) << " reads slot " << off
               << " in epoch " << rd.epoch
               << (first_write[static_cast<size_t>(off)] == INT64_MAX
                       ? " but no item ever writes it"
                       : " before any earlier epoch writes it");
            DiagLocation loc;
            loc.step = static_cast<int>(rd.item);
            sink.add("SA605", loc, os.str());
            break; // one finding per read access
        }
}

/**
 * SA606 (serial_stats regions): overlapping writes must come from
 * distinct epochs (never concurrent) and their epoch order must
 * agree with their serial (seq) order — the deferred BN running-stat
 * contract: updates happen one at a time, in topological order.
 */
void
checkSerialStats(const ParallelPlan &plan, int64_t region,
                 RegionAccesses &ra, DiagnosticSink &sink)
{
    const std::string &rname =
        plan.regions[static_cast<size_t>(region)].name;
    std::sort(ra.writes.begin(), ra.writes.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    int findings = 0;
    std::vector<const Interval *> active;
    for (const Interval &cur : ra.writes) {
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](const Interval *t) {
                                        return t->hi <= cur.lo;
                                    }),
                     active.end());
        for (const Interval *t : active) {
            if (t->item == cur.item && t->epoch == cur.epoch)
                continue;
            const bool concurrent = t->epoch == cur.epoch;
            const bool unordered = t->seq < 0 || cur.seq < 0;
            const bool misordered =
                !unordered && (t->epoch < cur.epoch) != (t->seq < cur.seq);
            if (!concurrent && !unordered && !misordered)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << rname << "': stat updates of "
               << parallelItemName(plan, t->item) << " and "
               << parallelItemName(plan, cur.item) << " overlap at ["
               << std::max(t->lo, cur.lo) << ", "
               << std::min(t->hi, cur.hi) << ") ";
            if (concurrent)
                os << "in the same epoch " << cur.epoch
                   << " (running-stat updates must be serialized)";
            else if (unordered)
                os << "without a serial order (seq unset)";
            else
                os << "with epoch order disagreeing with serial "
                      "order (seq "
                   << t->seq << " vs " << cur.seq << ")";
            DiagLocation loc;
            loc.step = static_cast<int>(cur.item);
            sink.add("SA606", loc, os.str());
        }
        active.push_back(&cur);
    }
}

/**
 * SA609 (ordered_accum regions): the backward halo-accumulation
 * contract. Scatter-adds into a shared gradient region may overlap
 * (halo rows, shared weight-gradient accumulators), but every
 * overlapping pair must come from distinct epochs — one worker's
 * serial program order — and that epoch order must agree with the
 * serial (seq) order, or the accumulation is either a race or
 * nondeterministically grouped.
 */
void
checkOrderedAccum(const ParallelPlan &plan, int64_t region,
                  RegionAccesses &ra, DiagnosticSink &sink)
{
    const std::string &rname =
        plan.regions[static_cast<size_t>(region)].name;
    std::sort(ra.writes.begin(), ra.writes.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    int findings = 0;
    std::vector<const Interval *> active;
    for (const Interval &cur : ra.writes) {
        active.erase(std::remove_if(active.begin(), active.end(),
                                    [&](const Interval *t) {
                                        return t->hi <= cur.lo;
                                    }),
                     active.end());
        for (const Interval *t : active) {
            if (t->item == cur.item && t->epoch == cur.epoch)
                continue;
            const bool concurrent = t->epoch == cur.epoch;
            const bool unordered = t->seq < 0 || cur.seq < 0;
            const bool misordered =
                !unordered && (t->epoch < cur.epoch) != (t->seq < cur.seq);
            if (!concurrent && !unordered && !misordered)
                continue;
            if (findings++ >= kMaxFindingsPerRegion)
                return;
            std::ostringstream os;
            os << "region '" << rname << "': halo accumulations of "
               << parallelItemName(plan, t->item) << " and "
               << parallelItemName(plan, cur.item) << " overlap at ["
               << std::max(t->lo, cur.lo) << ", "
               << std::min(t->hi, cur.hi) << ") ";
            if (concurrent)
                os << "in the same epoch " << cur.epoch
                   << " (overlapping scatter-adds must be "
                      "serialized)";
            else if (unordered)
                os << "without a serial order (seq unset)";
            else
                os << "with epoch order disagreeing with serial "
                      "order (seq "
                   << t->seq << " vs " << cur.seq << ")";
            DiagLocation loc;
            loc.step = static_cast<int>(cur.item);
            sink.add("SA609", loc, os.str());
        }
        active.push_back(&cur);
    }
}

/** SA608 (exact_cover regions): the write-set union tiles [0, size). */
void
checkCoverage(const ParallelPlan &plan, int64_t region,
              RegionAccesses &ra, DiagnosticSink &sink)
{
    const ParallelRegion &r =
        plan.regions[static_cast<size_t>(region)];
    std::sort(ra.writes.begin(), ra.writes.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    int findings = 0;
    int64_t covered = 0;
    auto gap = [&](int64_t lo, int64_t hi) {
        if (findings++ >= kMaxFindingsPerRegion)
            return;
        std::ostringstream os;
        os << "region '" << r.name << "': no work item writes ["
           << lo << ", " << hi << ") — the decomposition leaves a "
           << (hi - lo) << "-float gap";
        sink.add("SA608", DiagLocation{}, os.str());
    };
    for (const Interval &w : ra.writes) {
        if (w.lo > covered)
            gap(covered, w.lo);
        covered = std::max(covered, w.hi);
    }
    if (covered < r.size)
        gap(covered, r.size);
}

} // namespace

std::vector<Diagnostic>
analyzeParallelPlan(const ParallelPlan &plan)
{
    DiagnosticSink sink;
    const int64_t n_regions =
        static_cast<int64_t>(plan.regions.size());
    std::vector<RegionAccesses> per_region(
        static_cast<size_t>(n_regions));

    for (size_t i = 0; i < plan.items.size(); ++i) {
        const ParallelItem &item = plan.items[i];
        const int64_t item_idx = static_cast<int64_t>(i);
        for (const ParallelAccess &a : item.accesses) {
            DiagLocation loc;
            loc.step = static_cast<int>(item_idx);
            if (a.region < 0 || a.region >= n_regions) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx)
                   << " references region " << a.region
                   << " of " << n_regions;
                sink.add("SA602", loc, os.str());
                continue;
            }
            const ParallelRegion &r =
                plan.regions[static_cast<size_t>(a.region)];
            int64_t lo = 0;
            int64_t hi = 0;
            if (!spanBounds(a.span, &lo, &hi) ||
                a.span.count() > kMaxSpanExpansion) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx)
                   << " has a malformed access span in region '"
                   << r.name << "' (counts/length non-positive or "
                   << "expansion too large)";
                sink.add("SA602", loc, os.str());
                continue;
            }
            if (lo < 0 || hi > r.size) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx) << " accesses ["
                   << lo << ", " << hi << ") outside region '"
                   << r.name << "' of size " << r.size;
                sink.add("SA602", loc, os.str());
                continue;
            }
            if (a.write && r.read_only) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx)
                   << " writes [" << lo << ", " << hi
                   << ") of read-only region '" << r.name << "'";
                sink.add("SA603", loc, os.str());
                continue;
            }
            if (r.owner >= 0 && r.owner != item_idx) {
                std::ostringstream os;
                os << parallelItemName(plan, item_idx) << " accesses region '"
                   << r.name << "' owned by "
                   << parallelItemName(plan, r.owner);
                sink.add("SA604", loc, os.str());
                continue;
            }
            if (r.read_only)
                continue; // reads of read-only regions always race-free
            auto &ra = per_region[static_cast<size_t>(a.region)];
            expandSpan(a.span, item_idx, item.epoch, item.seq,
                       a.write ? ra.writes : ra.reads);
        }
    }

    for (int64_t rg = 0; rg < n_regions; ++rg) {
        const ParallelRegion &r =
            plan.regions[static_cast<size_t>(rg)];
        if (r.read_only)
            continue;
        auto &ra = per_region[static_cast<size_t>(rg)];
        if (r.serial_stats)
            checkSerialStats(plan, rg, ra, sink);
        else if (r.ordered_accum)
            checkOrderedAccum(plan, rg, ra, sink);
        else
            checkSameEpochRaces(plan, rg, ra, sink);
        if (r.ordered)
            checkHappensBefore(plan, rg, ra, sink);
        if (r.exact_cover)
            checkCoverage(plan, rg, ra, sink);
    }
    return sink.take();
}

// ---------------------------------------------------------------------------
// Builders: one per parallel surface. Each derives its decomposition
// from the helper the kernel itself uses, so the model and the code
// cannot drift apart silently.
// ---------------------------------------------------------------------------

namespace {

/** Display name of the images [n0, n1): "img3" or "img0-7". */
std::string
imagesName(int64_t n0, int64_t n1)
{
    std::ostringstream os;
    os << "img" << n0;
    if (n1 - n0 > 1)
        os << "-" << n1 - 1;
    return os.str();
}

/** The contiguous hull of patch (ph, pw)'s input rectangle in image
 * @p in, channel 0's first float through channel c-1's last — the
 * span the shadow recorder logs, provably inside the image. */
StridedSpan
patchInputHull(int64_t in, int64_t c, int64_t ih, int64_t iw,
               const SplitPiece1d &ph, const SplitPiece1d &pw)
{
    const int64_t first = ph.in_start * iw + pw.in_start;
    const int64_t last = (c - 1) * ih * iw +
                         (ph.in_start + ph.inLen() - 1) * iw +
                         pw.in_start + pw.inLen();
    return StridedSpan::interval(in * c * ih * iw + first, last - first);
}

/** Add a region owned by the next item (its scratch-arena scope) and
 * give that item a write and a read of all of it. */
void
addOwnedArena(ParallelPlan &plan, ParallelItem &item, int64_t floats)
{
    const int64_t owner = static_cast<int64_t>(plan.items.size());
    ParallelRegion arena;
    arena.name = "arena:" + std::to_string(owner);
    arena.size = floats;
    arena.owner = owner;
    plan.regions.push_back(arena);
    ParallelAccess warena;
    warena.region = static_cast<int>(plan.regions.size()) - 1;
    warena.write = true;
    warena.span = StridedSpan::interval(0, floats);
    item.accesses.push_back(warena);
    ParallelAccess rarena = warena;
    rarena.write = false;
    item.accesses.push_back(rarena);
}

} // namespace

ParallelPlan
buildSplitConvPlan(int64_t n, int64_t c, int64_t ih, int64_t iw,
                   int64_t oc, const Window2d &win,
                   const SplitScheme2d &scheme, bool winograd)
{
    ParallelPlan plan;
    plan.name = "split_conv";
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const int64_t ospatial = out_h * out_w;
    const int64_t krows = c * win.kh * win.kw;

    ParallelRegion out_region;
    out_region.name = "output";
    out_region.size = n * oc * ospatial;
    out_region.exact_cover = true;
    plan.regions.push_back(out_region);

    ParallelRegion in_region;
    in_region.name = "input";
    in_region.size = n * c * ih * iw;
    in_region.read_only = true;
    plan.regions.push_back(in_region);

    // The packed weights: im2col A panels or the 16 Winograd U
    // matrices, shared read-only by every item.
    const int64_t panel_floats = winograd ? winogradPackedUSize(oc, c)
                                          : gemmPackedASize(oc, krows);
    ParallelRegion w_region;
    w_region.name = "weight_panels";
    w_region.size = panel_floats;
    w_region.read_only = true;
    plan.regions.push_back(w_region);

    const std::vector<SplitBandItem> bands =
        splitConvBandItems(scheme.h);
    const int64_t image_cols = splitConvImageCols(scheme, winograd);
    const std::vector<SplitImageGroup> groups =
        splitConvImageGroups(n, image_cols);
    const int64_t group_size = groups.empty() ? 1 : groups[0].n1;
    const int64_t max_item_cols = group_size * image_cols;
    // A worker's staging: the V and M tile matrices (Winograd), or the
    // column matrix, its packed B and — for groups — the C block.
    const int64_t arena_floats =
        winograd ? 16 * (c + oc) * max_item_cols
                 : krows * max_item_cols +
                       gemmPackedBSize(krows, max_item_cols) +
                       (group_size > 1 ? oc * max_item_cols : 0);

    for (const SplitImageGroup &grp : groups)
        for (const SplitBandItem &band : bands) {
            const SplitPiece1d &ph =
                scheme.h.pieces[static_cast<size_t>(band.hi)];
            ParallelItem item;
            item.name = imagesName(grp.n0, grp.n1) + ":band" +
                        std::to_string(band.hi) + "." +
                        std::to_string(band.oy0);
            item.epoch = 0; // one parallelFor = one barrier group

            // The item writes parent output rows
            // [out_start + oy0, out_start + oy1) of every channel of
            // every image in the group, full width (all width patches
            // of the band). Image stride = oc channel strides, so the
            // group's channels form one run at the channel stride.
            ParallelAccess wout;
            wout.region = 0;
            wout.write = true;
            wout.span = {grp.n0 * oc * ospatial +
                             (ph.out_start + band.oy0) * out_w,
                         (grp.n1 - grp.n0) * oc, ospatial, 1, 0,
                         (band.oy1 - band.oy0) * out_w};
            item.accesses.push_back(wout);

            // Halo reads: each width patch's input rectangle in every
            // image of the group.
            for (int64_t in = grp.n0; in < grp.n1; ++in)
                for (const SplitPiece1d &pw : scheme.w.pieces) {
                    ParallelAccess rin;
                    rin.region = 1;
                    rin.span = patchInputHull(in, c, ih, iw, ph, pw);
                    item.accesses.push_back(rin);
                }

            ParallelAccess rw_panels;
            rw_panels.region = 2;
            rw_panels.span = StridedSpan::interval(0, panel_floats);
            item.accesses.push_back(rw_panels);

            // Staging lives in the item's own arena region.
            addOwnedArena(plan, item, arena_floats);
            plan.items.push_back(std::move(item));
        }
    return plan;
}

ParallelPlan
buildSplitPoolPlan(int64_t n, int64_t c, int64_t ih, int64_t iw,
                   const Window2d &win, const SplitScheme2d &scheme)
{
    (void)win;
    ParallelPlan plan;
    plan.name = "split_pool";
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;

    ParallelRegion out_region;
    out_region.name = "output";
    out_region.size = n * c * out_h * out_w;
    out_region.exact_cover = true;
    plan.regions.push_back(out_region);

    ParallelRegion in_region;
    in_region.name = "input";
    in_region.size = n * c * ih * iw;
    in_region.read_only = true;
    plan.regions.push_back(in_region);

    const int hp = scheme.h.parts();
    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(hp) * wp;
    for (int64_t i = 0; i < n * parts; ++i) {
        const int64_t in = i / parts;
        const int hi = static_cast<int>((i % parts) / wp);
        const int wi = static_cast<int>(i % wp);
        const SplitPiece1d &ph =
            scheme.h.pieces[static_cast<size_t>(hi)];
        const SplitPiece1d &pw =
            scheme.w.pieces[static_cast<size_t>(wi)];

        ParallelItem item;
        {
            std::ostringstream os;
            os << "img" << in << ":patch" << hi << "." << wi;
            item.name = os.str();
        }
        item.epoch = 0;

        // The patch writes its output block in every channel: rows
        // [out_start_h, out_end_h), columns [out_start_w, out_end_w).
        ParallelAccess wout;
        wout.region = 0;
        wout.write = true;
        wout.span = {in * c * out_h * out_w + ph.out_start * out_w +
                         pw.out_start,
                     c, out_h * out_w, ph.outLen(), out_w,
                     pw.outLen()};
        item.accesses.push_back(wout);

        ParallelAccess rin;
        rin.region = 1;
        const int64_t first = ph.in_start * iw + pw.in_start;
        const int64_t last = (c - 1) * ih * iw +
                             (ph.in_start + ph.inLen() - 1) * iw +
                             pw.in_start + pw.inLen();
        rin.span =
            StridedSpan::interval(in * c * ih * iw + first,
                                  last - first);
        item.accesses.push_back(rin);

        plan.items.push_back(std::move(item));
    }
    return plan;
}

ParallelPlan
buildSplitConvBackwardPlan(int64_t n, int64_t c, int64_t ih,
                           int64_t iw, int64_t oc, const Window2d &win,
                           const SplitScheme2d &scheme)
{
    ParallelPlan plan;
    plan.name = "split_conv_backward";
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const int64_t ospatial = out_h * out_w;
    const int64_t krows = c * win.kh * win.kw;
    // The dgrad operand: W^T packed A panels (krows x oc), packed once
    // per call and shared read-only.
    const int64_t panel_floats = gemmPackedASize(krows, oc);

    ParallelRegion gx_region;
    gx_region.name = "grad_x";
    gx_region.size = n * c * ih * iw;
    gx_region.ordered_accum = true; // halo scatter-adds overlap
    plan.regions.push_back(gx_region);

    ParallelRegion go_region;
    go_region.name = "grad_out";
    go_region.size = n * oc * ospatial;
    go_region.read_only = true;
    plan.regions.push_back(go_region);

    ParallelRegion in_region;
    in_region.name = "input";
    in_region.size = n * c * ih * iw;
    in_region.read_only = true;
    plan.regions.push_back(in_region);

    ParallelRegion w_region;
    w_region.name = "weight_panels";
    w_region.size = panel_floats;
    w_region.read_only = true;
    plan.regions.push_back(w_region);

    ParallelRegion gw_region;
    gw_region.name = "grad_w";
    gw_region.size = oc * krows;
    gw_region.ordered_accum = true; // reductions chain in image order
    plan.regions.push_back(gw_region);

    ParallelRegion gb_region;
    gb_region.name = "grad_b";
    gb_region.size = oc;
    gb_region.ordered_accum = true;
    plan.regions.push_back(gb_region);

    // Per-image partial accumulator: the wgrad panel product chains
    // across the image's bands (beta = 1), and the bias row sums land
    // in the tail — both under the worker's serial band order.
    const int64_t acc_floats = krows * oc + oc;
    for (int64_t in = 0; in < n; ++in) {
        ParallelRegion acc;
        acc.name = "wgrad_acc:img" + std::to_string(in);
        acc.size = acc_floats;
        acc.ordered_accum = true;
        plan.regions.push_back(acc);
    }
    const int64_t acc_region0 = 6;

    const std::vector<SplitBandItem> bands =
        splitConvBandItems(scheme.h);
    const int64_t n_bands = static_cast<int64_t>(bands.size());
    const int64_t image_cols = splitConvImageCols(scheme, false);

    // wgrad band items. A worker owns a whole image and runs its bands
    // serially ascending; epoch encodes that per-image program order
    // (overlapping wgrad_acc writes are intra-image only, so
    // cross-image same-epoch pairs never constrain). Staging: the
    // band's columns and its two packs.
    const int64_t wgrad_arena =
        krows * image_cols + gemmPackedASize(krows, image_cols) +
        gemmPackedBSize(image_cols, oc);
    for (int64_t in = 0; in < n; ++in)
        for (int64_t bi = 0; bi < n_bands; ++bi) {
            const SplitBandItem &band = bands[static_cast<size_t>(bi)];
            const SplitPiece1d &ph =
                scheme.h.pieces[static_cast<size_t>(band.hi)];
            ParallelItem item;
            item.name = imagesName(in, in + 1) + ":wgrad" +
                        std::to_string(band.hi) + "." +
                        std::to_string(band.oy0);
            item.epoch = bi;
            item.seq = static_cast<int64_t>(plan.items.size());

            // Column staging reads the same input hulls the forward
            // band reads.
            for (const SplitPiece1d &pw : scheme.w.pieces) {
                ParallelAccess rin;
                rin.region = 2;
                rin.span = patchInputHull(in, c, ih, iw, ph, pw);
                item.accesses.push_back(rin);
            }

            // The band's grad_out rows of every output channel at the
            // parent channel stride.
            ParallelAccess rgo;
            rgo.region = 1;
            rgo.span = {in * oc * ospatial +
                            (ph.out_start + band.oy0) * out_w,
                        oc, ospatial, 1, 0,
                        (band.oy1 - band.oy0) * out_w};
            item.accesses.push_back(rgo);

            // The band chains the image's wgrad partial (beta = 1).
            ParallelAccess wacc;
            wacc.region = static_cast<int>(acc_region0 + in);
            wacc.write = true;
            wacc.span = StridedSpan::interval(0, krows * oc);
            item.accesses.push_back(wacc);
            ParallelAccess racc = wacc;
            racc.write = false;
            item.accesses.push_back(racc);

            addOwnedArena(plan, item, wgrad_arena);
            plan.items.push_back(std::move(item));
        }

    // Per-image bias item: row sums over the whole grad_out image
    // into the partial accumulator's tail, after the image's bands.
    for (int64_t in = 0; in < n; ++in) {
        ParallelItem item;
        item.name = imagesName(in, in + 1) + ":bias";
        item.epoch = n_bands;
        item.seq = n * n_bands + in;

        ParallelAccess rgo;
        rgo.region = 1;
        rgo.span = StridedSpan::interval(in * oc * ospatial,
                                         oc * ospatial);
        item.accesses.push_back(rgo);

        ParallelAccess wacc;
        wacc.region = static_cast<int>(acc_region0 + in);
        wacc.write = true;
        wacc.span = StridedSpan::interval(krows * oc, oc);
        item.accesses.push_back(wacc);

        plan.items.push_back(std::move(item));
    }

    // Per-image reduction: serial on the caller in image order after
    // each wave — folds the partial into the shared grad_w / grad_b.
    for (int64_t in = 0; in < n; ++in) {
        ParallelItem item;
        item.name = imagesName(in, in + 1) + ":reduce";
        item.epoch = n_bands + 1 + in;
        item.seq = n * n_bands + n + in;

        ParallelAccess racc;
        racc.region = static_cast<int>(acc_region0 + in);
        racc.span = StridedSpan::interval(0, acc_floats);
        item.accesses.push_back(racc);

        ParallelAccess wgw;
        wgw.region = 4;
        wgw.write = true;
        wgw.span = StridedSpan::interval(0, oc * krows);
        item.accesses.push_back(wgw);
        ParallelAccess rgw = wgw;
        rgw.write = false;
        item.accesses.push_back(rgw);

        ParallelAccess wgb;
        wgb.region = 5;
        wgb.write = true;
        wgb.span = StridedSpan::interval(0, oc);
        item.accesses.push_back(wgb);
        ParallelAccess rgb = wgb;
        rgb.write = false;
        item.accesses.push_back(rgb);

        plan.items.push_back(std::move(item));
    }

    // dgrad band items, after the wgrad phase's barrier. A worker owns
    // an image group and runs its bands serially ascending, which
    // epoch/seq encode (overlapping grad_x scatters are intra-image,
    // hence intra-group). Staging: the gradient columns, the packed
    // grad_out rows and — for groups — their side-by-side copy.
    const std::vector<SplitImageGroup> groups =
        splitConvImageGroups(n, image_cols);
    const int64_t group_size = groups.empty() ? 1 : groups[0].n1;
    const int64_t max_item_cols = group_size * image_cols;
    const int64_t dgrad_arena =
        krows * max_item_cols + gemmPackedBSize(oc, max_item_cols) +
        (group_size > 1 ? oc * max_item_cols : 0);
    const int64_t dgrad_epoch0 = n_bands + 1 + n;
    for (const SplitImageGroup &grp : groups)
        for (int64_t bi = 0; bi < n_bands; ++bi) {
            const SplitBandItem &band = bands[static_cast<size_t>(bi)];
            const SplitPiece1d &ph =
                scheme.h.pieces[static_cast<size_t>(band.hi)];
            ParallelItem item;
            item.name = imagesName(grp.n0, grp.n1) + ":dgrad" +
                        std::to_string(band.hi) + "." +
                        std::to_string(band.oy0);
            item.epoch = dgrad_epoch0 + bi;
            item.seq = static_cast<int64_t>(plan.items.size());

            // dgrad scatter: the band-restricted write hull
            // col2imViewStrided claims — patch rows [iy_lo, iy_hi)
            // reachable from output rows [oy0, oy1), channel 0's
            // first float through channel c-1's last — of every width
            // patch of every image in the group.
            for (int64_t in = grp.n0; in < grp.n1; ++in)
                for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                    const SplitPiece1d &pw =
                        scheme.w.pieces[static_cast<size_t>(wi)];
                    const Window2d local =
                        patchWindow(win, scheme, band.hi, wi);
                    const int64_t iy_lo = std::max<int64_t>(
                        0, band.oy0 * local.sh - local.ph_b);
                    const int64_t iy_hi = std::min<int64_t>(
                        ph.inLen(), (band.oy1 - 1) * local.sh -
                                        local.ph_b + local.kh);
                    if (iy_lo >= iy_hi)
                        continue;
                    ParallelAccess wgx;
                    wgx.region = 0;
                    wgx.write = true;
                    wgx.span = StridedSpan::interval(
                        in * c * ih * iw + (ph.in_start + iy_lo) * iw +
                            pw.in_start,
                        (c - 1) * ih * iw + (iy_hi - 1 - iy_lo) * iw +
                            pw.inLen());
                    item.accesses.push_back(wgx);
                }

            // The group's grad_out band rows: image stride = oc
            // channel strides, so one run at the channel stride.
            ParallelAccess rgo;
            rgo.region = 1;
            rgo.span = {grp.n0 * oc * ospatial +
                            (ph.out_start + band.oy0) * out_w,
                        (grp.n1 - grp.n0) * oc, ospatial, 1, 0,
                        (band.oy1 - band.oy0) * out_w};
            item.accesses.push_back(rgo);

            ParallelAccess rw_panels;
            rw_panels.region = 3;
            rw_panels.span = StridedSpan::interval(0, panel_floats);
            item.accesses.push_back(rw_panels);

            addOwnedArena(plan, item, dgrad_arena);
            plan.items.push_back(std::move(item));
        }
    return plan;
}

ParallelPlan
buildSplitPoolBackwardPlan(int64_t n, int64_t c, int64_t ih,
                           int64_t iw, const Window2d &win,
                           const SplitScheme2d &scheme)
{
    (void)win;
    ParallelPlan plan;
    plan.name = "split_pool_backward";
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;

    ParallelRegion gx_region;
    gx_region.name = "grad_x";
    gx_region.size = n * c * ih * iw;
    gx_region.ordered_accum = true; // halo scatter-adds overlap
    plan.regions.push_back(gx_region);

    ParallelRegion go_region;
    go_region.name = "grad_out";
    go_region.size = n * c * out_h * out_w;
    go_region.read_only = true;
    plan.regions.push_back(go_region);

    const int hp = scheme.h.parts();
    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(hp) * wp;
    for (int64_t i = 0; i < n * parts; ++i) {
        const int64_t in = i / parts;
        const int hi = static_cast<int>((i % parts) / wp);
        const int wi = static_cast<int>(i % wp);
        const SplitPiece1d &ph =
            scheme.h.pieces[static_cast<size_t>(hi)];
        const SplitPiece1d &pw =
            scheme.w.pieces[static_cast<size_t>(wi)];

        ParallelItem item;
        {
            std::ostringstream os;
            os << "img" << in << ":patch" << hi << "." << wi;
            item.name = os.str();
        }
        // A worker owns the image; its patches run serially
        // ascending, which epoch/seq encode for the overlap check.
        item.epoch = i % parts;
        item.seq = i;

        // Every tap (max: the forward argmax; avg: the clipped
        // window) of an output in the patch's block lies inside the
        // patch's input rectangle — the scheme's in-range covers its
        // outputs' windows by construction (Eqs. 1-2). Modeled as the
        // conservative contiguous hull, like the forward reads.
        ParallelAccess wgx;
        wgx.region = 0;
        wgx.write = true;
        const int64_t first = ph.in_start * iw + pw.in_start;
        const int64_t last = (c - 1) * ih * iw +
                             (ph.in_start + ph.inLen() - 1) * iw +
                             pw.in_start + pw.inLen();
        wgx.span = StridedSpan::interval(in * c * ih * iw + first,
                                         last - first);
        item.accesses.push_back(wgx);

        ParallelAccess rgo;
        rgo.region = 1;
        rgo.span = {in * c * out_h * out_w + ph.out_start * out_w +
                        pw.out_start,
                    c, out_h * out_w, ph.outLen(), out_w,
                    pw.outLen()};
        item.accesses.push_back(rgo);

        plan.items.push_back(std::move(item));
    }
    return plan;
}

ParallelPlan
buildExecutorWavePlan(const Graph &graph, bool training)
{
    ParallelPlan plan;
    plan.name = "executor_waves";

    // Slot-granular model: one float per tensor / parameter. The
    // executor's unit of sharing is the whole tensor (cache slots are
    // disjoint allocations), so slot granularity is exact.
    ParallelRegion slots;
    slots.name = "slots";
    slots.size = static_cast<int64_t>(graph.tensors().size());
    slots.ordered = true;
    slots.exact_cover = true;
    plan.regions.push_back(slots);

    ParallelRegion params;
    params.name = "params";
    params.size = static_cast<int64_t>(graph.params().size());
    params.serial_stats = true;
    plan.regions.push_back(params);

    const auto waves = computeExecutionWaves(graph);
    for (size_t w = 0; w < waves.size(); ++w) {
        for (NodeId id : waves[w]) {
            const Node &n = graph.node(id);
            ParallelItem item;
            item.name = n.name.empty()
                            ? "node " + std::to_string(id)
                            : n.name;
            item.epoch = static_cast<int64_t>(w);

            ParallelAccess wout;
            wout.region = 0;
            wout.write = true;
            wout.span = StridedSpan::interval(n.output, 1);
            item.accesses.push_back(wout);
            for (TensorId t : n.inputs) {
                ParallelAccess rin;
                rin.region = 0;
                rin.span = StridedSpan::interval(t, 1);
                item.accesses.push_back(rin);
            }
            // Parameter reads. Training-mode BN computes batch stats
            // and never touches the running stats (params[2..3]) in
            // its wave — those are written by the deferred updates
            // below. Inference-mode BN reads them like any other
            // parameter.
            const size_t n_params =
                training && n.kind == OpKind::BatchNorm
                    ? std::min<size_t>(n.params.size(), 2)
                    : n.params.size();
            for (size_t p = 0; p < n_params; ++p) {
                ParallelAccess rp;
                rp.region = 1;
                rp.span = StridedSpan::interval(n.params[p], 1);
                item.accesses.push_back(rp);
            }
            plan.items.push_back(std::move(item));
        }
    }

    if (training) {
        // Deferred BN running-stat updates: the executor applies them
        // one at a time in topological order after every wave has
        // completed. Each update is its own epoch (serialized) with
        // seq = its topological position; patch clones sharing one
        // running-stat parameter therefore write it in a fixed
        // serial order — the bitwise-determinism contract SA606
        // enforces. The narrow-wave serial fallback leaves this
        // phase untouched.
        int64_t serial_epoch = static_cast<int64_t>(waves.size());
        int64_t seq = 0;
        for (NodeId id : graph.topoOrder()) {
            const Node &n = graph.node(id);
            if (n.kind != OpKind::BatchNorm || n.params.size() < 4)
                continue;
            ParallelItem item;
            item.name = (n.name.empty()
                             ? "node " + std::to_string(id)
                             : n.name) +
                        ":bn_update";
            item.epoch = serial_epoch++;
            item.seq = seq++;
            for (size_t p = 2; p < 4; ++p) {
                ParallelAccess wp;
                wp.region = 1;
                wp.write = true;
                wp.span = StridedSpan::interval(n.params[p], 1);
                item.accesses.push_back(wp);
                ParallelAccess rp = wp;
                rp.write = false;
                item.accesses.push_back(rp);
            }
            plan.items.push_back(std::move(item));
        }
    }
    return plan;
}

std::vector<Diagnostic>
analyzeParallelExecution(const Graph &graph, int splits_h,
                         int splits_w)
{
    std::vector<Diagnostic> diags;
    auto append = [&](std::vector<Diagnostic> part, NodeId node) {
        for (Diagnostic &d : part) {
            if (d.loc.node < 0)
                d.loc.node = node;
            diags.push_back(std::move(d));
        }
    };

    append(analyzeParallelPlan(buildExecutorWavePlan(graph, true)),
           -1);

    for (const Node &n : graph.nodes()) {
        if (n.kind != OpKind::Conv2d && n.kind != OpKind::MaxPool2d &&
            n.kind != OpKind::AvgPool2d)
            continue;
        if (n.inputs.empty())
            continue;
        const Shape &ishape = graph.tensor(n.inputs[0]).shape;
        const Shape &oshape = graph.tensor(n.output).shape;
        if (ishape.rank() != 4 || oshape.rank() != 4)
            continue;
        const int64_t batch = ishape.dim(0);
        const int64_t c = ishape.dim(1);
        const int64_t ih = ishape.dim(2);
        const int64_t iw = ishape.dim(3);
        const int64_t oh = oshape.dim(2);
        const int64_t ow = oshape.dim(3);
        if (oh <= 0 || ow <= 0)
            continue;
        const int hp = static_cast<int>(
            std::clamp<int64_t>(splits_h, 1, oh));
        const int wp = static_cast<int>(
            std::clamp<int64_t>(splits_w, 1, ow));

        // allow_downsample: ResNet's 1x1/stride-2 shortcut convs have
        // k < s, which the paper's Eqs. 1-2 exclude but the split
        // machinery supports (the interval collapses to lb).
        const WindowParams1d hop{n.win.kh, n.win.sh, n.win.ph_b,
                                 n.win.ph_e};
        const WindowParams1d wop{n.win.kw, n.win.sw, n.win.pw_b,
                                 n.win.pw_e};
        SplitScheme2d scheme;
        scheme.h = splitWindowOp(hop, ih, evenOutputSplit(oh, hp),
                                 InputSplitPolicy::Center,
                                 /*allow_downsample=*/true);
        scheme.w = splitWindowOp(wop, iw, evenOutputSplit(ow, wp),
                                 InputSplitPolicy::Center,
                                 /*allow_downsample=*/true);

        // Two images (pools) or two image groups (convs) suffice:
        // their footprints are identical translates, so disjointness
        // between the first two proves it for every pair. The conv
        // kernel is resolved as ConvKernel::Auto does.
        const int64_t oc = oshape.dim(1);
        const bool winograd =
            splitConvUsesWinograd(ConvKernel::Auto, n.win, c, oc);
        auto twoGroups = [&](bool wino) {
            const std::vector<SplitImageGroup> groups =
                splitConvImageGroups(batch,
                                     splitConvImageCols(scheme, wino));
            return std::min<int64_t>(
                batch, 2 * (groups.empty() ? 1 : groups[0].n1));
        };
        const bool conv = n.kind == OpKind::Conv2d;
        const int64_t n_model =
            conv ? twoGroups(winograd) : std::min<int64_t>(batch, 2);
        const int64_t n_model_bwd =
            conv ? twoGroups(false) : n_model;
        ParallelPlan plan =
            conv ? buildSplitConvPlan(n_model, c, ih, iw, oc, n.win,
                                      scheme, winograd)
                 : buildSplitPoolPlan(n_model, c, ih, iw, n.win,
                                      scheme);
        {
            std::ostringstream os;
            os << plan.name << ":" << n.name << "[" << hp << "x"
               << wp << "]";
            plan.name = os.str();
        }
        append(analyzeParallelPlan(plan), n.id);

        // The backward decomposition is a distinct proof obligation:
        // halo scatter-adds into grad_x overlap between neighbouring
        // patches, legal only under the ordered-accumulation
        // discipline (SA609).
        ParallelPlan bplan =
            conv ? buildSplitConvBackwardPlan(n_model_bwd, c, ih, iw,
                                              oc, n.win, scheme)
                 : buildSplitPoolBackwardPlan(n_model_bwd, c, ih, iw,
                                              n.win, scheme);
        {
            std::ostringstream os;
            os << bplan.name << ":" << n.name << "[" << hp << "x"
               << wp << "]";
            bplan.name = os.str();
        }
        append(analyzeParallelPlan(bplan), n.id);
    }
    return diags;
}

bool
lintParallelEnabled()
{
    // Same contract as lintPlansEnabled(): re-read each call so tests
    // can toggle with setenv.
    const char *env = std::getenv("SCNN_LINT_PARALLEL");
    if (env != nullptr)
        return *env != '0';
#ifdef NDEBUG
    return false;
#else
    return true;
#endif
}

} // namespace scnn
