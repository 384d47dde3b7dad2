#include "core/split_op.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "kernels/rowops.h"
#include "kernels/winograd.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/scratch_arena.h"
#include "util/thread_annotations.h"
#include "util/threadpool.h"

namespace scnn {

SplitScheme2d
splitWindowOp2d(const Window2d &win, int64_t ih, int64_t iw,
                const std::vector<int64_t> &out_h_starts,
                const std::vector<int64_t> &out_w_starts,
                InputSplitPolicy policy)
{
    const WindowParams1d hop{win.kh, win.sh, win.ph_b, win.ph_e};
    const WindowParams1d wop{win.kw, win.sw, win.pw_b, win.pw_e};
    SplitScheme2d scheme;
    scheme.h = splitWindowOp(hop, ih, out_h_starts, policy);
    scheme.w = splitWindowOp(wop, iw, out_w_starts, policy);
    return scheme;
}

Window2d
patchWindow(const Window2d &win, const SplitScheme2d &scheme, int hi,
            int wi)
{
    SCNN_CHECK(hi >= 0 && hi < scheme.h.parts() && wi >= 0 &&
                   wi < scheme.w.parts(),
               "patch index out of range");
    const SplitPiece1d &ph = scheme.h.pieces[hi];
    const SplitPiece1d &pw = scheme.w.pieces[wi];
    Window2d local = win;
    local.ph_b = ph.pad_b;
    local.ph_e = ph.pad_e;
    local.pw_b = pw.pad_b;
    local.pw_e = pw.pad_e;
    return local;
}

SplitScheme2d
unsplitScheme(const Window2d &win, int64_t ih, int64_t iw)
{
    const int64_t oh = win.outH(ih);
    const int64_t ow = win.outW(iw);
    SCNN_REQUIRE(oh > 0 && ow > 0,
                 "window op output is empty for a " << ih << "x" << iw
                                                    << " input with "
                                                    << win.toString());
    SplitScheme2d scheme;
    scheme.h.pieces.push_back({0, ih, 0, oh, win.ph_b, win.ph_e});
    scheme.w.pieces.push_back({0, iw, 0, ow, win.pw_b, win.pw_e});
    return scheme;
}

// ---------------------------------------------------------------------------
// The window-op engine.
//
// Patches are views into the parent: no pad2d copy, no per-patch
// output tensor, no concat. A conv work item is an output-row *band*
// of one patch-row group (all patches sharing a split-H piece) for
// one *image group*: every patch of every image stages its halo-aware
// im2col columns into one shared column matrix, image-major and then
// ordered by parent output position (im2colViewStrided with col_ld =
// the item's full column count, row_step = the parent output width),
// the matrix is packed into B panels once (gemmPackB) and consumed
// across every output-channel block (gemmPackedAB). A one-image item
// writes C straight into the parent output (ldc = the parent channel
// stride) — the GEMM runs at the unsplit convolution's shape; a group
// GEMMs into a staging block and copies each image's columns out.
// Groups exist for small patches: a band of 1-4 columns per image
// would otherwise run a 16-wide microtile almost empty, once per
// image. The unsplit op is the one-piece scheme, so it runs exactly
// this code.
//
// Determinism: the work list is a function of shapes alone (the row
// band and the group column target are fixed constants), every item
// writes a disjoint output region, and each item's arithmetic is
// scheduling-independent — so outputs are bitwise identical for any
// thread count. Every output element accumulates k ascending from a
// zeroed start through the same microkernel sequence whatever the
// GEMM's N (edge tiles run the full tile on a padded copy), so
// grouping never changes a bit, and under the scalar microkernel
// split and materialized execution produce identical bytes.
// ---------------------------------------------------------------------------

std::vector<SplitBandItem>
splitConvBandItems(const SplitScheme1d &h)
{
    std::vector<SplitBandItem> bands;
    for (int hi = 0; hi < h.parts(); ++hi) {
        const SplitPiece1d &ph = h.pieces[static_cast<size_t>(hi)];
        for (int64_t oy0 = 0; oy0 < ph.outLen();
             oy0 += kSplitConvRowBand) {
            const int64_t oy1 =
                std::min(ph.outLen(), oy0 + kSplitConvRowBand);
            bands.push_back({hi, oy0, oy1});
        }
    }
    return bands;
}

std::vector<SplitImageGroup>
splitConvImageGroups(int64_t n, int64_t cols_per_image)
{
    SCNN_CHECK(cols_per_image > 0, "conv band has no columns");
    const int64_t g = std::clamp<int64_t>(
        (kSplitConvGroupCols + cols_per_image - 1) / cols_per_image, 1,
        std::max<int64_t>(n, 1));
    std::vector<SplitImageGroup> groups;
    for (int64_t n0 = 0; n0 < n; n0 += g)
        groups.push_back({n0, std::min(n, n0 + g)});
    return groups;
}

int64_t
splitConvImageCols(const SplitScheme2d &scheme, bool winograd)
{
    int64_t rows = 0;
    for (const SplitPiece1d &ph : scheme.h.pieces)
        rows = std::max(rows, std::min(ph.outLen(), kSplitConvRowBand));
    if (!winograd)
        return rows * scheme.w.pieces.back().out_end;
    int64_t tiles_x = 0;
    for (const SplitPiece1d &pw : scheme.w.pieces)
        tiles_x += (pw.outLen() + 1) / 2;
    return (rows + 1) / 2 * tiles_x;
}

bool
splitConvUsesWinograd(ConvKernel kernel, const Window2d &win, int64_t c,
                      int64_t oc)
{
    return kernel == ConvKernel::Winograd ||
           (kernel == ConvKernel::Auto && winogradApplicable(win) &&
            winogradCostModelWins(c, oc));
}

namespace {

uint64_t
hashWords(const float *p, int64_t count)
{
    // FNV-1a over 8-byte words: one multiply per two floats, and any
    // single changed word changes the result (each step is a
    // bijection of the running hash), so an in-place weight update
    // can never serve a stale U.
    const auto *bytes = reinterpret_cast<const unsigned char *>(p);
    const int64_t nbytes = count * int64_t(sizeof(float));
    constexpr uint64_t kPrime = 1099511628211ull;
    uint64_t h = 1469598103934665603ull;
    int64_t i = 0;
    for (; i + 8 <= nbytes; i += 8) {
        uint64_t word;
        std::memcpy(&word, bytes + i, sizeof(word));
        h = (h ^ word) * kPrime;
    }
    if (i < nbytes) {
        uint32_t word;
        std::memcpy(&word, bytes + i, sizeof(word));
        h = (h ^ word) * kPrime;
    }
    return h;
}

/** A cached packed U plus the shared_ptr keeping it alive while
 * workers read it (a later miss only drops the cache's ref). */
struct PanelRef
{
    std::shared_ptr<std::vector<float>> keepalive;
    const float *panels = nullptr;
};

/**
 * One-entry cache of the packed Winograd U (winogradPackWeights is
 * ~15x the cost of a GEMM-A pack). The traffic it serves is the
 * patch clones of one split layer, which the executor runs back to
 * back with the same weight tensor; across SGD steps every weight
 * changes, so a larger cache would only hold stale entries.
 */
class WinogradWeightCache
{
public:
    PanelRef
    lookupOrPack(const float *w, int64_t oc, int64_t c)
    {
        const uint64_t h = hashWords(w, oc * c * 9);
        const char *kernel = activeMicrokernel().name;
        MutexLock lock(mu_);
        if (buf_ && wptr_ == w && oc_ == oc && c_ == c &&
            kernel_ == kernel && hash_ == h) {
            ++hits_;
            return {buf_, panels_};
        }
        ++misses_;
        // Another layer displaces the entry; the same layer with new
        // contents (an in-place SGD update) only repacks.
        if (buf_ && (wptr_ != w || oc_ != oc || c_ != c ||
                     kernel_ != kernel))
            ++evictions_;
        // Always a fresh buffer: a worker of an earlier call may still
        // read the old one through its keepalive. Over-allocate so
        // the panel base can be 64-byte aligned for SIMD loads.
        buf_ = std::make_shared<std::vector<float>>(
            static_cast<size_t>(winogradPackedUSize(oc, c) + 16));
        auto addr = reinterpret_cast<uintptr_t>(buf_->data());
        panels_ = reinterpret_cast<float *>((addr + 63) & ~uintptr_t{63});
        winogradPackWeights(w, oc, c, panels_);
        wptr_ = w;
        oc_ = oc;
        c_ = c;
        kernel_ = kernel;
        hash_ = h;
        return {buf_, panels_};
    }

    SplitWeightCacheStats
    stats()
    {
        MutexLock lock(mu_);
        return {hits_, misses_, evictions_, buf_ ? 1 : 0};
    }

    void
    clear()
    {
        MutexLock lock(mu_);
        buf_.reset();
        panels_ = nullptr;
        wptr_ = nullptr;
        hits_ = misses_ = evictions_ = 0;
    }

private:
    Mutex mu_;
    const float *wptr_ SCNN_GUARDED_BY(mu_) = nullptr;
    int64_t oc_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t c_ SCNN_GUARDED_BY(mu_) = 0;
    const char *kernel_ SCNN_GUARDED_BY(mu_) = nullptr;
    uint64_t hash_ SCNN_GUARDED_BY(mu_) = 0;
    std::shared_ptr<std::vector<float>> buf_ SCNN_GUARDED_BY(mu_);
    float *panels_ SCNN_GUARDED_BY(mu_) = nullptr;
    int64_t hits_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t misses_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t evictions_ SCNN_GUARDED_BY(mu_) = 0;
};

WinogradWeightCache &
winogradCache()
{
    static WinogradWeightCache cache;
    return cache;
}

/** Debug hook shared by the dispatchers: statically prove the
 * decomposition race-free before running it. Pools model min(n, 2)
 * images and convs the first two image groups (lintConvImages) —
 * footprints of images and of full groups are identical translates,
 * so two prove every inter-image and inter-group pair (same
 * convention as analyzeParallelExecution). */
void
lintSplitPlan(const ParallelPlan &plan, const char *what)
{
    const std::vector<Diagnostic> diags = analyzeParallelPlan(plan);
    SCNN_CHECK(diags.empty(),
               "parallel-safety lint: " << diags.size()
                                        << " finding(s) in " << what
                                        << "; first: "
                                        << diags.front().toString());
}

/** Images the conv lint models: through the end of the second image
 * group (the whole batch when it is one group, or when the second
 * group is the ragged last one). */
int64_t
lintConvImages(const std::vector<SplitImageGroup> &groups)
{
    if (groups.empty())
        return 0;
    return groups[std::min<size_t>(groups.size(), 2) - 1].n1;
}

/** Post-run shadow-access check: any escape is an analyzer bug. */
void
checkShadow(ShadowSession &shadow, const char *what)
{
    const std::vector<Diagnostic> escapes = shadow.check();
    SCNN_CHECK(escapes.empty(),
               "shadow-access validator: "
                   << escapes.size() << " SA607 escape(s) in " << what
                   << "; first: " << escapes.front().toString());
}

/** Every patch's local window must produce exactly its output block. */
void
checkSchemeGeometry(const Window2d &win, const SplitScheme2d &scheme)
{
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    for (int hi = 0; hi < scheme.h.parts(); ++hi) {
        const SplitPiece1d &ph = scheme.h.pieces[hi];
        for (int wi = 0; wi < scheme.w.parts(); ++wi) {
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            const Window2d local = patchWindow(win, scheme, hi, wi);
            SCNN_CHECK(local.outH(ph.inLen()) == ph.outLen() &&
                           local.outW(pw.inLen()) == pw.outLen(),
                       "split scheme geometry mismatch for patch ("
                           << hi << ", " << wi << ")");
        }
    }
}

/** Shape checks shared by the conv forward and backward. */
void
checkConvShapes(const Tensor &x, const Tensor &weight,
                const Window2d &win)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    SCNN_REQUIRE(weight.shape().rank() == 4,
                 "conv2d weight must be [OC, C, kh, kw]");
    SCNN_REQUIRE(weight.shape().dim(1) == x.shape().dim(1),
                 "conv2d channel mismatch: weight expects "
                     << weight.shape().dim(1) << ", input has "
                     << x.shape().dim(1));
    SCNN_REQUIRE(weight.shape().dim(2) == win.kh &&
                     weight.shape().dim(3) == win.kw,
                 "conv2d kernel extent mismatch");
}

} // namespace

SplitWeightCacheStats
splitWeightCacheStats()
{
    return winogradCache().stats();
}

void
splitWeightCacheClear()
{
    winogradCache().clear();
}

Tensor
splitConv2dForward(const Tensor &x, const Tensor &weight,
                   const Tensor &bias, const Window2d &win,
                   const SplitScheme2d &scheme, ConvKernel kernel)
{
    checkConvShapes(x, weight, win);
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    const bool use_winograd = splitConvUsesWinograd(kernel, win, c, oc);
    SCNN_REQUIRE(!use_winograd || winogradApplicable(win),
                 "winograd needs a 3x3 stride-1 window, got "
                     << win.toString());
    checkSchemeGeometry(win, scheme);

    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const int64_t ospatial = out_h * out_w;
    const int64_t krows = c * win.kh * win.kw;
    const bool has_bias = bias.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(bias.numel() == oc, "conv2d bias size mismatch");

    const std::vector<SplitBandItem> bands =
        splitConvBandItems(scheme.h);
    const int64_t image_cols = splitConvImageCols(scheme, use_winograd);
    const std::vector<SplitImageGroup> groups =
        splitConvImageGroups(n, image_cols);
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvPlan(lintConvImages(groups), c, ih,
                                         iw, oc, win, scheme,
                                         use_winograd),
                      "split conv");

    // The weight operand, shared read-only by every worker: GEMM A
    // panels packed into the caller's arena, or the cached Winograd U.
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    PanelRef wref; // keeps a cached U alive while the workers read it
    const float *panels = nullptr;
    int64_t panel_floats = 0;
    if (use_winograd) {
        panel_floats = winogradPackedUSize(oc, c);
        wref = winogradCache().lookupOrPack(weight.data(), oc, c);
        panels = wref.panels;
    } else {
        panel_floats = gemmPackedASize(oc, krows);
        float *pa = arena.alloc(panel_floats);
        gemmPackA(oc, krows, 1.0f, weight.data(), pa);
        panels = pa;
    }

    Tensor out = Tensor::uninitialized(Shape{n, oc, out_h, out_w});
    const float *bias_ptr = has_bias ? bias.data() : nullptr;
    const int64_t n_bands = static_cast<int64_t>(bands.size());
    const int64_t n_groups = static_cast<int64_t>(groups.size());
    const int64_t group_size = n_groups > 0 ? groups[0].n1 : 1;
    const int64_t max_item_cols = group_size * image_cols;

    // Shadow-access validation (SCNN_SHADOW_ACCESS=1): model this
    // exact execution and, after the parallel section, check every
    // claim the kernels recorded against the static prediction.
    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(buildSplitConvPlan(
            n, c, ih, iw, oc, win, scheme, use_winograd));
        shadow->bind("output", out.data());
        shadow->bind("input", x.data());
        shadow->bind("weight_panels", panels);
    }

    globalPool().parallelFor(n_groups * n_bands, [&](int64_t begin,
                                                     int64_t end) {
        auto &warena = ScratchArena::tls();
        auto wguard = warena.scope();
        float *col = nullptr;
        float *pb = nullptr;
        float *cstage = nullptr;
        if (!use_winograd) {
            col = warena.alloc(krows * max_item_cols);
            pb = warena.alloc(gemmPackedBSize(krows, max_item_cols));
            if (group_size > 1)
                cstage = warena.alloc(oc * max_item_cols);
        }
        std::vector<WinogradPatch> wpatches;
        const Microkernel &uk = activeMicrokernel();
        for (int64_t i = begin; i < end; ++i) {
            const SplitImageGroup &grp =
                groups[static_cast<size_t>(i / n_bands)];
            const SplitBandItem &band =
                bands[static_cast<size_t>(i % n_bands)];
            const SplitPiece1d &ph = scheme.h.pieces[band.hi];
            const int64_t gn = grp.n1 - grp.n0;
            const int64_t nb = (band.oy1 - band.oy0) * out_w;
            // The band's rows of image n0; image j of the group sits
            // j * oc * ospatial further on.
            float *out0 = out.data() + grp.n0 * oc * ospatial +
                          (ph.out_start + band.oy0) * out_w;

            if (shadow) {
                shadow->setItem(i);
                // The item's whole output claim (both kernel paths
                // write exactly these rows of every channel of every
                // image; image stride = oc channel strides) and its
                // shared read of the packed panels. Input halo reads
                // are recorded inside the patch kernels.
                shadowRecordSpan(out0, {0, gn * oc, ospatial, 1, 0, nb},
                                 true);
                shadowRecord(panels, panel_floats, false);
            }

            if (use_winograd) {
                wpatches.clear();
                for (int64_t in = grp.n0; in < grp.n1; ++in)
                    for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                        const SplitPiece1d &pw = scheme.w.pieces[wi];
                        wpatches.push_back(
                            {x.data() + in * c * ih * iw,
                             {ph.in_start, pw.in_start, ph.inLen(),
                              pw.inLen()},
                             patchWindow(win, scheme, band.hi, wi),
                             out.data() + in * oc * ospatial,
                             ph.out_start,
                             pw.out_start});
                    }
                conv2dWinogradPatches(
                    wpatches.data(),
                    static_cast<int64_t>(wpatches.size()), c, ih, iw,
                    panels, oc, bias_ptr, band.oy0 / 2,
                    (band.oy1 + 1) / 2, out_h, out_w);
                continue;
            }

            // Stage every patch's columns of this band into the
            // shared column matrix, image-major and then ordered by
            // parent output position: window-element row r of image
            // j's output (oy, ox_glob) sits at
            // col[r*ld + j*nb + (oy - oy0)*out_w + ox_glob].
            const int64_t ld = gn * nb;
            for (int64_t j = 0; j < gn; ++j) {
                const float *img = x.data() + (grp.n0 + j) * c * ih * iw;
                for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                    const SplitPiece1d &pw = scheme.w.pieces[wi];
                    const PatchView view{ph.in_start, pw.in_start,
                                         ph.inLen(), pw.inLen()};
                    im2colViewStrided(
                        img, c, ih, iw, view,
                        patchWindow(win, scheme, band.hi, wi), band.oy0,
                        band.oy1, col + j * nb + pw.out_start, ld,
                        out_w);
                }
            }
            // One GEMM for the whole item: B panels packed once,
            // consumed by every output-channel block. A single image
            // writes C straight into the parent output; a group
            // writes the staging block, copied out per image below.
            gemmPackB(krows, ld, col, ld, pb);
            gemmPackedAB(oc, ld, krows, panels, pb, 0.0f,
                         gn == 1 ? out0 : cstage,
                         gn == 1 ? ospatial : ld);
            for (int64_t j = 0; j < gn; ++j)
                for (int64_t o = 0; o < oc; ++o) {
                    float *dst = out0 + (j * oc + o) * ospatial;
                    if (gn > 1)
                        copyFloats(dst, cstage + o * ld + j * nb, nb);
                    if (has_bias)
                        uk.addBiasRow(dst, nb, bias_ptr[o]);
                }
        }
    });
    if (shadow)
        checkShadow(*shadow, "split conv");
    return out;
}

namespace {

/** Shared driver for split pooling: one work item per (image, patch),
 * each writing a disjoint block of the parent output through the
 * halo-aware patch kernel. @p argmax, when non-null, is filled in
 * the output's layout alongside it. */
template <typename PatchKernel>
Tensor
splitPool2dForwardImpl(const Tensor &x, const Window2d &win,
                       const SplitScheme2d &scheme,
                       std::vector<int64_t> *argmax, const char *what,
                       PatchKernel &&kernel)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "pool input must be NCHW");
    checkSchemeGeometry(win, scheme);
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_REQUIRE(out_h > 0 && out_w > 0, "empty pool output");
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolPlan(std::min<int64_t>(n, 2), c, ih,
                                         iw, win, scheme),
                      what);

    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(scheme.h.parts()) * wp;

    // Every output element belongs to exactly one patch block, so the
    // allocation skips its zero-fill; items write disjoint regions.
    Tensor out = Tensor::uninitialized(Shape{n, c, out_h, out_w});
    if (argmax != nullptr)
        argmax->resize(static_cast<size_t>(out.numel()));

    // The argmax slots mirror the output writes one for one, so the
    // output claims cover them; the model has no separate region.
    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitPoolPlan(n, c, ih, iw, win, scheme));
        shadow->bind("output", out.data());
        shadow->bind("input", x.data());
    }

    globalPool().parallelFor(n * parts, [&](int64_t begin,
                                            int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            if (shadow)
                shadow->setItem(i); // patch kernels record the claims
            const int64_t in = i / parts;
            const int hi = static_cast<int>((i % parts) / wp);
            const int wi = static_cast<int>(i % wp);
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            const PatchView view{ph.in_start, pw.in_start, ph.inLen(),
                                 pw.inLen()};
            const int64_t out_off = in * c * out_h * out_w;
            kernel(x.data() + in * c * ih * iw, c, ih, iw, view,
                   patchWindow(win, scheme, hi, wi),
                   out.data() + out_off, out_h, out_w, ph.out_start,
                   pw.out_start,
                   argmax != nullptr ? argmax->data() + out_off
                                     : nullptr,
                   in * c * ih * iw);
        }
    });
    if (shadow)
        checkShadow(*shadow, what);
    return out;
}

} // namespace

Tensor
splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme,
                      std::vector<int64_t> &argmax)
{
    return splitPool2dForwardImpl(x, win, scheme, &argmax,
                                  "split max-pool", maxPool2dPatch);
}

Tensor
splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme)
{
    return splitPool2dForwardImpl(
        x, win, scheme, nullptr, "split avg-pool",
        [](const float *img, int64_t c, int64_t ih, int64_t iw,
           const PatchView &view, const Window2d &local, float *out,
           int64_t out_oh, int64_t out_ow, int64_t oy0, int64_t ox0,
           int64_t *, int64_t) {
            avgPool2dPatch(img, c, ih, iw, view, local, out, out_oh,
                           out_ow, oy0, ox0);
        });
}

// ---------------------------------------------------------------------------
// Split backward.
//
// The backward twin of the forward: gradient patches are PatchViews
// into the parent tensors, never per-patch copies. The two gradient
// GEMMs share no operand but grad_out, so they run as two parallel
// phases:
//
//   wgrad  images fan out across the pool in waves; a worker owns a
//          whole image and runs its row bands serially ascending. Per
//          band, every width patch stages its halo-aware im2col
//          columns into one shared column matrix ordered by parent
//          output position — exactly the forward staging — and
//          gw_img[oc x krows] += packA(grad_out band) x packB(col^T)
//          (grad_out packed straight from the parent tensor, the
//          columns packed transposed via gemmPackBStrided; beta = 1
//          chains the image's bands). The partial has grad_w's own
//          layout, so per-image partials reduce into grad_w with
//          contiguous adds, serially in image order —
//          bitwise-identical for any thread count. Merging
//          images into the GEMM's K would change that rounding, so
//          wgrad stays per image.
//   dgrad  image groups (the forward's splitConvImageGroups) fan out
//          across the pool; a worker owns a group and runs its row
//          bands serially ascending: gcol = packA(W^T) x packB(the
//          group's grad_out band rows side by side), then each image's
//          patches scatter their slice into the parent grad_x through
//          col2imViewStrided (W^T packed once per call). Every grad_x
//          element thus accumulates bands ascending, then patches
//          ascending, whatever the grouping (the SA609
//          ordered-accumulation contract).
// ---------------------------------------------------------------------------

void
splitConv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    const SplitScheme2d &scheme, Tensor &grad_x,
                    Tensor &grad_w, Tensor &grad_b)
{
    checkConvShapes(x, weight, win);
    checkSchemeGeometry(win, scheme);
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);

    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_CHECK(grad_out.shape() == Shape({n, oc, out_h, out_w}),
               "conv2d grad_out shape mismatch: "
                   << grad_out.shape().toString());
    SCNN_CHECK(grad_w.shape() == weight.shape(),
               "grad_w must be pre-shaped like weight");
    const bool has_bias = grad_b.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(grad_b.numel() == oc, "conv2d grad_b size mismatch");

    const int64_t krows = c * win.kh * win.kw;
    const int64_t ospatial = out_h * out_w;
    const int64_t panel_floats = gemmPackedASize(krows, oc);

    const std::vector<SplitBandItem> bands =
        splitConvBandItems(scheme.h);
    const int64_t n_bands = static_cast<int64_t>(bands.size());
    const int64_t image_cols = splitConvImageCols(scheme, false);
    const std::vector<SplitImageGroup> groups =
        splitConvImageGroups(n, image_cols);
    const int64_t n_groups = static_cast<int64_t>(groups.size());
    const int64_t group_size = n_groups > 0 ? groups[0].n1 : 1;
    const int64_t max_item_cols = group_size * image_cols;
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvBackwardPlan(lintConvImages(groups),
                                                 c, ih, iw, oc, win,
                                                 scheme),
                      "split conv backward");

    grad_x = Tensor(x.shape()); // zero: halo scatters accumulate

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();

    // dgrad operand: W^T packed A panels, A(i, p) = weight[p*krows+i],
    // shared read-only by every worker.
    float *wt_panels = arena.alloc(panel_floats);
    gemmPackAStrided(krows, oc, 1.0f, weight.data(), /*rs=*/1,
                     /*cs=*/krows, wt_panels);

    const int64_t wave = std::max<int64_t>(1, globalThreads());
    float *gw_acc = arena.alloc(wave * krows * oc);
    float *gb_acc = has_bias ? arena.alloc(wave * oc) : nullptr;

    // Shadow item ids follow buildSplitConvBackwardPlan: wgrad bands
    // (image-major), bias rows, reductions, then dgrad bands
    // (group-major).
    const int64_t bias_item0 = n * n_bands;
    const int64_t reduce_item0 = bias_item0 + n;
    const int64_t dgrad_item0 = reduce_item0 + n;
    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitConvBackwardPlan(n, c, ih, iw, oc, win, scheme));
        shadow->bind("grad_x", grad_x.data());
        shadow->bind("grad_out", grad_out.data());
        shadow->bind("input", x.data());
        shadow->bind("weight_panels", wt_panels);
        shadow->bind("grad_w", grad_w.data());
        if (has_bias)
            shadow->bind("grad_b", grad_b.data());
    }

    // wgrad: one image per worker, bands ascending; the staging fits
    // the widest band of one image.
    for (int64_t w0 = 0; w0 < n; w0 += wave) {
        const int64_t wn = std::min(wave, n - w0);
        globalPool().parallelFor(wn, [&](int64_t begin, int64_t end) {
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * image_cols);
            float *pa_go = warena.alloc(gemmPackedASize(oc, image_cols));
            float *pb_col =
                warena.alloc(gemmPackedBSize(image_cols, krows));
            for (int64_t wi = begin; wi < end; ++wi) {
                const int64_t in = w0 + wi;
                const float *go = grad_out.data() + in * oc * ospatial;
                const float *img = x.data() + in * c * ih * iw;
                float *gw_img = gw_acc + wi * krows * oc;
                for (int64_t bi = 0; bi < n_bands; ++bi) {
                    const SplitBandItem &band =
                        bands[static_cast<size_t>(bi)];
                    const SplitPiece1d &ph =
                        scheme.h.pieces[static_cast<size_t>(band.hi)];
                    const int64_t nb = (band.oy1 - band.oy0) * out_w;
                    const float *go_band =
                        go + (ph.out_start + band.oy0) * out_w;
                    if (shadow) {
                        shadow->setItem(in * n_bands + bi);
                        // The band's grad_out rows of every output
                        // channel; input reads are recorded inside
                        // the view kernel.
                        shadowRecordSpan(go_band,
                                         {0, oc, ospatial, 1, 0, nb},
                                         false);
                    }
                    for (int pi = 0; pi < scheme.w.parts(); ++pi) {
                        const SplitPiece1d &pw =
                            scheme.w.pieces[static_cast<size_t>(pi)];
                        const PatchView view{ph.in_start, pw.in_start,
                                             ph.inLen(), pw.inLen()};
                        im2colViewStrided(
                            img, c, ih, iw, view,
                            patchWindow(win, scheme, band.hi, pi),
                            band.oy0, band.oy1, col + pw.out_start, nb,
                            out_w);
                    }
                    // gw_img (oc x krows, grad_w's layout) accumulates
                    // this band's grad_out rows x columns^T product;
                    // beta = 1 chains bands ascending.
                    gemmPackAStrided(oc, nb, 1.0f, go_band,
                                     /*rs=*/ospatial, /*cs=*/1, pa_go);
                    gemmPackBStrided(nb, krows, col, /*rs=*/1, /*cs=*/nb,
                                     pb_col);
                    gemmPackedAB(oc, krows, nb, pa_go, pb_col,
                                 bi == 0 ? 0.0f : 1.0f, gw_img, krows);
                }
                if (has_bias) {
                    float *gb = gb_acc + wi * oc;
                    if (shadow) {
                        shadow->setItem(bias_item0 + in);
                        shadowRecord(go, oc * ospatial, false);
                    }
                    std::fill(gb, gb + oc, 0.0f);
                    addRowSums(go, oc, ospatial, gb);
                }
            }
        });
        for (int64_t wi = 0; wi < wn; ++wi) {
            const int64_t in = w0 + wi;
            if (shadow) {
                shadow->setItem(reduce_item0 + in);
                shadowRecord(grad_w.data(), oc * krows, true);
                if (has_bias)
                    shadowRecord(grad_b.data(), oc, true);
            }
            // gw_img and grad_w share the [oc x krows] layout.
            addRow(grad_w.data(), gw_acc + wi * krows * oc, oc * krows);
            if (has_bias)
                addRow(grad_b.data(), gb_acc + wi * oc, oc);
        }
    }

    // dgrad: one image group per worker, bands ascending.
    globalPool().parallelFor(n_groups, [&](int64_t begin, int64_t end) {
        auto &warena = ScratchArena::tls();
        auto wguard = warena.scope();
        float *gcol = warena.alloc(krows * max_item_cols);
        float *pb_go = warena.alloc(gemmPackedBSize(oc, max_item_cols));
        float *go_stage =
            group_size > 1 ? warena.alloc(oc * max_item_cols) : nullptr;
        for (int64_t gi = begin; gi < end; ++gi) {
            const SplitImageGroup &grp = groups[static_cast<size_t>(gi)];
            const int64_t gn = grp.n1 - grp.n0;
            for (int64_t bi = 0; bi < n_bands; ++bi) {
                const SplitBandItem &band = bands[static_cast<size_t>(bi)];
                const SplitPiece1d &ph =
                    scheme.h.pieces[static_cast<size_t>(band.hi)];
                const int64_t nb = (band.oy1 - band.oy0) * out_w;
                const int64_t ld = gn * nb;
                // The band's rows of image n0; image j of the group
                // sits j * oc * ospatial further on.
                const float *go0 = grad_out.data() +
                                   grp.n0 * oc * ospatial +
                                   (ph.out_start + band.oy0) * out_w;
                if (shadow) {
                    shadow->setItem(dgrad_item0 + gi * n_bands + bi);
                    // The group's grad_out band rows and the shared
                    // panel read; grad_x scatters are recorded inside
                    // the view kernel.
                    shadowRecordSpan(go0, {0, gn * oc, ospatial, 1, 0, nb},
                                     false);
                    shadowRecord(wt_panels, panel_floats, false);
                }
                // gcol = W^T x the group's grad_out band rows. One
                // image packs straight from the parent tensor; a group
                // first lines its images' rows up side by side.
                if (gn > 1)
                    for (int64_t j = 0; j < gn; ++j)
                        for (int64_t o = 0; o < oc; ++o)
                            copyFloats(go_stage + o * ld + j * nb,
                                       go0 + (j * oc + o) * ospatial, nb);
                gemmPackB(oc, ld, gn == 1 ? go0 : go_stage,
                          gn == 1 ? ospatial : ld, pb_go);
                gemmPackedAB(krows, ld, oc, wt_panels, pb_go, 0.0f, gcol,
                             ld);
                for (int64_t j = 0; j < gn; ++j) {
                    float *gx_img =
                        grad_x.data() + (grp.n0 + j) * c * ih * iw;
                    for (int pi = 0; pi < scheme.w.parts(); ++pi) {
                        const SplitPiece1d &pw =
                            scheme.w.pieces[static_cast<size_t>(pi)];
                        const PatchView view{ph.in_start, pw.in_start,
                                             ph.inLen(), pw.inLen()};
                        col2imViewStrided(
                            gcol + j * nb + pw.out_start, c, ih, iw, view,
                            patchWindow(win, scheme, band.hi, pi),
                            band.oy0, band.oy1, gx_img, ld, out_w);
                    }
                }
            }
        }
    });
    if (shadow)
        checkShadow(*shadow, "split conv backward");
}

Tensor
splitAvgPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const Window2d &win,
                       const SplitScheme2d &scheme)
{
    checkSchemeGeometry(win, scheme);
    SCNN_REQUIRE(in_shape.rank() == 4, "pool input must be NCHW");
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    const int64_t n = in_shape.dim(0);
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_CHECK(grad_out.shape() == Shape({n, c, out_h, out_w}),
               "pool grad_out shape mismatch: "
                   << grad_out.shape().toString());
    const char *what = "split avg-pool backward";
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolBackwardPlan(std::min<int64_t>(n, 2),
                                                 c, ih, iw, win, scheme),
                      what);

    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(scheme.h.parts()) * wp;
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);

    Tensor grad_x(in_shape); // zero: scatter-add target

    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitPoolBackwardPlan(n, c, ih, iw, win, scheme));
        shadow->bind("grad_x", grad_x.data());
        shadow->bind("grad_out", grad_out.data());
    }

    // One image per worker, the image's patches scattered serially
    // ascending so halo targets (k > s windows straddling a patch
    // seam) accumulate in a fixed order.
    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t in = nb; in < ne; ++in) {
            for (int64_t pi = 0; pi < parts; ++pi) {
                const int hi = static_cast<int>(pi / wp);
                const int wi = static_cast<int>(pi % wp);
                const SplitPiece1d &ph = scheme.h.pieces[hi];
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                if (shadow) {
                    shadow->setItem(in * parts + pi);
                    // The patch's input-hull write and output-block
                    // read — the spans the SA6xx backward model
                    // predicts for this item.
                    const int64_t first =
                        ph.in_start * iw + pw.in_start;
                    const int64_t last =
                        (c - 1) * ih * iw +
                        (ph.in_start + ph.inLen() - 1) * iw +
                        pw.in_start + pw.inLen();
                    shadowRecord(grad_x.data() + in * c * ih * iw +
                                     first,
                                 last - first, true);
                    shadowRecordSpan(
                        grad_out.data() + in * c * out_h * out_w +
                            ph.out_start * out_w + pw.out_start,
                        {0, c, out_h * out_w, ph.outLen(), out_w,
                         pw.outLen()},
                        false);
                }
                // The exact adjoint of avgPool2dPatch: every in-view
                // tap of an output in the patch block receives
                // grad * 1/(kh*kw) (count_include_pad: out-of-view
                // taps are padding and get nothing, exactly as the
                // forward reads them as zero).
                const PatchView view{ph.in_start, pw.in_start,
                                     ph.inLen(), pw.inLen()};
                const Window2d local = patchWindow(win, scheme, hi, wi);
                for (int64_t ic = 0; ic < c; ++ic) {
                    float *chan =
                        grad_x.data() + (in * c + ic) * ih * iw;
                    const float *gchan =
                        grad_out.data() +
                        ((in * c + ic) * out_h + ph.out_start) * out_w +
                        pw.out_start;
                    for (int64_t oy = 0; oy < ph.outLen(); ++oy)
                        for (int64_t ox = 0; ox < pw.outLen(); ++ox) {
                            const float g =
                                gchan[oy * out_w + ox] * inv_area;
                            for (int64_t ky = 0; ky < local.kh; ++ky) {
                                const int64_t iy =
                                    oy * local.sh - local.ph_b + ky;
                                if (iy < 0 || iy >= view.ih)
                                    continue;
                                for (int64_t kx = 0; kx < local.kw;
                                     ++kx) {
                                    const int64_t ix =
                                        ox * local.sw - local.pw_b + kx;
                                    if (ix >= 0 && ix < view.iw)
                                        chan[view.parentOffset(
                                            iy, ix, iw)] += g;
                                }
                            }
                        }
                }
            }
        }
    });
    if (shadow)
        checkShadow(*shadow, what);
    return grad_x;
}

} // namespace scnn
