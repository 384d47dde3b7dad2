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
// of one patch-row group (all patches sharing a split-H piece): every
// patch stages its halo-aware im2col columns into one shared column
// matrix whose columns are ordered by parent output position
// (im2colViewStrided with col_ld = the band's full column count,
// row_step = the parent output width), the matrix is packed into B
// panels once (gemmPackB) and consumed across every output-channel
// block (gemmPackedAB), and C is the parent output itself (ldc = the
// parent channel stride) — the GEMM runs at the unsplit
// convolution's shape. The unsplit op is the one-piece scheme, so it
// runs exactly this code.
//
// Determinism: the work list is a function of shapes alone (the row
// band is a fixed constant), every item writes a disjoint output
// region, and each item's arithmetic is scheduling-independent — so
// outputs are bitwise identical for any thread count. Under the
// scalar microkernel each output element accumulates k ascending
// from a zeroed start, exactly like a naive GEMM over a materialized
// patch's im2col matrix, so split and materialized execution produce
// identical bytes.
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
 * decomposition race-free before running it. Batch is modeled as
 * min(n, 2) images — image footprints are identical translates, so
 * two prove every inter-image pair (same convention as
 * analyzeParallelExecution). */
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
    const bool use_winograd =
        kernel == ConvKernel::Winograd ||
        (kernel == ConvKernel::Auto && winogradApplicable(win) &&
         winogradCostModelWins(c, oc));
    SCNN_REQUIRE(!use_winograd || winogradApplicable(win),
                 "winograd needs a 3x3 stride-1 window, got "
                     << win.toString());
    checkSchemeGeometry(win, scheme);
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvPlan(std::min<int64_t>(n, 2), c, ih,
                                         iw, oc, win, scheme),
                      "split conv");

    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const int64_t krows = c * win.kh * win.kw;
    const bool has_bias = bias.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(bias.numel() == oc, "conv2d bias size mismatch");

    const std::vector<SplitBandItem> bands =
        splitConvBandItems(scheme.h);
    int64_t max_band_rows = 0;
    for (const SplitBandItem &b : bands)
        max_band_rows = std::max(max_band_rows, b.oy1 - b.oy0);

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
    const int64_t max_band_cols = max_band_rows * out_w;

    // Shadow-access validation (SCNN_SHADOW_ACCESS=1): model this
    // exact execution and, after the parallel section, check every
    // claim the kernels recorded against the static prediction.
    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitConvPlan(n, c, ih, iw, oc, win, scheme));
        shadow->bind("output", out.data());
        shadow->bind("input", x.data());
        shadow->bind("weight_panels", panels);
    }

    globalPool().parallelFor(n * n_bands, [&](int64_t begin,
                                              int64_t end) {
        auto &warena = ScratchArena::tls();
        auto wguard = warena.scope();
        float *col = nullptr;
        float *pb = nullptr;
        if (!use_winograd) {
            col = warena.alloc(krows * max_band_cols);
            pb = warena.alloc(gemmPackedBSize(krows, max_band_cols));
        }
        const Microkernel &uk = activeMicrokernel();
        for (int64_t i = begin; i < end; ++i) {
            const int64_t in = i / n_bands;
            const SplitBandItem &band =
                bands[static_cast<size_t>(i % n_bands)];
            const SplitPiece1d &ph = scheme.h.pieces[band.hi];
            const float *img = x.data() + in * c * ih * iw;
            float *out_img = out.data() + in * oc * out_h * out_w;

            if (shadow) {
                shadow->setItem(i);
                // The band's whole output claim (both kernel paths
                // write exactly these rows of every channel) and its
                // shared read of the packed panels. Input halo reads
                // are recorded inside the patch kernels.
                shadowRecordSpan(
                    out_img + (ph.out_start + band.oy0) * out_w,
                    {0, oc, out_h * out_w, 1, 0,
                     (band.oy1 - band.oy0) * out_w},
                    true);
                shadowRecord(panels, panel_floats, false);
            }

            if (use_winograd) {
                for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                    const SplitPiece1d &pw = scheme.w.pieces[wi];
                    const PatchView view{ph.in_start, pw.in_start,
                                         ph.inLen(), pw.inLen()};
                    conv2dWinogradPatch(
                        img, c, ih, iw, view,
                        patchWindow(win, scheme, band.hi, wi), panels,
                        oc, bias_ptr, band.oy0 / 2, (band.oy1 + 1) / 2,
                        out_img, out_h, out_w, ph.out_start,
                        pw.out_start);
                }
                continue;
            }

            // Stage every patch's columns of this band into the
            // shared column matrix, ordered by parent output
            // position: window-element row r of output (oy, ox_glob)
            // sits at col[r*nb + (oy - oy0)*out_w + ox_glob].
            const int64_t nb = (band.oy1 - band.oy0) * out_w;
            for (int wi = 0; wi < scheme.w.parts(); ++wi) {
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                const PatchView view{ph.in_start, pw.in_start,
                                     ph.inLen(), pw.inLen()};
                im2colViewStrided(
                    img, c, ih, iw, view,
                    patchWindow(win, scheme, band.hi, wi), band.oy0,
                    band.oy1, col + pw.out_start, nb, out_w);
            }
            // One unsplit-shaped GEMM for the whole band: B panels
            // packed once, consumed by every output-channel block, C
            // written straight into the parent output.
            gemmPackB(krows, nb, col, nb, pb);
            float *cbase = out_img + (ph.out_start + band.oy0) * out_w;
            const int64_t ldc = out_h * out_w;
            gemmPackedAB(oc, nb, krows, panels, pb, 0.0f, cbase, ldc);
            if (has_bias)
                for (int64_t o = 0; o < oc; ++o)
                    uk.addBiasRow(cbase + o * ldc, nb, bias_ptr[o]);
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
// into the parent tensors, never per-patch copies. Images fan out
// across the pool in waves; a worker owns a whole image and runs its
// row bands serially ascending, so every halo scatter-add into grad_x
// happens in a fixed order (the SA609 ordered-accumulation contract)
// and nothing races. Per band, every width patch stages its
// halo-aware im2col columns into one shared column matrix ordered by
// parent output position — exactly the forward staging — and the
// matrix feeds *both* gradient GEMMs:
//
//   wgrad  gw_img[krows x oc] += packA(col) x packB(grad_out band^T)
//          (grad_out^T packed straight from the parent tensor via
//          gemmPackBStrided; beta = 1 chains the image's bands, and
//          per-image partials reduce into grad_w serially in image
//          order — bitwise-identical for any thread count),
//   dgrad  gcol = packA(W^T) x packB(grad_out band), scattered into
//          the parent grad_x through col2imViewStrided's hoisted
//          flank bounds (W^T packed once per call).
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
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvBackwardPlan(
                          std::min<int64_t>(n, 2), c, ih, iw, oc, win,
                          scheme),
                      "split conv backward");

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
    int64_t max_band_rows = 0;
    for (const SplitBandItem &b : bands)
        max_band_rows = std::max(max_band_rows, b.oy1 - b.oy0);
    const int64_t max_band_cols = max_band_rows * out_w;

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

    for (int64_t w0 = 0; w0 < n; w0 += wave) {
        const int64_t wn = std::min(wave, n - w0);
        globalPool().parallelFor(wn, [&](int64_t begin, int64_t end) {
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * max_band_cols);
            float *gcol = warena.alloc(krows * max_band_cols);
            float *pa_col =
                warena.alloc(gemmPackedASize(krows, max_band_cols));
            float *pb_got =
                warena.alloc(gemmPackedBSize(max_band_cols, oc));
            float *pb_go =
                warena.alloc(gemmPackedBSize(oc, max_band_cols));
            for (int64_t wi = begin; wi < end; ++wi) {
                const int64_t in = w0 + wi;
                const float *go = grad_out.data() + in * oc * ospatial;
                const float *img = x.data() + in * c * ih * iw;
                float *gx_img = grad_x.data() + in * c * ih * iw;
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
                        // channel and its shared panel read; input
                        // reads and grad_x scatters are recorded
                        // inside the view kernels.
                        shadowRecordSpan(go_band,
                                         {0, oc, ospatial, 1, 0, nb},
                                         false);
                        shadowRecord(wt_panels, panel_floats, false);
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
                    // wgrad: gw_img (krows x oc, grad_w transposed)
                    // accumulates this band's columns x grad_out^T
                    // product; beta = 1 chains bands ascending.
                    gemmPackA(krows, nb, 1.0f, col, pa_col);
                    gemmPackBStrided(nb, oc, go_band, /*rs=*/1,
                                     /*cs=*/ospatial, pb_got);
                    gemmPackedAB(krows, oc, nb, pa_col, pb_got,
                                 bi == 0 ? 0.0f : 1.0f, gw_img, oc);
                    // dgrad: gcol = W^T x grad_out band, scattered
                    // per width patch in ascending order.
                    gemmPackB(oc, nb, go_band, /*ldb=*/ospatial, pb_go);
                    gemmPackedAB(krows, nb, oc, wt_panels, pb_go, 0.0f,
                                 gcol, nb);
                    for (int pi = 0; pi < scheme.w.parts(); ++pi) {
                        const SplitPiece1d &pw =
                            scheme.w.pieces[static_cast<size_t>(pi)];
                        const PatchView view{ph.in_start, pw.in_start,
                                             ph.inLen(), pw.inLen()};
                        col2imViewStrided(
                            gcol + pw.out_start, c, ih, iw, view,
                            patchWindow(win, scheme, band.hi, pi),
                            band.oy0, band.oy1, gx_img, nb, out_w);
                    }
                }
                if (has_bias) {
                    float *gb = gb_acc + wi * oc;
                    if (shadow) {
                        shadow->setItem(n * n_bands + in);
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
                shadow->setItem(n * n_bands + n + in);
                shadowRecord(grad_w.data(), oc * krows, true);
                if (has_bias)
                    shadowRecord(grad_b.data(), oc, true);
            }
            // gw_img is [krows x oc]; grad_w is [oc x krows].
            const float *gw = gw_acc + wi * krows * oc;
            float *dst = grad_w.data();
            for (int64_t o = 0; o < oc; ++o)
                for (int64_t r = 0; r < krows; ++r)
                    dst[o * krows + r] += gw[r * oc + o];
            if (has_bias) {
                const float *gb = gb_acc + wi * oc;
                for (int64_t o = 0; o < oc; ++o)
                    grad_b.at(o) += gb[o];
            }
        }
    }
    if (shadow)
        checkShadow(*shadow, "split conv backward");
}

namespace {

/**
 * Shared driver for split pool backward: one image per worker, the
 * image's patches scattered serially ascending so halo targets
 * (k > s windows straddling a patch seam) accumulate in a fixed
 * order. @p scatter adds patch (hi, wi) of image @p in into grad_x
 * through the patch's view, reading grad_out in place.
 */
template <typename Scatter>
Tensor
splitPool2dBackwardImpl(const Shape &in_shape, const Tensor &grad_out,
                        const Window2d &win,
                        const SplitScheme2d &scheme, const char *what,
                        Scatter &&scatter)
{
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
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolBackwardPlan(std::min<int64_t>(n, 2),
                                                 c, ih, iw, win, scheme),
                      what);

    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(scheme.h.parts()) * wp;

    Tensor grad_x(in_shape); // zero: scatter-add target

    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitPoolBackwardPlan(n, c, ih, iw, win, scheme));
        shadow->bind("grad_x", grad_x.data());
        shadow->bind("grad_out", grad_out.data());
    }

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
                scatter(grad_x, in, hi, wi);
            }
        }
    });
    if (shadow)
        checkShadow(*shadow, what);
    return grad_x;
}

} // namespace

Tensor
splitMaxPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const std::vector<int64_t> &argmax,
                       const SplitScheme2d &scheme)
{
    SCNN_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.numel(),
               "argmax size mismatch");
    const int64_t c = in_shape.dim(1);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return splitPool2dBackwardImpl(
        in_shape, grad_out, Window2d{}, scheme,
        "split max-pool backward",
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            // The forward argmax is absolute into the whole input
            // tensor, and every argmax of an output in this block
            // lies inside the patch's input rectangle (Eqs. 1-2).
            for (int64_t ic = 0; ic < c; ++ic)
                for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy)
                    for (int64_t ox = pw.out_start; ox < pw.out_end;
                         ++ox) {
                        const int64_t oi =
                            ((in * c + ic) * out_h + oy) * out_w + ox;
                        const int64_t idx =
                            argmax[static_cast<size_t>(oi)];
                        if (idx >= 0)
                            gx.at(idx) += grad_out.at(oi);
                    }
        });
}

Tensor
splitAvgPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const Window2d &win,
                       const SplitScheme2d &scheme)
{
    checkSchemeGeometry(win, scheme);
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    const float inv_area = 1.0f / static_cast<float>(win.kh * win.kw);
    return splitPool2dBackwardImpl(
        in_shape, grad_out, win, scheme, "split avg-pool backward",
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            // The exact adjoint of avgPool2dPatch: every in-view tap
            // of an output in the patch block receives
            // grad * 1/(kh*kw) (count_include_pad: out-of-view taps
            // are padding and get nothing, exactly as the forward
            // reads them as zero).
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            const PatchView view{ph.in_start, pw.in_start, ph.inLen(),
                                 pw.inLen()};
            const Window2d local = patchWindow(win, scheme, hi, wi);
            for (int64_t ic = 0; ic < c; ++ic) {
                float *chan = gx.data() + (in * c + ic) * ih * iw;
                const float *gchan =
                    grad_out.data() +
                    ((in * c + ic) * out_h + ph.out_start) * out_w +
                    pw.out_start;
                for (int64_t oy = 0; oy < ph.outLen(); ++oy)
                    for (int64_t ox = 0; ox < pw.outLen(); ++ox) {
                        const float g = gchan[oy * out_w + ox] * inv_area;
                        for (int64_t ky = 0; ky < local.kh; ++ky) {
                            const int64_t iy =
                                oy * local.sh - local.ph_b + ky;
                            if (iy < 0 || iy >= view.ih)
                                continue;
                            for (int64_t kx = 0; kx < local.kw; ++kx) {
                                const int64_t ix =
                                    ox * local.sw - local.pw_b + kx;
                                if (ix >= 0 && ix < view.iw)
                                    chan[view.parentOffset(iy, ix,
                                                           iw)] += g;
                            }
                        }
                    }
            }
        });
}

} // namespace scnn
