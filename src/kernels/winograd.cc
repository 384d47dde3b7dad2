#include "kernels/winograd.h"

#include <algorithm>

#include "analysis/shadow_access.h"
#include "kernels/gemm.h"
#include "util/logging.h"
#include "util/scratch_arena.h"

namespace scnn {

namespace {

/** Tiles (phases 1 and 3) or input channels (weight packing) per
 * SoA block: lane l of every block array belongs to one tile or
 * filter, so each transform statement is one 8-wide vector op. */
constexpr int kLanes = 8;

/** Tiles whose descriptors are resolved at once: the input transform
 * walks the chunk once per channel, so each V_e row is written in
 * 256-byte runs. */
constexpr int64_t kChunkTiles = 64;

/**
 * Weight transform U = G g G^T for kLanes 3x3 filters, with
 * G = [[1, 0, 0], [1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [0, 0, 1]].
 * g[j][l] is tap j (row-major) of filter l; u[e][l] is transform
 * point e (row-major 4x4) of filter l.
 */
void
transformWeightBlock(const float g[9][kLanes], float u[16][kLanes])
{
    float t[4][3][kLanes];
    for (int col = 0; col < 3; ++col)
        for (int l = 0; l < kLanes; ++l) {
            const float g0 = g[0 * 3 + col][l];
            const float g1 = g[1 * 3 + col][l];
            const float g2 = g[2 * 3 + col][l];
            t[0][col][l] = g0;
            t[1][col][l] = 0.5f * (g0 + g1 + g2);
            t[2][col][l] = 0.5f * (g0 - g1 + g2);
            t[3][col][l] = g2;
        }
    for (int row = 0; row < 4; ++row)
        for (int l = 0; l < kLanes; ++l) {
            const float t0 = t[row][0][l];
            const float t1 = t[row][1][l];
            const float t2 = t[row][2][l];
            u[row * 4 + 0][l] = t0;
            u[row * 4 + 1][l] = 0.5f * (t0 + t1 + t2);
            u[row * 4 + 2][l] = 0.5f * (t0 - t1 + t2);
            u[row * 4 + 3][l] = t2;
        }
}

/**
 * Input transform V = B^T d B for kLanes 4x4 tiles, with
 * B^T = [[1,0,-1,0], [0,1,1,0], [0,-1,1,0], [0,1,0,-1]].
 * d[r*4+col][l] is element (r, col) of tile l.
 */
void
transformInputBlock(const float d[16][kLanes], float v[16][kLanes])
{
    float t[4][4][kLanes];
    for (int col = 0; col < 4; ++col)
        for (int l = 0; l < kLanes; ++l) {
            t[0][col][l] = d[0 * 4 + col][l] - d[2 * 4 + col][l];
            t[1][col][l] = d[1 * 4 + col][l] + d[2 * 4 + col][l];
            t[2][col][l] = d[2 * 4 + col][l] - d[1 * 4 + col][l];
            t[3][col][l] = d[1 * 4 + col][l] - d[3 * 4 + col][l];
        }
    for (int row = 0; row < 4; ++row)
        for (int l = 0; l < kLanes; ++l) {
            v[row * 4 + 0][l] = t[row][0][l] - t[row][2][l];
            v[row * 4 + 1][l] = t[row][1][l] + t[row][2][l];
            v[row * 4 + 2][l] = t[row][2][l] - t[row][1][l];
            v[row * 4 + 3][l] = t[row][1][l] - t[row][3][l];
        }
}

/**
 * Output transform Y = A^T m A plus the bias for kLanes tiles, with
 * A^T = [[1,1,1,0], [0,1,-1,-1]]; y[r*2+col][l] is output (r, col)
 * of tile l.
 */
void
transformOutputBlock(const float m[16][kLanes], float b,
                     float y[4][kLanes])
{
    float t[2][4][kLanes];
    for (int col = 0; col < 4; ++col)
        for (int l = 0; l < kLanes; ++l) {
            t[0][col][l] =
                m[0 * 4 + col][l] + m[1 * 4 + col][l] + m[2 * 4 + col][l];
            t[1][col][l] =
                m[1 * 4 + col][l] - m[2 * 4 + col][l] - m[3 * 4 + col][l];
        }
    for (int row = 0; row < 2; ++row)
        for (int l = 0; l < kLanes; ++l) {
            y[row * 2 + 0][l] =
                t[row][0][l] + t[row][1][l] + t[row][2][l] + b;
            y[row * 2 + 1][l] =
                t[row][1][l] - t[row][2][l] - t[row][3][l] + b;
        }
}

/** Where one tile reads its input and writes its output. */
struct TileRef
{
    const float *img;       ///< the patch's parent image (channel 0)
    const PatchView *view;  ///< the patch inside that image
    int64_t y0, x0;         ///< patch-local top-left input coordinate
    bool interior;          ///< all 16 inputs inside the view
    float *out;             ///< parent output of output (0, 0), channel 0
    int64_t rows, cols;     ///< outputs inside the patch output (<= 2)
};

} // namespace

bool
winogradApplicable(const Window2d &win)
{
    return win.kh == 3 && win.kw == 3 && win.sh == 1 && win.sw == 1;
}

bool
winogradCostModelWins(int64_t c, int64_t oc)
{
    // Per 2x2 output tile, winograd saves 36*c*oc - 16*c*oc = 20*c*oc
    // multiply-accumulates over im2col+GEMM, and pays the input
    // transform (~64 flops+moves per channel), the inverse transform
    // (~44 per output channel), and the V scatter. The direct path's
    // GEMM also runs at higher arithmetic intensity than the 16 small
    // contractions, which the margin factor absorbs. A margin of 8.0
    // puts the square-channel crossover at c ~ 43: 32 channels stay
    // on im2col and 64 take winograd. Measured on the register-tiled
    // AVX2 microkernel and blocked transforms (56x56 input, square
    // channels, 1 thread, unsplit and 2x2 split, medians of 21 runs
    // on a shared 4-vCPU Xeon): winograd is ~0.9x at c = oc = 16,
    // ~1.1-1.15x at 32, ~1.35x at 64 and ~1.65x at 128, so the real
    // crossover now sits between 16 and 32. The margin is kept:
    // moving 32-channel layers to winograd would change their
    // scalar-kernel output bits.
    return 20.0 * double(c) * double(oc) >=
           8.0 * (64.0 * double(c) + 44.0 * double(oc));
}

int64_t
winogradPackedUSize(int64_t oc, int64_t c)
{
    return 16 * gemmPackedASize(oc, c);
}

void
winogradPackWeights(const float *weight, int64_t oc, int64_t c,
                    float *pu)
{
    // Stage the 16 transform-point matrices U_e (oc x c, row-major)
    // in the arena, transforming kLanes input channels of one output
    // channel per block, then pack each one into microkernel
    // A-panels.
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *ue = arena.alloc(16 * oc * c);
    for (int64_t o = 0; o < oc; ++o)
        for (int64_t ic0 = 0; ic0 < c; ic0 += kLanes) {
            const int64_t nl = std::min<int64_t>(kLanes, c - ic0);
            float g[9][kLanes];
            for (int j = 0; j < 9; ++j)
                for (int64_t l = 0; l < kLanes; ++l)
                    g[j][l] = l < nl ? weight[(o * c + ic0 + l) * 9 + j]
                                     : 0.0f;
            float u[16][kLanes];
            transformWeightBlock(g, u);
            // A full block copies a constant kLanes floats, which
            // compiles to vector moves rather than a memmove call.
            for (int e = 0; e < 16; ++e) {
                float *dst = ue + e * oc * c + o * c + ic0;
                if (nl == kLanes)
                    std::copy_n(u[e], kLanes, dst);
                else
                    std::copy_n(u[e], nl, dst);
            }
        }
    const int64_t pa_sz = gemmPackedASize(oc, c);
    for (int e = 0; e < 16; ++e)
        gemmPackA(oc, c, 1.0f, ue + e * oc * c, pu + e * pa_sz);
}

void
conv2dWinogradPatches(const WinogradPatch *patches, int64_t count,
                      int64_t c, int64_t ih, int64_t iw,
                      const float *pu, int64_t oc, const float *bias,
                      int64_t ty0, int64_t ty1, int64_t out_oh,
                      int64_t out_ow)
{
    auto tilesX = [](const WinogradPatch &p) {
        return (p.win.outW(p.view.iw) + 1) / 2;
    };
    int64_t tiles = 0;
    for (int64_t pi = 0; pi < count; ++pi) {
        SCNN_CHECK(winogradApplicable(patches[pi].win),
                   "not a winograd geometry");
        tiles += (ty1 - ty0) * tilesX(patches[pi]);
    }
    if (tiles <= 0)
        return;

    // V and M rows hold a whole number of kLanes blocks, so every
    // block loads and stores full vectors; the padding lanes carry
    // zero tiles through the GEMM and are never written out.
    const int64_t ld = (tiles + kLanes - 1) / kLanes * kLanes;
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *v = arena.alloc(16 * c * ld);
    float *m = arena.alloc(16 * oc * ld);

    // Resolve flat tiles [t0, t0 + n) into refs: tiles run patch
    // after patch, row-major within a patch, so a block of kLanes
    // consecutive tiles may span rows, patches and images.
    TileRef refs[kChunkTiles];
    auto resolve = [&](int64_t t0, int64_t n) {
        int64_t pi = 0, base = 0;
        while (t0 >= base + (ty1 - ty0) * tilesX(patches[pi])) {
            base += (ty1 - ty0) * tilesX(patches[pi]);
            ++pi;
        }
        int64_t tiles_x = tilesX(patches[pi]);
        int64_t ty = ty0 + (t0 - base) / tiles_x;
        int64_t tx = (t0 - base) % tiles_x;
        for (int64_t i = 0; i < n; ++i) {
            const WinogradPatch &p = patches[pi];
            const int64_t y0 = 2 * ty - p.win.ph_b;
            const int64_t x0 = 2 * tx - p.win.pw_b;
            const int64_t py = 2 * ty, px = 2 * tx;
            refs[i] = {p.img,
                       &p.view,
                       y0,
                       x0,
                       y0 >= 0 && y0 + 4 <= p.view.ih && x0 >= 0 &&
                           x0 + 4 <= p.view.iw,
                       p.out + (p.oy0 + py) * out_ow + p.ox0 + px,
                       std::min<int64_t>(2, p.win.outH(p.view.ih) - py),
                       std::min<int64_t>(2, p.win.outW(p.view.iw) - px)};
            if (++tx == tiles_x) {
                tx = 0;
                if (++ty == ty1 && i + 1 < n) {
                    ty = ty0;
                    ++pi;
                    tiles_x = tilesX(patches[pi]);
                }
            }
        }
    };

    // Shadow claim: each patch's tile gather stays inside its
    // contiguous input hull (same span im2colViewStrided claims).
    for (int64_t pi = 0; pi < count; ++pi) {
        const WinogradPatch &p = patches[pi];
        shadowRecord(p.img + p.view.r0 * iw + p.view.c0,
                     (c - 1) * ih * iw + (p.view.ih - 1) * iw + p.view.iw,
                     false);
    }

    // Phase 1: gather + transform every input tile, kLanes tiles per
    // block, scattering transform point e of (channel ic, tile t) to
    // V_e(ic, t). Interior tiles read their 4x4 inputs unchecked;
    // border tiles read the split scheme's zero padding outside the
    // view.
    for (int64_t tc = 0; tc < tiles; tc += kChunkTiles) {
        const int64_t nc = std::min(kChunkTiles, tiles - tc);
        resolve(tc, nc);
        for (int64_t ic = 0; ic < c; ++ic)
            for (int64_t b0 = 0; b0 < nc; b0 += kLanes) {
                const int64_t nl = std::min<int64_t>(kLanes, nc - b0);
                float d[16][kLanes];
                for (int64_t l = nl; l < kLanes; ++l)
                    for (int e = 0; e < 16; ++e)
                        d[e][l] = 0.0f;
                for (int64_t l = 0; l < nl; ++l) {
                    const TileRef &tr = refs[b0 + l];
                    const float *chan = tr.img + ic * ih * iw;
                    if (tr.interior) {
                        const float *src =
                            chan + tr.view->parentOffset(tr.y0, tr.x0, iw);
                        for (int r = 0; r < 4; ++r)
                            for (int col = 0; col < 4; ++col)
                                d[r * 4 + col][l] = src[r * iw + col];
                        continue;
                    }
                    for (int r = 0; r < 4; ++r)
                        for (int col = 0; col < 4; ++col) {
                            const int64_t yy = tr.y0 + r;
                            const int64_t xx = tr.x0 + col;
                            d[r * 4 + col][l] =
                                tr.view->inBounds(yy, xx)
                                    ? chan[tr.view->parentOffset(yy, xx,
                                                                 iw)]
                                    : 0.0f;
                        }
                }
                float tv[16][kLanes];
                transformInputBlock(d, tv);
                for (int e = 0; e < 16; ++e)
                    std::copy_n(tv[e], kLanes,
                                v + (e * c + ic) * ld + tc + b0);
            }
    }

    // Phase 2: one packed GEMM per transform point over every tile,
    // M_e = U_e (oc x c) * V_e (c x ld). Under the scalar
    // microkernel this accumulates channels ascending with the same
    // per-step rounding as a scalar MAC loop, so M is bit-identical
    // to the per-tile formulation.
    const int64_t pa_sz = gemmPackedASize(oc, c);
    for (int e = 0; e < 16; ++e)
        gemmPackedA(oc, ld, c, pu + e * pa_sz, v + e * c * ld, 0.0f,
                    m + e * oc * ld);

    // Phase 3: inverse-transform kLanes tiles per block for each
    // output channel and write the clipped 2x2 blocks into the
    // strided parent output.
    const int64_t ospatial = out_oh * out_ow;
    for (int64_t tc = 0; tc < tiles; tc += kChunkTiles) {
        const int64_t nc = std::min(kChunkTiles, tiles - tc);
        resolve(tc, nc);
        for (int64_t o = 0; o < oc; ++o) {
            const float b = bias != nullptr ? bias[o] : 0.0f;
            for (int64_t b0 = 0; b0 < nc; b0 += kLanes) {
                const int64_t nl = std::min<int64_t>(kLanes, nc - b0);
                float mm[16][kLanes];
                for (int e = 0; e < 16; ++e)
                    std::copy_n(m + (e * oc + o) * ld + tc + b0, kLanes,
                                mm[e]);
                float y[4][kLanes];
                transformOutputBlock(mm, b, y);
                for (int64_t l = 0; l < nl; ++l) {
                    const TileRef &tr = refs[b0 + l];
                    float *dst = tr.out + o * ospatial;
                    for (int64_t r = 0; r < tr.rows; ++r)
                        for (int64_t col = 0; col < tr.cols; ++col)
                            dst[r * out_ow + col] = y[r * 2 + col][l];
                }
            }
        }
    }
}

} // namespace scnn
