#include "kernels/winograd.h"

#include "analysis/shadow_access.h"
#include "kernels/gemm.h"
#include "util/logging.h"
#include "util/scratch_arena.h"

namespace scnn {

namespace {

/**
 * Weight transform U = G g G^T for one 3x3 filter, with
 * G = [[1, 0, 0], [1/2, 1/2, 1/2], [1/2, -1/2, 1/2], [0, 0, 1]].
 */
void
transformWeight(const float *g, float u[4][4])
{
    float t[4][3];
    for (int col = 0; col < 3; ++col) {
        const float g0 = g[0 * 3 + col];
        const float g1 = g[1 * 3 + col];
        const float g2 = g[2 * 3 + col];
        t[0][col] = g0;
        t[1][col] = 0.5f * (g0 + g1 + g2);
        t[2][col] = 0.5f * (g0 - g1 + g2);
        t[3][col] = g2;
    }
    for (int row = 0; row < 4; ++row) {
        const float t0 = t[row][0];
        const float t1 = t[row][1];
        const float t2 = t[row][2];
        u[row][0] = t0;
        u[row][1] = 0.5f * (t0 + t1 + t2);
        u[row][2] = 0.5f * (t0 - t1 + t2);
        u[row][3] = t2;
    }
}

/**
 * Input transform V = B^T d B for one 4x4 tile, with
 * B^T = [[1,0,-1,0], [0,1,1,0], [0,-1,1,0], [0,1,0,-1]].
 */
void
transformInput(const float d[4][4], float v[4][4])
{
    float t[4][4];
    for (int col = 0; col < 4; ++col) {
        t[0][col] = d[0][col] - d[2][col];
        t[1][col] = d[1][col] + d[2][col];
        t[2][col] = d[2][col] - d[1][col];
        t[3][col] = d[1][col] - d[3][col];
    }
    for (int row = 0; row < 4; ++row) {
        v[row][0] = t[row][0] - t[row][2];
        v[row][1] = t[row][1] + t[row][2];
        v[row][2] = t[row][2] - t[row][1];
        v[row][3] = t[row][1] - t[row][3];
    }
}

/**
 * Output transform Y = A^T m A for one tile, with
 * A^T = [[1,1,1,0], [0,1,-1,-1]].
 */
void
transformOutput(const float m[4][4], float y[2][2])
{
    float t[2][4];
    for (int col = 0; col < 4; ++col) {
        t[0][col] = m[0][col] + m[1][col] + m[2][col];
        t[1][col] = m[1][col] - m[2][col] - m[3][col];
    }
    for (int row = 0; row < 2; ++row) {
        y[row][0] = t[row][0] + t[row][1] + t[row][2];
        y[row][1] = t[row][1] - t[row][2] - t[row][3];
    }
}

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
    // contractions, which the margin factor absorbs. Measured on the
    // AVX2 microkernel (56x56 input, square channels): winograd is
    // 0.87x at c = oc = 16, 0.83x at 32, 1.07x at 64, 1.44x at 128 —
    // a margin of 8.0 puts the square-channel crossover at c ~ 43, so
    // 32 loses and 64 wins, matching those measurements.
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
    // in the arena, then pack each one into microkernel A-panels.
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *ue = arena.alloc(16 * oc * c);
    for (int64_t o = 0; o < oc; ++o)
        for (int64_t ic = 0; ic < c; ++ic) {
            float tile[4][4];
            transformWeight(weight + (o * c + ic) * 9, tile);
            for (int e = 0; e < 16; ++e)
                ue[e * oc * c + o * c + ic] = tile[e / 4][e % 4];
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

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *v = arena.alloc(16 * c * tiles);
    float *m = arena.alloc(16 * oc * tiles);

    // Phase 1: gather + transform every input tile of every patch,
    // scattering transform point e of (channel ic, tile t) to
    // V_e(ic, t); patch pi's tiles start at column t0. Channel-major
    // loop keeps the per-e rows of V written sequentially in t.
    for (int64_t pi = 0, t0 = 0; pi < count; ++pi) {
        const WinogradPatch &p = patches[pi];
        const PatchView &view = p.view;
        const int64_t tiles_x = tilesX(p);
        // Shadow claim: the tile gather stays inside the patch's
        // contiguous input hull (same span im2colViewStrided claims).
        shadowRecord(p.img + view.r0 * iw + view.c0,
                     (c - 1) * ih * iw + (view.ih - 1) * iw + view.iw,
                     false);
        for (int64_t ic = 0; ic < c; ++ic) {
            const float *chan = p.img + ic * ih * iw;
            for (int64_t ty = ty0; ty < ty1; ++ty)
                for (int64_t tx = 0; tx < tiles_x; ++tx) {
                    const int64_t t = t0 + (ty - ty0) * tiles_x + tx;
                    const int64_t y0 = 2 * ty - p.win.ph_b;
                    const int64_t x0 = 2 * tx - p.win.pw_b;
                    float d[4][4];
                    for (int r = 0; r < 4; ++r)
                        for (int col = 0; col < 4; ++col) {
                            const int64_t yy = y0 + r;
                            const int64_t xx = x0 + col;
                            d[r][col] =
                                view.inBounds(yy, xx)
                                    ? chan[view.parentOffset(yy, xx, iw)]
                                    : 0.0f;
                        }
                    float tile[4][4];
                    transformInput(d, tile);
                    for (int e = 0; e < 16; ++e)
                        v[(e * c + ic) * tiles + t] = tile[e / 4][e % 4];
                }
        }
        t0 += (ty1 - ty0) * tiles_x;
    }

    // Phase 2: one packed GEMM per transform point over every tile,
    // M_e = U_e (oc x c) * V_e (c x tiles). Under the scalar
    // microkernel this accumulates channels ascending with the same
    // per-step rounding as a scalar MAC loop, so M is bit-identical
    // to the per-tile formulation.
    const int64_t pa_sz = gemmPackedASize(oc, c);
    for (int e = 0; e < 16; ++e)
        gemmPackedA(oc, tiles, c, pu + e * pa_sz,
                    v + e * c * tiles, 0.0f, m + e * oc * tiles);

    // Phase 3: inverse-transform each tile per output channel and
    // write the clipped 2x2 block into the strided parent output.
    for (int64_t pi = 0, t0 = 0; pi < count; ++pi) {
        const WinogradPatch &p = patches[pi];
        const int64_t oh_p = p.win.outH(p.view.ih);
        const int64_t ow_p = p.win.outW(p.view.iw);
        const int64_t tiles_x = tilesX(p);
        for (int64_t o = 0; o < oc; ++o) {
            const float b = bias != nullptr ? bias[o] : 0.0f;
            float *ochan = p.out + o * out_oh * out_ow;
            for (int64_t ty = ty0; ty < ty1; ++ty)
                for (int64_t tx = 0; tx < tiles_x; ++tx) {
                    const int64_t t = t0 + (ty - ty0) * tiles_x + tx;
                    float mm[4][4];
                    for (int e = 0; e < 16; ++e)
                        mm[e / 4][e % 4] =
                            m[(e * oc + o) * tiles + t];
                    float y[2][2];
                    transformOutput(mm, y);
                    for (int r = 0; r < 2; ++r)
                        for (int col = 0; col < 2; ++col) {
                            const int64_t py = 2 * ty + r;
                            const int64_t px = 2 * tx + col;
                            if (py < oh_p && px < ow_p)
                                ochan[(p.oy0 + py) * out_ow + p.ox0 +
                                      px] = y[r][col] + b;
                        }
                }
        }
        t0 += (ty1 - ty0) * tiles_x;
    }
}

} // namespace scnn
