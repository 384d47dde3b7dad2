/**
 * @file
 * Differential sweep of the window-op engine against the materialized
 * oracle (window_oracle.h): every public entry point — conv forward
 * (both kernels) and backward, max/avg pool forward and backward — on
 * the one-piece scheme and on random split schemes.
 *
 * Geometries: k in {1, 2, 3, 5}, s in {1, 2, 3} including k < s (the
 * downsampling extension), independent random paddings per side,
 * even, uneven and stochastic output partitions, random input-split
 * policies, bias on and off. A second, hand-picked halo grid pins
 * the geometries random draws may miss: 1px output borders, 3x4
 * uneven grids, 2-row halos, patches of 2-3 rows and natural pool
 * shapes. A third set runs the small-patch regime where conv work
 * items group images (splitConvImageGroups): 1x1 and 2x2 output
 * patches and odd Winograd output widths at batch sizes giving one
 * image per group, one full group and a ragged last group. A fourth
 * set sizes Winograd work items at 1, 7, 8, 9 and 17 tiles, so the
 * 8-tile transform blocks run partial and straddle patch and image
 * boundaries, on uneven grids with negative paddings. Every
 * case runs at 1, 2 and 4 threads under the scalar microkernel and
 * must match the oracle bitwise; a SIMD pass checks the same cases
 * within float tolerance. The seed is fixed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "core/split_op.h"
#include "kernels/conv2d.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "kernels/winograd.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"
#include "util/threadpool.h"
#include "window_oracle.h"

namespace scnn {
namespace {

class ScopedSimd
{
  public:
    explicit ScopedSimd(bool enabled) : prev_(simdEnabled())
    {
        setSimdEnabled(enabled);
    }
    ~ScopedSimd() { setSimdEnabled(prev_); }

  private:
    bool prev_;
};

class ThreadGuard
{
  public:
    explicit ThreadGuard(int threads) : prev_(globalThreads())
    {
        setGlobalThreads(threads);
    }
    ~ThreadGuard() { setGlobalThreads(prev_); }

  private:
    int prev_;
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

struct Case
{
    std::string name;
    Window2d win;
    int64_t ih = 0, iw = 0;
    SplitScheme2d scheme;
    bool unsplit = false; ///< scheme is unsplitScheme(win, ih, iw)
    bool bias = false;
    int64_t n = 3; ///< batch size
};

/** A random output partition of [0, l) into at most @p max_parts
 * pieces: even, uneven (random cut points) or stochastic. */
std::vector<int64_t>
partition(int64_t l, int max_parts, int kind, Rng &rng)
{
    const int parts = static_cast<int>(
        std::min<int64_t>(l, rng.uniformInt(1, max_parts)));
    if (parts == 1)
        return {0};
    if (kind == 0)
        return evenOutputSplit(l, parts);
    if (kind == 2)
        return stochasticOutputSplit(l, parts, 0.3, rng);
    std::vector<int64_t> cuts{0};
    while (static_cast<int>(cuts.size()) < parts) {
        const int64_t c = rng.uniformInt(1, l - 1);
        if (std::find(cuts.begin(), cuts.end(), c) == cuts.end())
            cuts.push_back(c);
    }
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

std::vector<Case>
sweepCases()
{
    Rng rng(20261017);
    std::vector<Case> cases;
    const InputSplitPolicy policies[] = {InputSplitPolicy::LowerBound,
                                         InputSplitPolicy::Center,
                                         InputSplitPolicy::UpperBound};
    for (int64_t k : {1, 2, 3, 5})
        for (int64_t s : {1, 2, 3})
            for (int rep = 0; rep < 8; ++rep) {
                Case cs;
                auto pad = [&] { return rng.uniformInt(0, k - 1); };
                cs.win = Window2d{k, k, s, s, pad(), pad(), pad(), pad()};
                cs.ih = std::max<int64_t>(k, 5) + rng.uniformInt(0, 11);
                cs.iw = std::max<int64_t>(k, 5) + rng.uniformInt(0, 11);
                cs.bias = rep % 2 == 1;
                const int64_t oh = cs.win.outH(cs.ih);
                const int64_t ow = cs.win.outW(cs.iw);
                if (rep == 0) {
                    cs.unsplit = true;
                    cs.scheme = unsplitScheme(cs.win, cs.ih, cs.iw);
                } else {
                    const InputSplitPolicy policy =
                        policies[rng.uniformInt(0, 2)];
                    const WindowParams1d hop{k, s, cs.win.ph_b,
                                             cs.win.ph_e};
                    const WindowParams1d wop{k, s, cs.win.pw_b,
                                             cs.win.pw_e};
                    cs.scheme.h = splitWindowOp(
                        hop, cs.ih, partition(oh, 3, (rep - 1) % 3, rng),
                        policy, /*allow_downsample=*/k < s);
                    cs.scheme.w = splitWindowOp(
                        wop, cs.iw, partition(ow, 3, (rep - 1) % 3, rng),
                        policy, /*allow_downsample=*/k < s);
                }
                cs.name = cs.win.toString() + " " +
                          std::to_string(cs.ih) + "x" +
                          std::to_string(cs.iw) + " grid " +
                          std::to_string(cs.scheme.h.parts()) + "x" +
                          std::to_string(cs.scheme.w.parts()) +
                          (cs.bias ? " bias" : "");
                cases.push_back(cs);
            }
    return cases;
}

/** A hand-picked halo geometry: square window, even split grid. */
struct HaloCase
{
    const char *name;
    int64_t ih, iw;  ///< input extents
    int64_t k, s, p; ///< square kernel/stride/pad
    int nh, nw;      ///< split parts per axis
};

const HaloCase kHaloCases[] = {
    {"borders_1px", 9, 9, 3, 1, 1, 3, 3},  // 1px output borders
    {"uneven", 17, 19, 3, 1, 1, 3, 4},     // uneven patch extents
    {"stride2", 18, 22, 3, 2, 1, 2, 3},    // strided windows
    {"big_halo", 16, 16, 5, 1, 2, 2, 2},   // 2-row halos
    {"no_pad", 14, 12, 3, 1, 0, 2, 2},     // halo only, no zeros
    {"tiny_patches", 7, 7, 3, 1, 1, 3, 3}, // patches of 2-3 rows
};

/** Pool-only shapes on top of the conv halo grid. */
const HaloCase kPoolHaloCases[] = {
    {"natural_2x2", 16, 16, 2, 2, 0, 2, 2},
    {"natural_pad", 14, 14, 2, 2, 1, 2, 2},
    {"pool3_stride2", 21, 17, 3, 2, 1, 3, 2},
};

/** The halo grid as sweep cases, each with bias off and on; @p pool
 * adds the pool-only shapes. */
std::vector<Case>
haloCases(bool pool)
{
    std::vector<HaloCase> grid(std::begin(kHaloCases),
                               std::end(kHaloCases));
    if (pool)
        grid.insert(grid.end(), std::begin(kPoolHaloCases),
                    std::end(kPoolHaloCases));
    std::vector<Case> cases;
    for (const HaloCase &hc : grid)
        for (const bool bias : {false, true}) {
            Case cs;
            cs.win = Window2d::square(hc.k, hc.s, hc.p);
            cs.ih = hc.ih;
            cs.iw = hc.iw;
            cs.scheme = splitWindowOp2d(
                cs.win, hc.ih, hc.iw,
                evenOutputSplit(cs.win.outH(hc.ih), hc.nh),
                evenOutputSplit(cs.win.outW(hc.iw), hc.nw),
                InputSplitPolicy::Center);
            cs.bias = bias;
            cs.name = std::string(hc.name) + (bias ? " bias" : "");
            cases.push_back(cs);
        }
    return cases;
}

/** A small-patch geometry for the grouped-batch cases: 3x3/1 pad 1
 * (a Winograd window) with an uneven split grid. */
struct GroupCase
{
    const char *name;
    int64_t ih, iw;
    std::vector<int64_t> h_starts, w_starts; ///< output partitions
};

/** Small patches at batch sizes 1 (one image per item), 8 (one full
 * group) and 37 (full groups plus a ragged last one). */
std::vector<Case>
groupedCases()
{
    const std::vector<GroupCase> grid = {
        {"1x1_patches", 2, 2, {0, 1}, {0, 1}},
        {"2x2_patches", 4, 4, {0, 2}, {0, 2}},
        {"odd_width", 3, 5, {0}, {0, 3}},    // 3- and 2-wide patches
        {"odd_mixed", 5, 7, {0, 2}, {0, 1, 4}},
        {"unsplit_3x3", 3, 3, {0}, {0}},
    };
    std::vector<Case> cases;
    for (const GroupCase &gc : grid)
        for (const int64_t n : {1, 8, 37}) {
            Case cs;
            cs.win = Window2d::square(3, 1, 1);
            cs.ih = gc.ih;
            cs.iw = gc.iw;
            cs.scheme = splitWindowOp2d(cs.win, gc.ih, gc.iw, gc.h_starts,
                                        gc.w_starts,
                                        InputSplitPolicy::Center);
            cs.bias = n != 8;
            cs.n = n;
            cs.name = std::string(gc.name) + " n=" + std::to_string(n) +
                      (cs.bias ? " bias" : "");
            cases.push_back(cs);
        }
    return cases;
}

/** A Winograd split geometry whose work items hold a chosen number of
 * tiles: the 3x3/1 transforms run kLanes = 8 tiles per block over the
 * flat tile index of a work item, so these counts cover a lone tile,
 * one partial block, exactly one block, one block plus a remainder
 * and two blocks plus one, with blocks straddling patch and image
 * boundaries. */
struct BlockCase
{
    const char *name;
    int64_t pad, ih, iw;
    std::vector<int64_t> h_starts, w_starts; ///< output partitions
    InputSplitPolicy policy;
    int64_t n;
    int64_t tiles; ///< tile count at least one work item must hold
    /** Explicit W input starts, outside [lb, ub] as a residual fork's
     * second consumer gets them (negative paddings); empty: policy. */
    std::vector<int64_t> w_in = {};
};

/** Tiles in each conv work item of @p cs (image group x row band),
 * from the engine's own decomposition. */
std::vector<int64_t>
itemTileCounts(const Case &cs)
{
    int64_t tiles_x = 0;
    for (const SplitPiece1d &pw : cs.scheme.w.pieces)
        tiles_x += (pw.outLen() + 1) / 2;
    std::vector<int64_t> counts;
    for (const SplitImageGroup &grp : splitConvImageGroups(
             cs.n, splitConvImageCols(cs.scheme, /*winograd=*/true)))
        for (const SplitBandItem &band : splitConvBandItems(cs.scheme.h))
            counts.push_back((grp.n1 - grp.n0) *
                             ((band.oy1 + 1) / 2 - band.oy0 / 2) * tiles_x);
    return counts;
}

std::vector<Case>
winogradBlockCases()
{
    const InputSplitPolicy lower = InputSplitPolicy::LowerBound;
    const InputSplitPolicy upper = InputSplitPolicy::UpperBound;
    const InputSplitPolicy center = InputSplitPolicy::Center;
    const std::vector<BlockCase> grid = {
        // One 1-tile item per 2-row patch.
        {"1_tile", 1, 4, 2, {0, 2}, {0}, center, 1, 1},
        // Seven images of one tile each: a single partial block.
        {"7_tiles_7_images", 1, 4, 2, {0, 2}, {0}, upper, 7, 7},
        // Three uneven width patches (2, 4, 7 outputs: 1 + 2 + 4
        // tiles) of one image; the last starts one column early
        // (begin padding -1).
        {"7_tiles_3_patches", 1, 2, 13, {0}, {0, 2, 6}, upper, 1, 7,
         {0, 1, 4}},
        // Two width patches of four images: one full block across
        // four image boundaries.
        {"8_tiles", 1, 4, 4, {0, 2}, {0, 2}, upper, 4, 8},
        // Unpadded window, patches of 1 + 2 tiles, three images.
        {"9_tiles", 0, 4, 8, {0}, {0, 2}, lower, 3, 9},
        // 11-image groups of 3 tiles, then a ragged 3-image group.
        {"9_tiles_ragged_group", 1, 4, 5, {0, 2}, {0, 1}, upper, 14, 9},
        // Width patches of 4, 11 and 18 outputs (2 + 6 + 9 tiles),
        // each of the first two holding one input column its windows
        // never read (end padding -1); two images per group, the last
        // group one image.
        {"17_tiles", 1, 3, 33, {0, 2}, {0, 4, 15}, upper, 3, 17,
         {0, 6, 17}},
        // Multi-row patches with interior tiles and ragged last rows;
        // with the centered split a patch's last tile column ends
        // exactly at its view edge, next to its neighbour's inputs.
        {"interior", 1, 14, 14, {0, 5}, {0, 6, 9}, upper, 2, 40},
        {"interior_centered", 1, 14, 14, {0, 5}, {0, 6, 9}, center, 2, 40},
    };
    std::vector<Case> cases;
    for (const BlockCase &bc : grid) {
        Case cs;
        cs.win = Window2d::square(3, 1, bc.pad);
        cs.ih = bc.ih;
        cs.iw = bc.iw;
        cs.scheme = splitWindowOp2d(cs.win, bc.ih, bc.iw, bc.h_starts,
                                    bc.w_starts, bc.policy);
        if (!bc.w_in.empty())
            cs.scheme.w = buildSplitScheme({3, 1, bc.pad, bc.pad}, bc.iw,
                                           bc.w_starts, bc.w_in);
        cs.n = bc.n;
        cs.bias = bc.n % 2 == 1;
        cs.name = bc.name;
        const std::vector<int64_t> counts = itemTileCounts(cs);
        EXPECT_NE(std::find(counts.begin(), counts.end(), bc.tiles),
                  counts.end())
            << bc.name << ": no work item holds " << bc.tiles << " tiles";
        cases.push_back(cs);
    }
    return cases;
}

constexpr int64_t kC = 3, kOC = 4;

/** Per-case inputs, drawn from the case index. */
struct Inputs
{
    Tensor x, w, b, go_conv, go_pool;
};

Inputs
makeInputs(const Case &cs, uint64_t seed)
{
    Rng rng(seed);
    Inputs in;
    in.x = Tensor(Shape{cs.n, kC, cs.ih, cs.iw});
    in.x.fillNormal(rng, 0.0f, 1.0f);
    in.w = Tensor(Shape{kOC, kC, cs.win.kh, cs.win.kw});
    in.w.fillNormal(rng, 0.0f, 0.4f);
    if (cs.bias) {
        in.b = Tensor(Shape{kOC});
        in.b.fillNormal(rng, 0.0f, 0.4f);
    }
    const int64_t oh = cs.win.outH(cs.ih), ow = cs.win.outW(cs.iw);
    in.go_conv = Tensor(Shape{cs.n, kOC, oh, ow});
    in.go_conv.fillNormal(rng, 0.0f, 1.0f);
    in.go_pool = Tensor(Shape{cs.n, kC, oh, ow});
    in.go_pool.fillNormal(rng, 0.0f, 1.0f);
    return in;
}

/** Conv forward through the public entry point the case exercises. */
Tensor
engineConv(const Case &cs, const Inputs &in, ConvKernel kernel)
{
    if (cs.unsplit && kernel == ConvKernel::Im2col &&
        !(winogradApplicable(cs.win) && winogradCostModelWins(kC, kOC)))
        return conv2dForwardAuto(in.x, in.w, in.b, cs.win);
    return splitConv2dForward(in.x, in.w, in.b, cs.win, cs.scheme,
                              kernel);
}

void
engineConvBackward(const Case &cs, const Inputs &in, Tensor &gx,
                   Tensor &gw, Tensor &gb)
{
    gw = Tensor(in.w.shape());
    gb = cs.bias ? Tensor(Shape{kOC}) : Tensor();
    if (cs.unsplit)
        conv2dBackward(in.x, in.w, in.go_conv, cs.win, gx, gw, gb);
    else
        splitConv2dBackward(in.x, in.w, in.go_conv, cs.win, cs.scheme, gx,
                            gw, gb);
}

Tensor
engineMaxPool(const Case &cs, const Inputs &in,
              std::vector<int64_t> &argmax)
{
    if (cs.unsplit)
        return maxPool2dForward(in.x, cs.win, argmax);
    return splitMaxPool2dForward(in.x, cs.win, cs.scheme, argmax);
}

Tensor
engineAvgPool(const Case &cs, const Inputs &in)
{
    if (cs.unsplit)
        return avgPool2dForward(in.x, cs.win);
    return splitAvgPool2dForward(in.x, cs.win, cs.scheme);
}

Tensor
engineAvgPoolBackward(const Case &cs, const Inputs &in)
{
    if (cs.unsplit)
        return avgPool2dBackward(in.x.shape(), in.go_pool, cs.win);
    return splitAvgPool2dBackward(in.x.shape(), in.go_pool, cs.win,
                                  cs.scheme);
}

void
checkConvForward(const std::vector<Case> &cases, uint64_t seed)
{
    ScopedSimd pin(false);
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &cs = cases[i];
        const Inputs in = makeInputs(cs, seed + i);
        const Tensor ref = oracle::splitConvForward(
            in.x, in.w, in.b, cs.win, cs.scheme, /*winograd=*/false);
        const bool wino = winogradApplicable(cs.win);
        const Tensor wref =
            wino ? oracle::splitConvForward(in.x, in.w, in.b, cs.win,
                                            cs.scheme, /*winograd=*/true)
                 : Tensor();
        for (int threads : {1, 2, 4}) {
            ThreadGuard g(threads);
            EXPECT_TRUE(
                bitwiseEqual(engineConv(cs, in, ConvKernel::Im2col), ref))
                << cs.name << " @" << threads << "t";
            if (wino) {
                EXPECT_TRUE(bitwiseEqual(
                    engineConv(cs, in, ConvKernel::Winograd), wref))
                    << cs.name << " winograd @" << threads << "t";
            }
        }
    }
}

void
checkConvBackward(const std::vector<Case> &cases, uint64_t seed)
{
    ScopedSimd pin(false);
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &cs = cases[i];
        const Inputs in = makeInputs(cs, seed + i);
        Tensor rgx, rgw(in.w.shape());
        Tensor rgb = cs.bias ? Tensor(Shape{kOC}) : Tensor();
        oracle::splitConvBackward(in.x, in.w, in.go_conv, cs.win,
                                  cs.scheme, rgx, rgw, rgb);
        for (int threads : {1, 2, 4}) {
            ThreadGuard g(threads);
            Tensor gx, gw, gb;
            engineConvBackward(cs, in, gx, gw, gb);
            EXPECT_TRUE(bitwiseEqual(gx, rgx))
                << cs.name << " grad_x @" << threads << "t";
            EXPECT_TRUE(bitwiseEqual(gw, rgw))
                << cs.name << " grad_w @" << threads << "t";
            if (cs.bias) {
                EXPECT_TRUE(bitwiseEqual(gb, rgb))
                    << cs.name << " grad_b @" << threads << "t";
            }
        }
    }
}

void
checkPoolForward(const std::vector<Case> &cases, uint64_t seed)
{
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &cs = cases[i];
        const Inputs in = makeInputs(cs, seed + i);
        std::vector<int64_t> ref_argmax;
        const Tensor ref_max = oracle::splitMaxPoolForward(
            in.x, cs.win, cs.scheme, &ref_argmax);
        const Tensor ref_avg =
            oracle::splitAvgPoolForward(in.x, cs.win, cs.scheme);
        for (int threads : {1, 2, 4}) {
            ThreadGuard g(threads);
            std::vector<int64_t> argmax;
            EXPECT_TRUE(bitwiseEqual(engineMaxPool(cs, in, argmax), ref_max))
                << cs.name << " max @" << threads << "t";
            EXPECT_EQ(argmax, ref_argmax)
                << cs.name << " argmax @" << threads << "t";
            EXPECT_TRUE(bitwiseEqual(engineAvgPool(cs, in), ref_avg))
                << cs.name << " avg @" << threads << "t";
        }
    }
}

void
checkPoolBackward(const std::vector<Case> &cases, uint64_t seed)
{
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &cs = cases[i];
        const Inputs in = makeInputs(cs, seed + i);
        std::vector<int64_t> argmax;
        oracle::splitMaxPoolForward(in.x, cs.win, cs.scheme, &argmax);
        const Tensor ref_max = oracle::splitMaxPoolBackward(
            in.x.shape(), in.go_pool, argmax, cs.scheme);
        const Tensor ref_avg = oracle::splitAvgPoolBackward(
            in.x.shape(), in.go_pool, cs.win, cs.scheme);
        for (int threads : {1, 2, 4}) {
            ThreadGuard g(threads);
            EXPECT_TRUE(bitwiseEqual(
                maxPool2dBackward(in.x.shape(), in.go_pool, argmax),
                ref_max))
                << cs.name << " max @" << threads << "t";
            EXPECT_TRUE(
                bitwiseEqual(engineAvgPoolBackward(cs, in), ref_avg))
                << cs.name << " avg @" << threads << "t";
        }
    }
}

/** The determinism carve-out: under the SIMD microkernel the conv
 * results need not match the scalar oracle bitwise, only closely. */
void
checkSimdConv(const std::vector<Case> &cases, uint64_t seed)
{
    ScopedSimd pin(true);
    for (size_t i = 0; i < cases.size(); ++i) {
        const Case &cs = cases[i];
        const Inputs in = makeInputs(cs, seed + i);
        EXPECT_TRUE(allClose(engineConv(cs, in, ConvKernel::Im2col),
                             oracle::splitConvForward(in.x, in.w, in.b,
                                                      cs.win, cs.scheme,
                                                      false),
                             1e-4f))
            << cs.name;
        if (winogradApplicable(cs.win)) {
            EXPECT_TRUE(
                allClose(engineConv(cs, in, ConvKernel::Winograd),
                         oracle::splitConvForward(in.x, in.w, in.b,
                                                  cs.win, cs.scheme, true),
                         1e-4f))
                << cs.name << " winograd";
        }
        Tensor rgx, rgw(in.w.shape());
        Tensor rgb = cs.bias ? Tensor(Shape{kOC}) : Tensor();
        oracle::splitConvBackward(in.x, in.w, in.go_conv, cs.win,
                                  cs.scheme, rgx, rgw, rgb);
        Tensor gx, gw, gb;
        engineConvBackward(cs, in, gx, gw, gb);
        EXPECT_TRUE(allClose(gx, rgx, 1e-4f)) << cs.name;
        EXPECT_TRUE(allClose(gw, rgw, 1e-3f)) << cs.name;
    }
}

TEST(SplitOp, SweepConvForwardMatchesOracleBitwise)
{
    checkConvForward(sweepCases(), 100);
}

TEST(SplitBackward, SweepConvBackwardMatchesOracleBitwise)
{
    checkConvBackward(sweepCases(), 200);
}

TEST(SplitPool, SweepForwardMatchesOracleBitwise)
{
    checkPoolForward(sweepCases(), 300);
}

TEST(SplitPool, SweepBackwardMatchesOracleBitwise)
{
    checkPoolBackward(sweepCases(), 400);
}

TEST(SplitOp, SweepSimdConvMatchesOracleWithinTolerance)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD kernel on this build/CPU";
    checkSimdConv(sweepCases(), 500);
}

TEST(SplitOp, HaloGridConvForwardMatchesOracleBitwise)
{
    checkConvForward(haloCases(/*pool=*/false), 600);
}

TEST(SplitBackward, HaloGridConvBackwardMatchesOracleBitwise)
{
    checkConvBackward(haloCases(/*pool=*/false), 700);
}

TEST(SplitPool, HaloGridForwardMatchesOracleBitwise)
{
    checkPoolForward(haloCases(/*pool=*/true), 800);
}

TEST(SplitPool, HaloGridBackwardMatchesOracleBitwise)
{
    checkPoolBackward(haloCases(/*pool=*/true), 900);
}

TEST(SplitOp, HaloGridSimdConvMatchesOracleWithinTolerance)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD kernel on this build/CPU";
    checkSimdConv(haloCases(/*pool=*/false), 1000);
}

TEST(SplitOp, GroupedBatchConvForwardMatchesOracleBitwise)
{
    checkConvForward(groupedCases(), 1100);
}

TEST(SplitBackward, GroupedBatchConvBackwardMatchesOracleBitwise)
{
    checkConvBackward(groupedCases(), 1200);
}

TEST(SplitOp, WinogradBlockRemaindersMatchOracleBitwise)
{
    const std::vector<Case> cases = winogradBlockCases();
    // The fork-adapted input starts give both kinds of negative
    // padding: a patch starting before its first window (begin) and
    // one reaching past its last window (end).
    bool negative_b = false, negative_e = false;
    for (const Case &cs : cases)
        for (int hi = 0; hi < cs.scheme.h.parts(); ++hi)
            for (int wi = 0; wi < cs.scheme.w.parts(); ++wi) {
                const Window2d pw = patchWindow(cs.win, cs.scheme, hi, wi);
                negative_b = negative_b || pw.ph_b < 0 || pw.pw_b < 0;
                negative_e = negative_e || pw.ph_e < 0 || pw.pw_e < 0;
            }
    EXPECT_TRUE(negative_b);
    EXPECT_TRUE(negative_e);
    checkConvForward(cases, 1300);
}

TEST(SplitOp, ImageGroupsCoverBatchAndStopAtTarget)
{
    for (const int64_t n : {0, 1, 2, 7, 8, 37, 64, 100})
        for (const int64_t cols : {1, 2, 3, 4, 15, 16, 31, 32, 33, 896}) {
            const std::vector<SplitImageGroup> groups =
                splitConvImageGroups(n, cols);
            const std::string at =
                "n=" + std::to_string(n) + " cols=" + std::to_string(cols);
            if (n == 0) {
                EXPECT_TRUE(groups.empty()) << at;
                continue;
            }
            // Contiguous, ascending, exactly [0, n); every group but
            // the last has the full size g.
            ASSERT_FALSE(groups.empty()) << at;
            const int64_t g = groups[0].n1 - groups[0].n0;
            EXPECT_EQ(groups.front().n0, 0) << at;
            EXPECT_EQ(groups.back().n1, n) << at;
            for (size_t i = 0; i < groups.size(); ++i) {
                const int64_t size = groups[i].n1 - groups[i].n0;
                EXPECT_GT(size, 0) << at;
                if (i + 1 < groups.size()) {
                    EXPECT_EQ(groups[i + 1].n0, groups[i].n1) << at;
                    EXPECT_EQ(size, g) << at;
                } else {
                    EXPECT_LE(size, g) << at;
                }
            }
            // The fewest images reaching the target, and one image once
            // a band reaches it alone.
            if (cols >= kSplitConvGroupCols) {
                EXPECT_EQ(g, 1) << at;
            } else if (g < n) {
                EXPECT_TRUE(g * cols >= kSplitConvGroupCols &&
                            (g - 1) * cols < kSplitConvGroupCols)
                    << at << " g=" << g;
            }
        }

    // GEMM columns per image: band rows x output width (im2col), 2x2
    // tiles over every width patch (Winograd).
    const Window2d win = Window2d::square(3, 1, 1);
    EXPECT_EQ(splitConvImageCols(unsplitScheme(win, 56, 56), false),
              16 * 56);
    EXPECT_EQ(splitConvImageCols(unsplitScheme(win, 56, 56), true),
              8 * 28);
    const SplitScheme2d small =
        splitWindowOp2d(win, 4, 5, {0, 2}, {0, 3});
    EXPECT_EQ(splitConvImageCols(small, false), 2 * 5);
    EXPECT_EQ(splitConvImageCols(small, true), 1 * (2 + 1));
}

} // namespace
} // namespace scnn
