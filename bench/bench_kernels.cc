/**
 * @file
 * Kernel performance report: measures the blocked GEMM against the
 * naive reference, convolution forward, and split conv, pooling and
 * conv backward across thread counts and split depths, then writes
 * machine-readable results to BENCH_kernels.json (path overridable
 * as argv[1]).
 *
 * Workloads are width-reduced stand-ins for the Figure 8 layers (the
 * real fig08 harness drives the device *simulator*; this one times
 * the actual CPU engine). Run from a Release/-O2 build; CI diffs the
 * JSON against the committed copy in the perf-regression gate and
 * uploads it as an artifact.
 *
 * An elementwise section times the per-element loops a train step
 * runs around the GEMM (ReLU, batchnorm, max-pool, conv operand
 * staging) in GB/s at one VGG-19 layer shape.
 *
 * Every split measurement records the thread count it actually ran
 * with (only counts up to the machine's hardware threads), and each
 * split depth reports split_overhead_ratio = split ms / unsplit ms
 * at the same thread count. The unsplit side is the same engine on
 * the one-piece scheme (conv2dForwardAuto, the engine's max-pool,
 * conv2dBackward), so each ratio measures the split alone.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/split_op.h"
#include "kernels/activations.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/im2col.h"
#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "tensor/tensor.h"
#include "util/rng.h"
#include "util/scratch_arena.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

/** Median-of-repeats wall time of fn(), in seconds. */
template <typename Fn>
double
timeIt(Fn &&fn, int repeats = 5)
{
    fn(); // warm caches and the scratch arena
    std::vector<double> times;
    times.reserve(static_cast<size_t>(repeats));
    for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        times.push_back(
            std::chrono::duration<double>(t1 - t0).count());
    }
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

using GemmFn = void (*)(int64_t, int64_t, int64_t, float, const float *,
                        const float *, float, float *);

struct GemmResult
{
    const char *kind;
    int64_t size;
    double naive_gflops;
    double blocked_gflops;
};

GemmResult
benchGemm(const char *kind, GemmFn naive, GemmFn blocked, int64_t n)
{
    Rng rng(1);
    std::vector<float> a(static_cast<size_t>(n * n));
    std::vector<float> b(static_cast<size_t>(n * n));
    std::vector<float> c(static_cast<size_t>(n * n));
    for (auto &v : a)
        v = rng.normal();
    for (auto &v : b)
        v = rng.normal();
    const double flops = 2.0 * n * n * n;
    // Repeat inside the timed region so small sizes aren't all noise.
    const int inner = n >= 256 ? 4 : 32;
    const double tn = timeIt([&] {
        for (int i = 0; i < inner; ++i)
            naive(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    const double tb = timeIt([&] {
        for (int i = 0; i < inner; ++i)
            blocked(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
    });
    return {kind, n, flops * inner / tn / 1e9,
            flops * inner / tb / 1e9};
}

/** One split-conv measurement: fused split at a given depth and
 * thread count, plus the unsplit conv at the same thread count. */
struct SplitResult
{
    int depth;   ///< depth x depth spatial split
    int threads; ///< pool size the measurement ran with
    double split_ms;
    double unsplit_ms;

    double overheadRatio() const { return split_ms / unsplit_ms; }
};

/** One loop of the elementwise section: its median time and the
 * bytes it reads and writes, each tensor counted once. */
struct ElementwiseResult
{
    const char *name;
    double ms;
    double bytes;

    double gbps() const { return bytes / (ms * 1e6); }
};

/**
 * The per-element loops a train step runs around the GEMM, at the
 * train_vgg19 conv2 shape (32x4x32x32, 3x3 pad 1, 1 thread): ReLU,
 * batchnorm, 2x2 max-pool, and the conv operand staging (im2col and
 * its pack into forward B panels or into wgrad's transposed B panels,
 * the grad_out A pack, and the col2im scatter), each over the whole
 * batch in 16-row bands as the conv engine runs it.
 */
std::vector<ElementwiseResult>
benchElementwise()
{
    const int64_t n = 32, c = 4, hw = 32;
    const double tensor_bytes = double(n * c * hw * hw) * sizeof(float);
    Rng rng(8);
    Tensor x(Shape{n, c, hw, hw}), g(Shape{n, c, hw, hw});
    x.fillNormal(rng, 0.0f, 1.0f);
    g.fillNormal(rng, 0.0f, 1.0f);
    Tensor gamma(Shape{c}, 1.5f), beta(Shape{c}, 0.25f);
    std::vector<ElementwiseResult> out;
    auto add = [&](const char *name, double bytes, auto &&fn) {
        out.push_back({name, timeIt(fn, 11) * 1e3, bytes});
    };

    const Tensor y = reluForward(x);
    add("relu_fwd", 2 * tensor_bytes, [&] { Tensor t = reluForward(x); });
    add("relu_bwd", 3 * tensor_bytes,
        [&] { Tensor t = reluBackward(y, g); });
    BatchNormCache cache;
    add("batchnorm_fwd_stats", 3 * tensor_bytes, [&] {
        Tensor t = batchNormForwardStats(x, gamma, beta, 1e-5f, cache);
    });
    add("batchnorm_bwd", 3 * tensor_bytes, [&] {
        Tensor gg(Shape{c}), gb(Shape{c});
        Tensor t = batchNormBackward(g, gamma, cache, gg, gb);
    });
    std::vector<int64_t> argmax;
    add("maxpool_fwd",
        tensor_bytes * (1.0 + 0.25 + 0.25 * sizeof(int64_t) / sizeof(float)),
        [&] {
            Tensor t = maxPool2dForward(x, Window2d::square(2, 2, 0), argmax);
        });

    // Conv operand staging, per image and 16-row band.
    const Window2d win = Window2d::square(3, 1, 1);
    const int64_t krows = c * 9, band = 16, nb = band * hw;
    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    float *col = arena.alloc(krows * nb);
    float *pb = arena.alloc(gemmPackedBSize(krows, nb));
    float *pbt = arena.alloc(gemmPackedBSize(nb, krows));
    float *pa = arena.alloc(gemmPackedASize(c, nb));
    std::vector<float> gcol(static_cast<size_t>(krows * nb));
    for (auto &v : gcol)
        v = rng.normal();
    Tensor gx(x.shape());
    const double col_bytes = double(n * krows * hw * hw) * sizeof(float);
    auto perBand = [&](auto &&fn) {
        return [&, fn] {
            for (int64_t i = 0; i < n; ++i)
                for (int64_t oy = 0; oy < hw; oy += band)
                    fn(i, oy);
        };
    };
    auto im2colBand = [&](int64_t i, int64_t oy) {
        im2colViewStrided(x.data() + i * c * hw * hw, c, hw, hw,
                          PatchView::full(hw, hw), win, oy, oy + band, col,
                          nb, hw);
    };
    add("im2col_b_stage", col_bytes, perBand([&](int64_t i, int64_t oy) {
            im2colBand(i, oy);
            gemmPackB(krows, nb, col, nb, pb);
        }));
    add("im2col_bt_stage", col_bytes, perBand([&](int64_t i, int64_t oy) {
            im2colBand(i, oy);
            gemmPackBStrided(nb, krows, col, 1, nb, pbt);
        }));
    add("pack_a_grad_out", 2 * tensor_bytes,
        perBand([&](int64_t i, int64_t oy) {
            gemmPackAStrided(c, nb, 1.0f, g.data() + (i * c * hw + oy) * hw,
                             hw * hw, 1, pa);
        }));
    add("col2im", 2 * col_bytes, perBand([&](int64_t i, int64_t oy) {
            col2imViewStrided(gcol.data(), c, hw, hw, PatchView::full(hw, hw),
                              win, oy, oy + band,
                              gx.data() + i * c * hw * hw, nb, hw);
        }));
    return out;
}

} // namespace
} // namespace scnn

int
main(int argc, char **argv)
{
    using namespace scnn;
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_kernels.json";
    const unsigned hw_threads = std::thread::hardware_concurrency();

    // --- GEMM: naive vs blocked --------------------------------------
    std::vector<GemmResult> gemms;
    for (int64_t n : {64, 128, 256}) {
        gemms.push_back(benchGemm("NN", gemmNaive, gemm, n));
        gemms.push_back(benchGemm("TN", gemmTNNaive, gemmTN, n));
        gemms.push_back(benchGemm("NT", gemmNTNaive, gemmNT, n));
    }

    // --- conv2d forward (fig08-style layer, width-reduced) -----------
    // VGG-19 conv3 block at 1/8 width: 16x56x56 input, 3x3 kernels.
    Rng rng(2);
    Tensor cx(Shape{4, 16, 56, 56});
    Tensor cw(Shape{16, 16, 3, 3});
    cx.fillNormal(rng, 0.0f, 1.0f);
    cw.fillNormal(rng, 0.0f, 0.1f);
    const Window2d cwin = Window2d::square(3, 1, 1);
    setGlobalThreads(1);
    const double conv_ms = timeIt([&] {
                               Tensor out = conv2dForwardAuto(
                                   cx, cw, Tensor(), cwin);
                           }) *
                           1e3;

    // --- split conv: depth x thread sweep -----------------------------
    // Thread rows stop at the hardware thread count: more workers
    // than cores only time the scheduler.
    std::vector<int> thread_counts;
    for (int t : {1, 2, 4, 8})
        if (t == 1 || t <= static_cast<int>(hw_threads))
            thread_counts.push_back(t);
    const int depths[] = {2, 4};
    std::vector<SplitResult> splits;
    for (int depth : depths) {
        const auto scheme = splitWindowOp2d(
            cwin, 56, 56, evenOutputSplit(cwin.outH(56), depth),
            evenOutputSplit(cwin.outW(56), depth));
        for (int threads : thread_counts) {
            setGlobalThreads(threads);
            SplitResult r;
            r.depth = depth;
            r.threads = threads;
            // More repeats than the GEMM section: the overhead
            // ratio is a quotient of two medians, so both sides need
            // a stable one (the CI gate thresholds this number).
            r.split_ms = timeIt(
                             [&] {
                                 Tensor out = splitConv2dForward(
                                     cx, cw, Tensor(), cwin, scheme);
                             },
                             11) *
                         1e3;
            r.unsplit_ms = timeIt(
                               [&] {
                                   Tensor out = conv2dForwardAuto(
                                       cx, cw, Tensor(), cwin);
                               },
                               11) *
                           1e3;
            splits.push_back(r);
        }
    }
    setGlobalThreads(1);

    // --- Winograd vs im2col inside the split engine --------------------
    // 64-channel layer (vgg19 conv4 @ 1/8 width), 2x2 split, 1
    // thread, kernel choice pinned on each side. 64 channels is past
    // the cost-model crossover (c ~ 43), so auto-dispatch picks
    // Winograd here and winograd_speedup is the factor it banks; the
    // 16-channel conv2d_forward layer above stays on im2col.
    double wino_ms = 0.0, wino_im2col_ms = 0.0;
    {
        Rng wrng(3);
        Tensor wx(Shape{1, 64, 56, 56});
        Tensor ww(Shape{64, 64, 3, 3});
        wx.fillNormal(wrng, 0.0f, 1.0f);
        ww.fillNormal(wrng, 0.0f, 0.1f);
        const auto scheme = splitWindowOp2d(
            cwin, 56, 56, evenOutputSplit(cwin.outH(56), 2),
            evenOutputSplit(cwin.outW(56), 2));
        wino_im2col_ms = timeIt(
                             [&] {
                                 Tensor out = splitConv2dForward(
                                     wx, ww, Tensor(), cwin, scheme,
                                     ConvKernel::Im2col);
                             },
                             11) *
                         1e3;
        wino_ms = timeIt(
                      [&] {
                          Tensor out = splitConv2dForward(
                              wx, ww, Tensor(), cwin, scheme,
                              ConvKernel::Winograd);
                      },
                      11) *
                  1e3;
    }

    // --- strided im2col staging ---------------------------------------
    // im2col zero-fills the flanks and copies (stride 1) or gathers
    // (stride 2) the middle of each row over a hoisted valid range.
    // Report
    // the column fill rate at both strides (GB/s of produced column
    // data, 64x56x56 input, 3x3 kernel, pad 1, 1 thread).
    double i2c_s1_gbps = 0.0, i2c_s2_gbps = 0.0;
    {
        const int64_t bc = 64, bih = 56, biw = 56;
        Rng irng(5);
        Tensor ix(Shape{1, bc, bih, biw});
        ix.fillNormal(irng, 0.0f, 1.0f);
        auto fillRate = [&](const Window2d &w) {
            const int64_t oh = w.outH(bih), ow = w.outW(biw);
            const int64_t krows = bc * w.kh * w.kw;
            std::vector<float> col(
                static_cast<size_t>(krows * oh * ow));
            const double s = timeIt(
                [&] {
                    im2colViewStrided(ix.data(), bc, bih, biw,
                                      PatchView::full(bih, biw), w, 0,
                                      oh, col.data(), oh * ow, ow);
                },
                11);
            return static_cast<double>(krows * oh * ow) *
                   sizeof(float) / (s * 1e9);
        };
        i2c_s1_gbps = fillRate(Window2d::square(3, 1, 1));
        i2c_s2_gbps = fillRate(Window2d::square(3, 2, 1));
    }

    // --- split pooling: depth x thread sweep --------------------------
    // 3x3 stride-2 max pool over the conv input; overhead ratio is
    // split pool / unsplit pool at the same thread count, both
    // recording the argmax the executor's backward reads.
    const Window2d pwin = Window2d::square(3, 2, 1);
    const SplitScheme2d pool_unsplit = unsplitScheme(pwin, 56, 56);
    std::vector<SplitResult> pool_splits;
    std::vector<int64_t> pool_argmax;
    for (int depth : depths) {
        const auto scheme = splitWindowOp2d(
            pwin, 56, 56, evenOutputSplit(pwin.outH(56), depth),
            evenOutputSplit(pwin.outW(56), depth));
        for (int threads : thread_counts) {
            setGlobalThreads(threads);
            SplitResult r;
            r.depth = depth;
            r.threads = threads;
            r.split_ms = timeIt(
                             [&] {
                                 Tensor out = splitMaxPool2dForward(
                                     cx, pwin, scheme, pool_argmax);
                             },
                             11) *
                         1e3;
            r.unsplit_ms = timeIt(
                               [&] {
                                   Tensor out = splitMaxPool2dForward(
                                       cx, pwin, pool_unsplit, pool_argmax);
                               },
                               11) *
                           1e3;
            pool_splits.push_back(r);
        }
    }
    setGlobalThreads(1);

    // --- split backward: depth x thread sweep -------------------------
    // Same conv3-style layer as the forward sweep; the split backward
    // (dgrad + wgrad + bias) is timed against conv2dBackward (the same
    // engine on the one-piece scheme) at the same thread count, so
    // the ratio isolates the per-patch staging and halo scatter.
    std::vector<SplitResult> backward_splits;
    {
        Rng brng(4);
        Tensor bgo(Shape{4, 16, 56, 56});
        bgo.fillNormal(brng, 0.0f, 1.0f);
        for (int depth : depths) {
            const auto scheme = splitWindowOp2d(
                cwin, 56, 56, evenOutputSplit(cwin.outH(56), depth),
                evenOutputSplit(cwin.outW(56), depth));
            for (int threads : thread_counts) {
                setGlobalThreads(threads);
                SplitResult r;
                r.depth = depth;
                r.threads = threads;
                r.split_ms =
                    timeIt(
                        [&] {
                            Tensor gx, gb;
                            Tensor gw(cw.shape());
                            splitConv2dBackward(cx, cw, bgo, cwin,
                                                scheme, gx, gw, gb);
                        },
                        11) *
                    1e3;
                r.unsplit_ms =
                    timeIt(
                        [&] {
                            Tensor gx, gb;
                            Tensor gw(cw.shape());
                            conv2dBackward(cx, cw, bgo, cwin, gx, gw,
                                           gb);
                        },
                        11) *
                    1e3;
                backward_splits.push_back(r);
            }
        }
        setGlobalThreads(1);
    }

    // --- small-map convs: the deep layers of a split network ---------
    // Per-patch clone shapes of a 2x2-split VGG-19 once its maps have
    // shrunk to 2x2 and 1x1 outputs — the regime image grouping
    // (splitConvImageGroups) targets. Each row times the engine on the
    // whole batch (grouped) and one image at a time (what per-image
    // work items cost), 1 thread, Auto kernel choice.
    struct SmallConv
    {
        const char *name;
        const char *workload;
        int64_t n, c, oc, hw; ///< batch, channels, square output side
        bool backward;
        const char *kernel = "";
        double fwd_ms = 0, per_image_fwd_ms = 0;
        double bwd_ms = 0, per_image_bwd_ms = 0;

        double flops() const { return 2.0 * n * oc * c * 9 * hw * hw; }
    };
    std::vector<SmallConv> small_convs = {
        {"infer_conv6", "8x32x4x4 * 32x32x3x3 pad 1 (4x4 output)", 8,
         32, 32, 4, false},
        {"infer_conv10", "8x64x2x2 * 64x64x3x3 pad 1 (2x2 output)", 8,
         64, 64, 2, false},
        {"infer_conv13", "8x64x1x1 * 64x64x3x3 pad 1 (1x1 output)", 8,
         64, 64, 1, false},
        {"train_conv13", "32x32x2x2 * 32x32x3x3 pad 1 (2x2 output)", 32,
         32, 32, 2, true},
    };
    for (SmallConv &sc : small_convs) {
        Rng srng(6);
        Tensor sx(Shape{sc.n, sc.c, sc.hw, sc.hw});
        Tensor sw(Shape{sc.oc, sc.c, 3, 3});
        Tensor sgo(Shape{sc.n, sc.oc, sc.hw, sc.hw});
        sx.fillNormal(srng, 0.0f, 1.0f);
        sw.fillNormal(srng, 0.0f, 0.1f);
        sgo.fillNormal(srng, 0.0f, 1.0f);
        // Batch-1 copies for the per-image side.
        std::vector<Tensor> xs, gos;
        const int64_t xsz = sc.c * sc.hw * sc.hw;
        const int64_t gsz = sc.oc * sc.hw * sc.hw;
        for (int64_t i = 0; i < sc.n; ++i) {
            xs.emplace_back(Shape{1, sc.c, sc.hw, sc.hw});
            std::copy(sx.data() + i * xsz, sx.data() + (i + 1) * xsz,
                      xs.back().data());
            gos.emplace_back(Shape{1, sc.oc, sc.hw, sc.hw});
            std::copy(sgo.data() + i * gsz, sgo.data() + (i + 1) * gsz,
                      gos.back().data());
        }
        sc.kernel = splitConvUsesWinograd(ConvKernel::Auto, cwin, sc.c,
                                          sc.oc)
                        ? "winograd"
                        : "im2col";
        sc.fwd_ms = timeIt(
                        [&] {
                            Tensor out =
                                conv2dForwardAuto(sx, sw, Tensor(), cwin);
                        },
                        21) *
                    1e3;
        sc.per_image_fwd_ms =
            timeIt(
                [&] {
                    for (const Tensor &xi : xs) {
                        Tensor out =
                            conv2dForwardAuto(xi, sw, Tensor(), cwin);
                    }
                },
                21) *
            1e3;
        if (!sc.backward)
            continue;
        sc.bwd_ms = timeIt(
                        [&] {
                            Tensor gx, gb;
                            Tensor gw(sw.shape());
                            conv2dBackward(sx, sw, sgo, cwin, gx, gw, gb);
                        },
                        21) *
                    1e3;
        sc.per_image_bwd_ms =
            timeIt(
                [&] {
                    Tensor gw(sw.shape());
                    for (int64_t i = 0; i < sc.n; ++i) {
                        Tensor gx, gb;
                        conv2dBackward(xs[static_cast<size_t>(i)], sw,
                                       gos[static_cast<size_t>(i)], cwin,
                                       gx, gw, gb);
                    }
                },
                21) *
            1e3;
    }

    // Packed-GEMM throughput against N at the two GEMM shapes those
    // layers run (im2col: M = oc = 64, K = 64*9; a Winograd transform
    // point: M = K = 64), B packed per call as the engine does. Where
    // it flattens is where grouping stops paying: the basis for
    // kSplitConvGroupCols.
    struct GemmNPoint
    {
        int64_t m, k, n;
        double gflops;
    };
    std::vector<GemmNPoint> gemm_n_sweep;
    {
        Rng grng(7);
        const int64_t max_n = 256;
        for (const auto &mk : {std::pair<int64_t, int64_t>{64, 576},
                               std::pair<int64_t, int64_t>{64, 64}}) {
            const int64_t m = mk.first, k = mk.second;
            std::vector<float> a(static_cast<size_t>(m * k));
            std::vector<float> b(static_cast<size_t>(k * max_n));
            std::vector<float> c(static_cast<size_t>(m * max_n));
            for (auto &v : a)
                v = grng.normal();
            for (auto &v : b)
                v = grng.normal();
            std::vector<float> pa_buf(
                static_cast<size_t>(gemmPackedASize(m, k) + 16));
            std::vector<float> pb_buf(
                static_cast<size_t>(gemmPackedBSize(k, max_n) + 16));
            auto align = [](std::vector<float> &v) {
                auto addr = reinterpret_cast<uintptr_t>(v.data());
                return reinterpret_cast<float *>((addr + 63) &
                                                 ~uintptr_t{63});
            };
            float *pa = align(pa_buf);
            float *pb = align(pb_buf);
            gemmPackA(m, k, 1.0f, a.data(), pa);
            for (int64_t n : {1, 2, 4, 8, 16, 32, 64, 128, 256}) {
                const int inner = 64;
                const double t = timeIt(
                    [&] {
                        for (int i = 0; i < inner; ++i) {
                            gemmPackB(k, n, b.data(), max_n, pb);
                            gemmPackedAB(m, n, k, pa, pb, 0.0f,
                                         c.data(), n);
                        }
                    },
                    11);
                gemm_n_sweep.push_back(
                    {m, k, n, 2.0 * m * n * k * inner / t / 1e9});
            }
        }
    }

    const std::vector<ElementwiseResult> elementwise = benchElementwise();

    auto findIn = [](const std::vector<SplitResult> &v, int depth,
                     int threads) -> const SplitResult * {
        for (const auto &r : v)
            if (r.depth == depth && r.threads == threads)
                return &r;
        return nullptr;
    };

    // --- report -------------------------------------------------------
    FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
        return 1;
    }
    // Per depth: the 1-thread overhead ratio, and the 4-thread
    // speedup when the machine has the threads to measure it.
    auto writeSummary = [&](const char *key,
                            const std::vector<SplitResult> &v,
                            const char *ratio_key) {
        std::fprintf(f, "  \"%s\": {\n", key);
        for (size_t i = 0; i < std::size(depths); ++i) {
            const int depth = depths[i];
            const SplitResult &t1 = *findIn(v, depth, 1);
            std::fprintf(f, "    \"%dx%d\": {\"%s\": %.3f", depth,
                         depth, ratio_key, t1.overheadRatio());
            if (const SplitResult *t4 = findIn(v, depth, 4))
                std::fprintf(f, ", \"speedup_4t\": %.2f",
                             t1.split_ms / t4->split_ms);
            std::fprintf(f, "}%s\n",
                         i + 1 < std::size(depths) ? "," : "");
        }
        std::fprintf(f, "  }");
    };

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"simd_kernel\": \"%s\",\n", simdKernelName());
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw_threads);
    std::fprintf(f, "  \"gemm\": [\n");
    for (size_t i = 0; i < gemms.size(); ++i) {
        const auto &g = gemms[i];
        std::fprintf(f,
                     "    {\"kind\": \"%s\", \"size\": %lld, "
                     "\"naive_gflops\": %.2f, \"blocked_gflops\": "
                     "%.2f, \"speedup\": %.2f}%s\n",
                     g.kind, static_cast<long long>(g.size),
                     g.naive_gflops, g.blocked_gflops,
                     g.blocked_gflops / g.naive_gflops,
                     i + 1 < gemms.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"conv2d_forward\": {\"workload\": "
                 "\"4x16x56x56 * 16x16x3x3 (vgg19 conv3 @ 1/8 "
                 "width)\", \"threads\": 1, \"ms\": %.3f},\n",
                 conv_ms);
    std::fprintf(f, "  \"split_conv\": [\n");
    for (size_t i = 0; i < splits.size(); ++i) {
        const auto &r = splits[i];
        std::fprintf(
            f,
            "    {\"split\": \"%dx%d\", \"threads\": %d, "
            "\"split_ms\": %.3f, \"unsplit_ms\": %.3f, "
            "\"split_overhead_ratio\": %.3f}%s\n",
            r.depth, r.depth, r.threads, r.split_ms, r.unsplit_ms,
            r.overheadRatio(), i + 1 < splits.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    writeSummary("split_conv_summary", splits, "split_overhead_ratio_1t");
    std::fprintf(f, ",\n");
    std::fprintf(f,
                 "  \"winograd\": {\"workload\": \"1x64x56x56 * "
                 "64x64x3x3, 2x2 split, 1 thread\", \"im2col_ms\": "
                 "%.3f, \"winograd_ms\": %.3f, \"winograd_speedup\": "
                 "%.3f},\n",
                 wino_im2col_ms, wino_ms, wino_im2col_ms / wino_ms);
    std::fprintf(f,
                 "  \"im2col_strided\": {\"workload\": \"64x56x56, "
                 "3x3 pad 1, full view, 1 thread\", "
                 "\"stride1_fill_gbps\": %.2f, \"stride2_fill_gbps\": "
                 "%.2f},\n",
                 i2c_s1_gbps, i2c_s2_gbps);
    std::fprintf(f, "  \"split_pool\": [\n");
    for (size_t i = 0; i < pool_splits.size(); ++i) {
        const auto &r = pool_splits[i];
        std::fprintf(
            f,
            "    {\"split\": \"%dx%d\", \"threads\": %d, "
            "\"split_ms\": %.3f, \"unsplit_ms\": %.3f, "
            "\"split_pool_overhead_ratio\": %.3f}%s\n",
            r.depth, r.depth, r.threads, r.split_ms, r.unsplit_ms,
            r.overheadRatio(), i + 1 < pool_splits.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    writeSummary("split_pool_summary", pool_splits,
                 "split_pool_overhead_ratio_1t");
    std::fprintf(f, ",\n");
    std::fprintf(f, "  \"split_backward\": [\n");
    for (size_t i = 0; i < backward_splits.size(); ++i) {
        const auto &r = backward_splits[i];
        std::fprintf(
            f,
            "    {\"split\": \"%dx%d\", \"threads\": %d, "
            "\"split_ms\": %.3f, \"unsplit_ms\": %.3f, "
            "\"split_backward_overhead_ratio\": %.3f}%s\n",
            r.depth, r.depth, r.threads, r.split_ms, r.unsplit_ms,
            r.overheadRatio(),
            i + 1 < backward_splits.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    writeSummary("split_backward_summary", backward_splits,
                 "split_backward_overhead_ratio_1t");
    std::fprintf(f, ",\n");
    std::fprintf(f, "  \"small_spatial_conv\": {\n");
    std::fprintf(f, "    \"threads\": 1, \"group_cols\": %lld,\n",
                 static_cast<long long>(kSplitConvGroupCols));
    std::fprintf(f, "    \"layers\": [\n");
    for (size_t i = 0; i < small_convs.size(); ++i) {
        const SmallConv &sc = small_convs[i];
        std::fprintf(f,
                     "      {\"name\": \"%s\", \"workload\": \"%s\", "
                     "\"kernel\": \"%s\", \"fwd_ms\": %.4f, "
                     "\"fwd_gflops\": %.2f, \"per_image_fwd_ms\": "
                     "%.4f, \"fwd_group_speedup\": %.2f",
                     sc.name, sc.workload, sc.kernel, sc.fwd_ms,
                     sc.flops() / (sc.fwd_ms * 1e6),
                     sc.per_image_fwd_ms,
                     sc.per_image_fwd_ms / sc.fwd_ms);
        if (sc.backward)
            std::fprintf(f,
                         ", \"bwd_ms\": %.4f, \"bwd_gflops\": %.2f, "
                         "\"per_image_bwd_ms\": %.4f, "
                         "\"bwd_group_speedup\": %.2f",
                         sc.bwd_ms, 2.0 * sc.flops() / (sc.bwd_ms * 1e6),
                         sc.per_image_bwd_ms,
                         sc.per_image_bwd_ms / sc.bwd_ms);
        std::fprintf(f, "}%s\n", i + 1 < small_convs.size() ? "," : "");
    }
    std::fprintf(f, "    ],\n");
    std::fprintf(f, "    \"gemm_n_sweep\": [\n");
    for (size_t i = 0; i < gemm_n_sweep.size(); ++i) {
        const GemmNPoint &g = gemm_n_sweep[i];
        std::fprintf(f,
                     "      {\"m\": %lld, \"k\": %lld, \"n\": %lld, "
                     "\"gflops\": %.2f}%s\n",
                     static_cast<long long>(g.m),
                     static_cast<long long>(g.k),
                     static_cast<long long>(g.n), g.gflops,
                     i + 1 < gemm_n_sweep.size() ? "," : "");
    }
    std::fprintf(f, "    ]\n");
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"elementwise\": {\"workload\": \"32x4x32x32 "
                 "(train_vgg19 conv2), 3x3 pad 1, 16-row bands\", "
                 "\"threads\": 1, \"loops\": [\n");
    for (size_t i = 0; i < elementwise.size(); ++i) {
        const ElementwiseResult &e = elementwise[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"ms\": %.4f, "
                     "\"gbps\": %.2f}%s\n",
                     e.name, e.ms, e.gbps(),
                     i + 1 < elementwise.size() ? "," : "");
    }
    std::fprintf(f, "  ]}\n");
    std::fprintf(f, "}\n");
    std::fclose(f);

    std::printf("wrote %s\n", out_path.c_str());
    std::printf("simd kernel: %s, hardware threads: %u\n",
                simdKernelName(), hw_threads);
    for (const auto &g : gemms)
        std::printf("gemm %s %lld: naive %.2f GF/s, blocked %.2f "
                    "GF/s (%.2fx)\n",
                    g.kind, static_cast<long long>(g.size),
                    g.naive_gflops, g.blocked_gflops,
                    g.blocked_gflops / g.naive_gflops);
    std::printf("conv2d fwd (1t): %.3f ms\n", conv_ms);
    for (const auto &r : splits)
        std::printf("split %dx%d @ %dt: split %.3f ms, unsplit %.3f "
                    "ms, overhead %.2fx\n",
                    r.depth, r.depth, r.threads, r.split_ms,
                    r.unsplit_ms, r.overheadRatio());
    std::printf("winograd (2x2 split, 1t): im2col %.3f ms, winograd "
                "%.3f ms (%.2fx)\n",
                wino_im2col_ms, wino_ms, wino_im2col_ms / wino_ms);
    std::printf("im2col fill rate (1t): stride 1 %.2f GB/s, stride 2 "
                "%.2f GB/s\n",
                i2c_s1_gbps, i2c_s2_gbps);
    for (const auto &r : pool_splits)
        std::printf("split pool %dx%d @ %dt: split %.3f ms, unsplit "
                    "%.3f ms, overhead %.2fx\n",
                    r.depth, r.depth, r.threads, r.split_ms,
                    r.unsplit_ms, r.overheadRatio());
    for (const auto &r : backward_splits)
        std::printf("split backward %dx%d @ %dt: split %.3f ms, "
                    "unsplit %.3f ms, overhead %.2fx\n",
                    r.depth, r.depth, r.threads, r.split_ms,
                    r.unsplit_ms, r.overheadRatio());
    for (const SmallConv &sc : small_convs) {
        std::printf("small conv %s (%s, 1t): fwd %.4f ms (%.2f GF/s), "
                    "per image %.4f ms (%.2fx)",
                    sc.name, sc.kernel, sc.fwd_ms,
                    sc.flops() / (sc.fwd_ms * 1e6), sc.per_image_fwd_ms,
                    sc.per_image_fwd_ms / sc.fwd_ms);
        if (sc.backward)
            std::printf("; bwd %.4f ms (%.2f GF/s), per image %.4f ms "
                        "(%.2fx)",
                        sc.bwd_ms, 2.0 * sc.flops() / (sc.bwd_ms * 1e6),
                        sc.per_image_bwd_ms,
                        sc.per_image_bwd_ms / sc.bwd_ms);
        std::printf("\n");
    }
    for (const GemmNPoint &g : gemm_n_sweep)
        std::printf("packed gemm m %lld k %lld n %lld: %.2f GF/s\n",
                    static_cast<long long>(g.m),
                    static_cast<long long>(g.k),
                    static_cast<long long>(g.n), g.gflops);
    for (const ElementwiseResult &e : elementwise)
        std::printf("elementwise %s (1t): %.4f ms, %.2f GB/s\n", e.name,
                    e.ms, e.gbps());
    return 0;
}
