/**
 * @file
 * Kernel microbenchmarks (google-benchmark): GEMM, im2col
 * convolution, pooling, batchnorm, and the split/concat tensor ops
 * that implement Split-CNN's Slice/Concat graph nodes. Not a paper
 * figure — sanity numbers for the CPU execution engine.
 */
#include <benchmark/benchmark.h>

#include "core/split_op.h"
#include "kernels/batchnorm.h"
#include "kernels/gemm.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/rng.h"

namespace scnn {
namespace {

using GemmFn = void (*)(int64_t, int64_t, int64_t, float, const float *,
                        const float *, float, float *);

void
runGemmBench(benchmark::State &state, GemmFn fn)
{
    const int64_t n = state.range(0);
    Rng rng(1);
    std::vector<float> a(n * n), b(n * n), c(n * n);
    for (auto &v : a)
        v = rng.normal();
    for (auto &v : b)
        v = rng.normal();
    for (auto _ : state) {
        fn(n, n, n, 1.0f, a.data(), b.data(), 0.0f, c.data());
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}

/** The blocked kernels the engine calls, one per layout. */
void
BM_Gemm(benchmark::State &state)
{
    runGemmBench(state, gemm);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmNaive(benchmark::State &state)
{
    runGemmBench(state, gemmNaive);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmTN(benchmark::State &state)
{
    runGemmBench(state, gemmTN);
}
BENCHMARK(BM_GemmTN)->Arg(64)->Arg(128)->Arg(256);

void
BM_GemmNT(benchmark::State &state)
{
    runGemmBench(state, gemmNT);
}
BENCHMARK(BM_GemmNT)->Arg(64)->Arg(128)->Arg(256);

void
BM_Conv2dForward(benchmark::State &state)
{
    const int64_t c = state.range(0);
    Rng rng(2);
    Tensor x(Shape{1, c, 32, 32});
    Tensor w(Shape{c, c, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = unsplitScheme(win, 32, 32);
    for (auto _ : state) {
        Tensor out = splitConv2dForward(x, w, Tensor(), win, scheme,
                                        ConvKernel::Im2col);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_Conv2dForward)->Arg(8)->Arg(16)->Arg(32);

void
BM_SplitConv2dForward(benchmark::State &state)
{
    // The same conv executed patch-wise (2x2 split): quantifies the
    // split overhead against BM_Conv2dForward on the same engine.
    const int64_t c = state.range(0);
    Rng rng(3);
    Tensor x(Shape{1, c, 32, 32});
    Tensor w(Shape{c, c, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme =
        splitWindowOp2d(win, 32, 32, evenOutputSplit(32, 2),
                        evenOutputSplit(32, 2));
    for (auto _ : state) {
        Tensor out = splitConv2dForward(x, w, Tensor(), win, scheme,
                                        ConvKernel::Im2col);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_SplitConv2dForward)->Arg(8)->Arg(16)->Arg(32);

void
BM_WinogradConv2dForward(benchmark::State &state)
{
    const int64_t c = state.range(0);
    Rng rng(7);
    Tensor x(Shape{1, c, 32, 32});
    Tensor w(Shape{c, c, 3, 3});
    x.fillNormal(rng, 0.0f, 1.0f);
    w.fillNormal(rng, 0.0f, 0.1f);
    const Window2d win = Window2d::square(3, 1, 1);
    const auto scheme = unsplitScheme(win, 32, 32);
    for (auto _ : state) {
        // Steady state: the weight is unchanged, so the packed U
        // comes from the Winograd weight cache after the first run.
        Tensor out = splitConv2dForward(x, w, Tensor(), win, scheme,
                                        ConvKernel::Winograd);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_WinogradConv2dForward)->Arg(8)->Arg(16)->Arg(32);

void
BM_MaxPool(benchmark::State &state)
{
    Rng rng(4);
    Tensor x(Shape{8, 32, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    const Window2d win = Window2d::square(2, 2, 0);
    std::vector<int64_t> argmax;
    for (auto _ : state) {
        Tensor out = maxPool2dForward(x, win, argmax);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_MaxPool);

void
BM_BatchNormForward(benchmark::State &state)
{
    Rng rng(5);
    Tensor x(Shape{16, 32, 16, 16});
    x.fillNormal(rng, 0.0f, 1.0f);
    Tensor gamma(Shape{32}, 1.0f), beta(Shape{32});
    Tensor rm(Shape{32}), rv(Shape{32}, 1.0f);
    BatchNormCache cache;
    for (auto _ : state) {
        Tensor out = batchNormForward(x, gamma, beta, rm, rv, 0.1f,
                                      1e-5f, cache);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_BatchNormForward);

void
BM_SplitConcatRoundTrip(benchmark::State &state)
{
    Rng rng(6);
    Tensor x(Shape{8, 64, 32, 32});
    x.fillNormal(rng, 0.0f, 1.0f);
    for (auto _ : state) {
        auto parts = splitDim(x, 3, {0, 8, 16, 24});
        Tensor back = concatDim(parts, 3);
        benchmark::DoNotOptimize(back.data());
    }
    state.SetBytesProcessed(state.iterations() * x.bytes() * 2);
}
BENCHMARK(BM_SplitConcatRoundTrip);

} // namespace
} // namespace scnn

BENCHMARK_MAIN();
