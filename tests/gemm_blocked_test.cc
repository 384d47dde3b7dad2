/**
 * @file
 * Blocked-vs-naive GEMM equivalence: randomized relative-tolerance
 * checks over an alpha/beta grid and awkward (prime, non-square)
 * sizes, plus the stronger bitwise guarantee the execution engine
 * relies on to keep figure outputs byte-stable, and the AVX2 tile's
 * bits pinned as an ascending per-element FMA chain.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "util/rng.h"

namespace scnn {
namespace {

/** Pin the microkernel selection for a test body, restoring the
 * default (environment-driven) choice afterwards. */
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

struct GemmCase
{
    int64_t m, n, k;
};

/** 64-byte-aligned float buffer: packed panels are consumed with
 * aligned SIMD loads (the gemm.h contract), which a plain
 * std::vector does not guarantee. */
struct AlignedBuf
{
    explicit AlignedBuf(int64_t n)
        : raw(static_cast<size_t>(n + 16), 0.0f)
    {
        auto addr = reinterpret_cast<uintptr_t>(raw.data());
        p = reinterpret_cast<float *>((addr + 63) & ~uintptr_t{63});
    }
    std::vector<float> raw;
    float *p;
};

/** Prime and otherwise edge-unfriendly sizes: every microkernel edge
 * case (partial MR rows, partial NR columns, short K) is hit. */
const GemmCase kCases[] = {
    {1, 1, 1},   {3, 5, 7},    {4, 8, 16},  {13, 17, 19},
    {31, 29, 37}, {64, 64, 64}, {61, 67, 71}, {128, 96, 80},
    {97, 101, 103}, {256, 256, 256}, {5, 300, 2}, {300, 5, 2},
};

const float kAlphas[] = {0.0f, 1.0f, 0.5f};
const float kBetas[] = {0.0f, 1.0f, 0.5f};

void
fillRandom(std::vector<float> &v, Rng &rng)
{
    for (auto &x : v)
        x = rng.normal();
}

using GemmFn = void (*)(int64_t, int64_t, int64_t, float, const float *,
                        const float *, float, float *);

/**
 * Run naive and blocked variants on identical inputs and compare.
 * @p bitwise additionally demands exact bit equality.
 */
void
compareKernels(GemmFn naive, GemmFn blocked, int64_t m, int64_t n,
               int64_t k, float alpha, float beta, uint32_t seed,
               bool bitwise)
{
    Rng rng(seed);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> c0(static_cast<size_t>(m * n));
    fillRandom(a, rng);
    fillRandom(b, rng);
    fillRandom(c0, rng);

    std::vector<float> c_naive = c0, c_blocked = c0;
    naive(m, n, k, alpha, a.data(), b.data(), beta, c_naive.data());
    blocked(m, n, k, alpha, a.data(), b.data(), beta,
            c_blocked.data());

    for (int64_t i = 0; i < m * n; ++i) {
        const float ref = c_naive[static_cast<size_t>(i)];
        const float got = c_blocked[static_cast<size_t>(i)];
        if (bitwise) {
            uint32_t rb, gb;
            std::memcpy(&rb, &ref, 4);
            std::memcpy(&gb, &got, 4);
            ASSERT_EQ(rb, gb)
                << "element " << i << " differs bitwise: " << ref
                << " vs " << got << " (m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha
                << " beta=" << beta << ")";
        } else {
            const float tol =
                1e-4f * std::max(1.0f, std::fabs(ref));
            ASSERT_NEAR(ref, got, tol)
                << "element " << i << " (m=" << m << " n=" << n
                << " k=" << k << " alpha=" << alpha
                << " beta=" << beta << ")";
        }
    }
}

TEST(GemmBlocked, MatchesNaiveWithinTolerance)
{
    uint32_t seed = 100;
    for (const auto &cs : kCases)
        for (float alpha : kAlphas)
            for (float beta : kBetas) {
                compareKernels(gemmNaive, gemm, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, false);
                compareKernels(gemmTNNaive, gemmTN, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, false);
                compareKernels(gemmNTNaive, gemmNT, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, false);
            }
}

/** Under the *scalar* microkernel the blocked kernels replay the
 * naive per-element operation sequence exactly; the engine depends on
 * this to keep committed figure outputs byte-identical. The AVX2/FMA
 * kernel is the documented carve-out from this guarantee (see
 * SimdMatchesScalarWithinTolerance below), so bitwise tests pin the
 * scalar path. */
TEST(GemmBlocked, BitwiseIdenticalToNaive)
{
    ScopedSimd scalar(false);
    uint32_t seed = 900;
    for (const auto &cs : kCases)
        for (float alpha : kAlphas)
            for (float beta : kBetas) {
                compareKernels(gemmNaive, gemm, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, true);
                compareKernels(gemmTNNaive, gemmTN, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, true);
                compareKernels(gemmNTNaive, gemmNT, cs.m, cs.n,
                               cs.k, alpha, beta, ++seed, true);
            }
}

/** The AVX2 bits as a spec: each C element of the 6x16 tile is one
 * fused multiply-add chain over p ascending, starting from C —
 * acc = fma(a_p, b_p, acc) per step, rounded once per step. Checked
 * byte for byte against std::fmaf on the tile entry point itself,
 * so a split-k, a reordered or a tree accumulation fails here even
 * when it stays within the tolerance of the test below. */
TEST(GemmBlocked, SimdTileIsAscendingFmaChain)
{
    const Microkernel *uk = microkernelAvx2();
    if (uk == nullptr)
        GTEST_SKIP() << "no AVX2 kernel on this build/CPU";
    const int64_t mr = uk->mr, nr = uk->nr;
    const int64_t ldc = nr + 3; // C rows not contiguous
    Rng rng(5150);
    for (const int64_t kc : {1, 7, 256}) {
        AlignedBuf pa(kc * mr), pb(kc * nr);
        for (int64_t i = 0; i < kc * mr; ++i)
            pa.p[i] = rng.normal();
        for (int64_t i = 0; i < kc * nr; ++i)
            pb.p[i] = rng.normal();
        std::vector<float> c(static_cast<size_t>(mr * ldc));
        fillRandom(c, rng);
        std::vector<float> want = c;
        for (int64_t r = 0; r < mr; ++r)
            for (int64_t j = 0; j < nr; ++j) {
                float acc = want[static_cast<size_t>(r * ldc + j)];
                for (int64_t p = 0; p < kc; ++p)
                    acc = std::fmaf(pa.p[p * mr + r], pb.p[p * nr + j], acc);
                want[static_cast<size_t>(r * ldc + j)] = acc;
            }
        uk->tile(kc, pa.p, pb.p, c.data(), ldc);
        ASSERT_EQ(0, std::memcmp(c.data(), want.data(),
                                 c.size() * sizeof(float)))
            << "tile is not the ascending fma chain at kc=" << kc;
    }
}

/** The determinism carve-out, stated as a test: the AVX2/FMA kernel
 * need not match scalar bitwise, but it must stay within a tight
 * relative tolerance, and it must itself be deterministic
 * (run-to-run identical bits). */
TEST(GemmBlocked, SimdMatchesScalarWithinTolerance)
{
    if (!simdAvailable())
        GTEST_SKIP() << "no SIMD kernel on this build/CPU";
    uint32_t seed = 4100;
    for (const auto &cs : kCases) {
        Rng rng(++seed);
        std::vector<float> a(static_cast<size_t>(cs.m * cs.k));
        std::vector<float> b(static_cast<size_t>(cs.k * cs.n));
        std::vector<float> c0(static_cast<size_t>(cs.m * cs.n));
        fillRandom(a, rng);
        fillRandom(b, rng);
        fillRandom(c0, rng);

        std::vector<float> c_scalar = c0;
        {
            ScopedSimd scalar(false);
            gemm(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.5f, c_scalar.data());
        }
        std::vector<float> c_simd = c0, c_simd2 = c0;
        {
            ScopedSimd simd(true);
            gemm(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.5f, c_simd.data());
            gemm(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.5f, c_simd2.data());
        }
        ASSERT_EQ(0, std::memcmp(c_simd.data(), c_simd2.data(),
                                 c_simd.size() * sizeof(float)))
            << "SIMD kernel not deterministic (m=" << cs.m
            << " n=" << cs.n << " k=" << cs.k << ")";
        for (int64_t i = 0; i < cs.m * cs.n; ++i) {
            const float ref = c_scalar[static_cast<size_t>(i)];
            const float got = c_simd[static_cast<size_t>(i)];
            const float tol =
                1e-5f * std::max(1.0f, std::fabs(ref)) *
                std::max<float>(1.0f, std::sqrt((float)cs.k));
            ASSERT_NEAR(ref, got, tol)
                << "element " << i << " (m=" << cs.m
                << " n=" << cs.n << " k=" << cs.k << ")";
        }
    }
}

/** Packing A once and replaying it through gemmPackedA must produce
 * the same bytes as the one-shot blocked kernel — panel reuse across
 * split patches depends on this. Checked under both microkernels. */
TEST(GemmBlocked, PackedAReuseBitwiseMatchesBlocked)
{
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        uint32_t seed = 5200;
        for (const auto &cs : kCases) {
            Rng rng(++seed);
            std::vector<float> a(static_cast<size_t>(cs.m * cs.k));
            std::vector<float> b(static_cast<size_t>(cs.k * cs.n));
            fillRandom(a, rng);
            fillRandom(b, rng);

            std::vector<float> c_ref(
                static_cast<size_t>(cs.m * cs.n), 0.0f);
            gemm(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.0f, c_ref.data());

            AlignedBuf pa(gemmPackedASize(cs.m, cs.k));
            gemmPackA(cs.m, cs.k, 1.0f, a.data(), pa.p);
            // Replay the packed panels twice: reuse must not mutate
            // them.
            for (int rep = 0; rep < 2; ++rep) {
                std::vector<float> c_packed(
                    static_cast<size_t>(cs.m * cs.n), 0.0f);
                gemmPackedA(cs.m, cs.n, cs.k, pa.p, b.data(), 0.0f,
                            c_packed.data());
                ASSERT_EQ(0, std::memcmp(c_ref.data(),
                                         c_packed.data(),
                                         c_ref.size() *
                                             sizeof(float)))
                    << "packed-A replay " << rep << " differs (m="
                    << cs.m << " n=" << cs.n << " k=" << cs.k
                    << " simd=" << simd << ")";
            }
        }
    }
}

/** Packing B once and replaying it through gemmPackedAB must track
 * the one-shot blocked kernel: bitwise under the scalar microkernel
 * (the packed consumption replays blockedCore's per-element
 * accumulation order), epsilon-bounded under AVX2. The replay runs
 * twice over the same panels — a cache hit must see the bytes a miss
 * packed. */
TEST(PackedB, ReplayMatchesBlocked)
{
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        uint32_t seed = 6200;
        for (const auto &cs : kCases) {
            Rng rng(++seed);
            std::vector<float> a(static_cast<size_t>(cs.m * cs.k));
            std::vector<float> b(static_cast<size_t>(cs.k * cs.n));
            fillRandom(a, rng);
            fillRandom(b, rng);

            std::vector<float> c_ref(
                static_cast<size_t>(cs.m * cs.n), 0.0f);
            gemm(cs.m, cs.n, cs.k, 1.0f, a.data(), b.data(),
                        0.0f, c_ref.data());

            AlignedBuf pa(gemmPackedASize(cs.m, cs.k));
            gemmPackA(cs.m, cs.k, 1.0f, a.data(), pa.p);
            AlignedBuf pb(gemmPackedBSize(cs.k, cs.n));
            gemmPackB(cs.k, cs.n, b.data(), cs.n, pb.p);
            for (int rep = 0; rep < 2; ++rep) {
                std::vector<float> c_packed(
                    static_cast<size_t>(cs.m * cs.n), 0.0f);
                gemmPackedAB(cs.m, cs.n, cs.k, pa.p, pb.p, 0.0f,
                             c_packed.data(), cs.n);
                if (!simd) {
                    ASSERT_EQ(0, std::memcmp(c_ref.data(),
                                             c_packed.data(),
                                             c_ref.size() *
                                                 sizeof(float)))
                        << "packed-B replay " << rep
                        << " differs bitwise (m=" << cs.m
                        << " n=" << cs.n << " k=" << cs.k << ")";
                } else {
                    for (int64_t i = 0; i < cs.m * cs.n; ++i) {
                        const float ref =
                            c_ref[static_cast<size_t>(i)];
                        const float got =
                            c_packed[static_cast<size_t>(i)];
                        const float tol =
                            1e-5f * std::max(1.0f, std::fabs(ref)) *
                            std::max<float>(
                                1.0f, std::sqrt((float)cs.k));
                        ASSERT_NEAR(ref, got, tol)
                            << "element " << i << " (m=" << cs.m
                            << " n=" << cs.n << " k=" << cs.k
                            << " rep=" << rep << ")";
                    }
                }
            }
        }
    }
}

/** The parallel building blocks must be pure decompositions: packing
 * B panel-range by panel-range equals one gemmPackB byte-for-byte,
 * and consuming the panels in any column chunking equals one
 * gemmPackedAB byte-for-byte — under either microkernel. This is the
 * determinism argument for the split executor's cooperative
 * staging. */
TEST(PackedB, PanelChunkingIsBitwiseStable)
{
    for (const bool simd : {false, true}) {
        if (simd && !simdAvailable())
            continue;
        ScopedSimd pin(simd);
        uint32_t seed = 7300;
        for (const auto &cs : kCases) {
            Rng rng(++seed);
            std::vector<float> a(static_cast<size_t>(cs.m * cs.k));
            std::vector<float> b(static_cast<size_t>(cs.k * cs.n));
            fillRandom(a, rng);
            fillRandom(b, rng);

            AlignedBuf pa(gemmPackedASize(cs.m, cs.k));
            gemmPackA(cs.m, cs.k, 1.0f, a.data(), pa.p);

            const size_t pb_sz =
                static_cast<size_t>(gemmPackedBSize(cs.k, cs.n));
            AlignedBuf pb_once(static_cast<int64_t>(pb_sz));
            gemmPackB(cs.k, cs.n, b.data(), cs.n, pb_once.p);

            const int64_t panels = gemmPackedBPanels(cs.n);
            AlignedBuf pb_coop(static_cast<int64_t>(pb_sz));
            const int64_t mid = panels / 2;
            gemmPackBPanels(cs.k, cs.n, b.data(), cs.n, 0, mid,
                            pb_coop.p);
            gemmPackBPanels(cs.k, cs.n, b.data(), cs.n, mid, panels,
                            pb_coop.p);
            ASSERT_EQ(0, std::memcmp(pb_once.p, pb_coop.p,
                                     pb_sz * sizeof(float)))
                << "cooperative pack differs (n=" << cs.n
                << " simd=" << simd << ")";

            std::vector<float> c_once(
                static_cast<size_t>(cs.m * cs.n), 0.0f);
            gemmPackedAB(cs.m, cs.n, cs.k, pa.p, pb_once.p, 0.0f,
                         c_once.data(), cs.n);
            for (const int64_t step : {int64_t{1}, int64_t{3},
                                       std::max<int64_t>(1, mid)}) {
                std::vector<float> c_chunk(
                    static_cast<size_t>(cs.m * cs.n), 0.0f);
                for (int64_t j0 = 0; j0 < panels; j0 += step)
                    gemmPackedABCols(cs.m, cs.n, cs.k, pa.p,
                                     pb_once.p, j0,
                                     std::min(panels, j0 + step),
                                     0.0f, c_chunk.data(), cs.n);
                ASSERT_EQ(0,
                          std::memcmp(c_once.data(), c_chunk.data(),
                                      c_once.size() * sizeof(float)))
                    << "column chunking step " << step
                    << " differs (m=" << cs.m << " n=" << cs.n
                    << " k=" << cs.k << " simd=" << simd << ")";
            }
        }
    }
}

/** gemmPackedAB with a C row stride wider than N must write exactly
 * the same bytes into the strided rows and leave the gap columns
 * untouched — the split executor writes GEMM results straight into
 * parent-output rows this way. */
TEST(PackedB, StridedCMatchesDense)
{
    ScopedSimd scalar(false);
    const int64_t m = 13, n = 23, k = 31, ldc = 40;
    Rng rng(8400);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    fillRandom(a, rng);
    fillRandom(b, rng);
    AlignedBuf pa(gemmPackedASize(m, k));
    gemmPackA(m, k, 1.0f, a.data(), pa.p);
    AlignedBuf pb(gemmPackedBSize(k, n));
    gemmPackB(k, n, b.data(), n, pb.p);

    std::vector<float> c_dense(static_cast<size_t>(m * n), 0.0f);
    gemmPackedAB(m, n, k, pa.p, pb.p, 0.0f, c_dense.data(), n);
    std::vector<float> c_strided(static_cast<size_t>(m * ldc),
                                 -7.0f);
    gemmPackedAB(m, n, k, pa.p, pb.p, 0.0f, c_strided.data(), ldc);
    for (int64_t i = 0; i < m; ++i) {
        ASSERT_EQ(0, std::memcmp(
                         c_dense.data() + i * n,
                         c_strided.data() + i * ldc,
                         static_cast<size_t>(n) * sizeof(float)))
            << "row " << i << " differs";
        for (int64_t j = n; j < ldc; ++j)
            ASSERT_EQ(-7.0f,
                      c_strided[static_cast<size_t>(i * ldc + j)])
                << "gap column (" << i << ", " << j
                << ") was clobbered";
    }
}

/** setSimdEnabled() must flip the reported kernel name (and is a
 * no-op when no SIMD kernel exists). */
TEST(GemmBlocked, SimdKernelNameFollowsOverride)
{
    {
        ScopedSimd scalar(false);
        EXPECT_STREQ(simdKernelName(), "scalar");
    }
    ScopedSimd simd(true);
    if (simdAvailable())
        EXPECT_STREQ(simdKernelName(), "avx2");
    else
        EXPECT_STREQ(simdKernelName(), "scalar");
}

} // namespace
} // namespace scnn
