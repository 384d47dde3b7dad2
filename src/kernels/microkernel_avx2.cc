/**
 * @file
 * AVX2/FMA microkernel: a 6x16 register tile plus vectorized row
 * helpers. The tile holds C[0:6, 0:16] in 12 named ymm accumulators
 * (two 8-float vectors per row) for the whole k-loop; each step
 * loads the two B vectors, broadcasts the six A values one at a time
 * and issues 12 register FMAs, with no load or store of C until the
 * loop ends. tools/check_tile_asm.py checks that code generation in
 * CI. This translation unit is the only one compiled with -mavx2
 * -mfma (see src/CMakeLists.txt); everything else stays at the
 * portable baseline so the binary still runs on pre-AVX2 CPUs —
 * microkernelAvx2() returns nullptr unless the running CPU reports
 * both features.
 *
 * The bits this kernel produces are specified, not just bounded:
 * every C element is one fused multiply-add chain
 * acc = fma(a_p, b_p, acc) over p ascending, starting from the C
 * value, rounded once per step (GemmBlocked.SimdTileIsAscendingFmaChain
 * pins this against std::fmaf). vfmadd keeps the infinitely precise
 * product before the add, so the results differ from the scalar
 * reference in the last ulps, but they are a pure function of the
 * problem (no thread-count or scheduling dependence): each C element
 * is accumulated by exactly one tile invocation per KC slab, and slab
 * boundaries depend only on (m, n, k).
 */
#include "kernels/microkernel.h"

#if defined(SCNN_BUILD_AVX2)

#include <immintrin.h>

namespace scnn {

namespace {

constexpr int64_t MR = 6;  ///< tile rows
constexpr int64_t NR = 16; ///< tile cols (two 8-float ymm vectors)

void
tileAvx2(int64_t kc, const float *__restrict pa,
         const float *__restrict pb, float *__restrict c, int64_t ldc)
{
    // One named variable per accumulator: an array indexed by a row
    // loop stays on the stack unless the compiler fully unrolls the
    // loop, which GCC at -O2 does not.
    float *c0 = c, *c1 = c + ldc, *c2 = c + 2 * ldc;
    float *c3 = c + 3 * ldc, *c4 = c + 4 * ldc, *c5 = c + 5 * ldc;
    __m256 acc00 = _mm256_loadu_ps(c0), acc01 = _mm256_loadu_ps(c0 + 8);
    __m256 acc10 = _mm256_loadu_ps(c1), acc11 = _mm256_loadu_ps(c1 + 8);
    __m256 acc20 = _mm256_loadu_ps(c2), acc21 = _mm256_loadu_ps(c2 + 8);
    __m256 acc30 = _mm256_loadu_ps(c3), acc31 = _mm256_loadu_ps(c3 + 8);
    __m256 acc40 = _mm256_loadu_ps(c4), acc41 = _mm256_loadu_ps(c4 + 8);
    __m256 acc50 = _mm256_loadu_ps(c5), acc51 = _mm256_loadu_ps(c5 + 8);
    for (int64_t p = 0; p < kc; ++p) {
        const __m256 b0 = _mm256_load_ps(pb);
        const __m256 b1 = _mm256_load_ps(pb + 8);
        __m256 a = _mm256_broadcast_ss(pa + 0);
        acc00 = _mm256_fmadd_ps(a, b0, acc00);
        acc01 = _mm256_fmadd_ps(a, b1, acc01);
        a = _mm256_broadcast_ss(pa + 1);
        acc10 = _mm256_fmadd_ps(a, b0, acc10);
        acc11 = _mm256_fmadd_ps(a, b1, acc11);
        a = _mm256_broadcast_ss(pa + 2);
        acc20 = _mm256_fmadd_ps(a, b0, acc20);
        acc21 = _mm256_fmadd_ps(a, b1, acc21);
        a = _mm256_broadcast_ss(pa + 3);
        acc30 = _mm256_fmadd_ps(a, b0, acc30);
        acc31 = _mm256_fmadd_ps(a, b1, acc31);
        a = _mm256_broadcast_ss(pa + 4);
        acc40 = _mm256_fmadd_ps(a, b0, acc40);
        acc41 = _mm256_fmadd_ps(a, b1, acc41);
        a = _mm256_broadcast_ss(pa + 5);
        acc50 = _mm256_fmadd_ps(a, b0, acc50);
        acc51 = _mm256_fmadd_ps(a, b1, acc51);
        pa += MR;
        pb += NR;
    }
    _mm256_storeu_ps(c0, acc00);
    _mm256_storeu_ps(c0 + 8, acc01);
    _mm256_storeu_ps(c1, acc10);
    _mm256_storeu_ps(c1 + 8, acc11);
    _mm256_storeu_ps(c2, acc20);
    _mm256_storeu_ps(c2 + 8, acc21);
    _mm256_storeu_ps(c3, acc30);
    _mm256_storeu_ps(c3 + 8, acc31);
    _mm256_storeu_ps(c4, acc40);
    _mm256_storeu_ps(c4 + 8, acc41);
    _mm256_storeu_ps(c5, acc50);
    _mm256_storeu_ps(c5 + 8, acc51);
}

void
addBiasRowAvx2(float *dst, int64_t n, float b)
{
    const __m256 vb = _mm256_set1_ps(b);
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        _mm256_storeu_ps(dst + j,
                         _mm256_add_ps(_mm256_loadu_ps(dst + j), vb));
    for (; j < n; ++j)
        dst[j] += b;
}

} // namespace

const Microkernel *
microkernelAvx2()
{
    static const bool supported = [] {
#if defined(__GNUC__) || defined(__clang__)
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
    }();
    if (!supported)
        return nullptr;
    static const Microkernel kernel = {
        "avx2", MR, NR, tileAvx2, addBiasRowAvx2,
    };
    return &kernel;
}

} // namespace scnn

#else // !SCNN_BUILD_AVX2: non-x86 target or flag-less build.

namespace scnn {

const Microkernel *
microkernelAvx2()
{
    return nullptr;
}

} // namespace scnn

#endif
