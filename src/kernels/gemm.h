/**
 * @file
 * GEMM kernels behind convolution and linear layers.
 *
 * Two implementations share one contract:
 *
 * - The *naive* triple-loop kernels (`gemmNaive` et al.), the seed
 *   implementation, kept as the bit-exact reference.
 * - The *blocked* kernels (`gemm`, `gemmTN`, `gemmNT`): packed A/B
 *   panels, MC/KC/NC cache blocking, and a register-tiled MRxNR
 *   microkernel written with compiler vector extensions.
 *
 * With the *scalar* microkernel (kernels/microkernel.h) the blocked
 * kernels preserve the naive kernels' per-element floating-point
 * accumulation order (beta first, then k ascending, alpha folded at
 * the same point), so for finite inputs the two produce
 * bitwise-identical results at the default build flags — which keeps
 * every committed figure output byte-stable. (The one divergence:
 * naive skips rows where alpha*A(i,p) == 0, so results can differ on
 * inputs containing Inf/NaN or signed zeros.) With the *avx2*
 * microkernel selected, FMA contraction makes blocked results
 * epsilon-close rather than bit-identical to naive — the documented
 * determinism carve-out; they remain deterministic for a given
 * problem at any thread count.
 *
 * The naive kernels are test and bench references only.
 */
#ifndef SCNN_KERNELS_GEMM_H
#define SCNN_KERNELS_GEMM_H

#include <cstdint>

namespace scnn {

/** K-slab depth of the blocked kernels and the packed layouts: K is
 * consumed, and packed, in slabs of this many rows. */
inline constexpr int64_t kGemmKC = 256;

/**
 * C = alpha * A * B + beta * C.
 *
 * A is MxK row-major, B is KxN row-major, C is MxN row-major.
 */
void gemm(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
          const float *b, float beta, float *c);

/**
 * C = alpha * A^T * B + beta * C.
 *
 * A is KxM row-major (used transposed), B is KxN, C is MxN.
 */
void gemmTN(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
            const float *b, float beta, float *c);

/**
 * C = alpha * A * B^T + beta * C.
 *
 * A is MxK row-major, B is NxK row-major (used transposed), C is MxN.
 */
void gemmNT(int64_t m, int64_t n, int64_t k, float alpha, const float *a,
            const float *b, float beta, float *c);

/** @name Reference (seed) implementations — always available. */
///@{
void gemmNaive(int64_t m, int64_t n, int64_t k, float alpha,
               const float *a, const float *b, float beta, float *c);
void gemmTNNaive(int64_t m, int64_t n, int64_t k, float alpha,
                 const float *a, const float *b, float beta, float *c);
void gemmNTNaive(int64_t m, int64_t n, int64_t k, float alpha,
                 const float *a, const float *b, float beta, float *c);
///@}

/**
 * @name Pre-packed A panels
 *
 * Pack a row-major MxK matrix A once (alpha folded in) and reuse the
 * panels across many gemmPackedA calls with different B operands —
 * split convolution packs its weight matrix once per layer instead
 * of once per patch-tile. The packed layout depends on the active
 * microkernel, so pack and consume under the same SIMD selection.
 */
///@{
/** Floats required for the packed representation of an MxK A. */
int64_t gemmPackedASize(int64_t m, int64_t k);

/** Pack row-major A (MxK) scaled by alpha into @p pa
 * (gemmPackedASize(m, k) floats, 64-byte aligned for SIMD loads). */
void gemmPackA(int64_t m, int64_t k, float alpha, const float *a,
               float *pa);

/** C = packedA * B + beta * C; B is KxN row-major, C MxN row-major.
 * Bit-identical to gemm(m, n, k, alpha, a, b, beta, c) for
 * the alpha folded at pack time. */
void gemmPackedA(int64_t m, int64_t n, int64_t k, const float *pa,
                 const float *b, float beta, float *c);

/** Number of gemmPackA/gemmPackAStrided calls since process start
 * (monotonic, all threads); cheap enough to keep in release builds. */
int64_t gemmPackACalls();

/**
 * gemmPackA with explicit element strides: A(i, p) is read from
 * a[i*rs + p*cs], so a transposed operand packs without a transpose
 * copy — the backward pass packs W^T (rs = 1, cs = K of the forward
 * weight matrix) straight from the forward weight tensor. Identical
 * block walk and panel layout to gemmPackA (gemmPackA is the
 * rs = k, cs = 1 special case), and counted by gemmPackACalls().
 */
void gemmPackAStrided(int64_t m, int64_t k, float alpha, const float *a,
                      int64_t rs, int64_t cs, float *pa);
///@}

/**
 * @name Pre-packed B panels
 *
 * Pack a KxN B operand once into microkernel panels and replay it
 * across many GEMM calls — the split executor stages each im2col
 * patch-column panel once per call and consumes it across every
 * output-channel tile and column chunk without repacking. The
 * layout is slab-major (KC slabs ascending, nr-wide column panels
 * within a slab), so a consumer can walk any panel subrange
 * independently: element (p, j), in the slab starting at
 * pc = p - p % kGemmKC with depth kc = min(kGemmKC, k - pc), sits at
 * pc * roundUp(n, nr) + (j / nr) * kc * nr + (p - pc) * nr + j % nr.
 * Like packed A, the layout depends on the active microkernel.
 */
///@{
/** Floats required for the packed representation of a KxN B. */
int64_t gemmPackedBSize(int64_t k, int64_t n);

/** Pack B (KxN, row stride @p ldb) into @p pb
 * (gemmPackedBSize(k, n) floats, 64-byte aligned for SIMD loads). */
void gemmPackB(int64_t k, int64_t n, const float *b, int64_t ldb,
               float *pb);

/** Pack only the nr-wide column panels [j0, j1) of B — every slab's
 * block for those panels. Disjoint panel ranges write disjoint bytes,
 * so workers can pack one B cooperatively. Panel p covers columns
 * [p*nr, min(n, (p+1)*nr)); the total panel count is
 * gemmPackedBPanels(n). */
void gemmPackBPanels(int64_t k, int64_t n, const float *b, int64_t ldb,
                     int64_t j0, int64_t j1, float *pb);

/** Number of nr-wide column panels a KxN pack is divided into. */
int64_t gemmPackedBPanels(int64_t n);

/**
 * gemmPackB with explicit element strides: B(p, j) is read from
 * b[p*rs + j*cs], so a transposed operand packs without a transpose
 * copy — wgrad packs its column matrix transposed (rs = 1, cs = the
 * band's column count), 4x4 blocks at a time. Identical slab walk and
 * panel layout to gemmPackB (gemmPackB is the rs = ldb, cs = 1
 * special case).
 */
void gemmPackBStrided(int64_t k, int64_t n, const float *b, int64_t rs,
                      int64_t cs, float *pb);

/** C = packedA * packedB + beta * C, with C row stride @p ldc.
 * Bit-identical to gemm for the same operands under the same
 * microkernel (same per-element accumulation order). */
void gemmPackedAB(int64_t m, int64_t n, int64_t k, const float *pa,
                  const float *pb, float beta, float *c, int64_t ldc);

/** Compute only the C columns of panels [j0, j1): the parallel
 * building block behind gemmPackedAB. Panel ranges touch disjoint C
 * columns, so chunks fan out across workers with no repacking and no
 * change to any element's accumulation order. */
void gemmPackedABCols(int64_t m, int64_t n, int64_t k, const float *pa,
                      const float *pb, int64_t j0, int64_t j1,
                      float beta, float *c, int64_t ldc);
///@}

} // namespace scnn

#endif // SCNN_KERNELS_GEMM_H
