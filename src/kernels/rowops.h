/**
 * @file
 * Shared bias-add, copy, ReLU and reduction loops used by the conv2d,
 * linear, batchnorm and activation kernels and the GEMM operand
 * staging.
 *
 * These were originally private loops inside each kernel; they are
 * hoisted here so every layer applies biases and reduces gradients
 * with the same code. Each helper preserves the original kernels'
 * per-element accumulation order exactly (float chains stay float,
 * double chains stay double), so factoring them out changes no bits.
 */
#ifndef SCNN_KERNELS_ROWOPS_H
#define SCNN_KERNELS_ROWOPS_H

#include <cstdint>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/microkernel.h"

namespace scnn {

// Exact copy/zero/add rows in baseline SSE2, with the plain loop as
// the portable fallback. A copy moves bytes and an add rounds once
// per element, so every form gives the same bits. The copies are
// inline because their rows are short (a packed panel row, an im2col
// segment of 1-4 outputs at the deep layers), where a libc call per
// row cost more than the copy; the tails are unrolled rather than
// looped so the compiler cannot turn them back into such a call.

/** dst[0:n] = src[0:n]; the ranges must not overlap. */
inline void
copyFloats(float *__restrict dst, const float *__restrict src, int64_t n)
{
    int64_t j = 0;
#if defined(__SSE2__)
    for (; j + 4 <= n; j += 4)
        _mm_storeu_ps(dst + j, _mm_loadu_ps(src + j));
    if (j + 2 <= n) {
        dst[j] = src[j];
        dst[j + 1] = src[j + 1];
        j += 2;
    }
    if (j < n)
        dst[j] = src[j];
#else
    for (; j < n; ++j)
        dst[j] = src[j];
#endif
}

/** dst[0:n] = +0. */
inline void
zeroFloats(float *dst, int64_t n)
{
    int64_t j = 0;
#if defined(__SSE2__)
    for (; j + 4 <= n; j += 4)
        _mm_storeu_ps(dst + j, _mm_setzero_ps());
    if (j + 2 <= n) {
        dst[j] = 0.0f;
        dst[j + 1] = 0.0f;
        j += 2;
    }
    if (j < n)
        dst[j] = 0.0f;
#else
    for (; j < n; ++j)
        dst[j] = 0.0f;
#endif
}

/**
 * ReLU forward: dst[j] = src[j] > 0 ? src[j] : +0. MAXPS returns its
 * second operand unless the first is strictly greater, so max(x, +0)
 * maps -0 and NaN to +0 exactly as the select does. dst may equal src.
 */
inline void
reluRow(float *dst, const float *src, int64_t n)
{
    int64_t j = 0;
#if defined(__SSE2__)
    const __m128 zero = _mm_setzero_ps();
    for (; j + 4 <= n; j += 4)
        _mm_storeu_ps(dst + j, _mm_max_ps(_mm_loadu_ps(src + j), zero));
#endif
    for (; j < n; ++j)
        dst[j] = src[j] > 0.0f ? src[j] : 0.0f;
}

/**
 * ReLU backward from the forward output: dst[j] = y[j] > 0 ? g[j] : +0.
 * (y > 0) is an all-ones or all-zeros lane mask, so AND passes g's
 * bits through unchanged or yields +0, exactly as the select does.
 */
inline void
reluGradRow(float *__restrict dst, const float *y, const float *g,
            int64_t n)
{
    int64_t j = 0;
#if defined(__SSE2__)
    const __m128 zero = _mm_setzero_ps();
    for (; j + 4 <= n; j += 4)
        _mm_storeu_ps(dst + j,
                      _mm_and_ps(_mm_cmpgt_ps(_mm_loadu_ps(y + j), zero),
                                 _mm_loadu_ps(g + j)));
#endif
    for (; j < n; ++j)
        dst[j] = y[j] > 0.0f ? g[j] : 0.0f;
}

/** dst[j] += src[j] for j in [0, n) (col2im rows, the wgrad partial
 * reduce); the ranges must not overlap. */
inline void
addRow(float *__restrict dst, const float *__restrict src, int64_t n)
{
    int64_t j = 0;
#if defined(__SSE2__)
    for (; j + 4 <= n; j += 4)
        _mm_storeu_ps(dst + j, _mm_add_ps(_mm_loadu_ps(dst + j),
                                          _mm_loadu_ps(src + j)));
#endif
    for (; j < n; ++j)
        dst[j] += src[j];
}

/** dst[r][j] += bias[r]: one scalar per row (conv2d channel bias
 * over a [OC, OH*OW] image). Dispatches to the active microkernel's
 * row helper; a single add per element rounds identically in scalar
 * and SIMD form, so this stays exact under either kernel. */
inline void
addRowBias(float *dst, int64_t rows, int64_t cols, const float *bias)
{
    const Microkernel &uk = activeMicrokernel();
    for (int64_t r = 0; r < rows; ++r)
        uk.addBiasRow(dst + r * cols, cols, bias[r]);
}

/** dst[r][j] += bias[j]: one scalar per column (linear bias over a
 * [N, O] activation). */
inline void
addColBias(float *dst, int64_t rows, int64_t cols, const float *bias)
{
    for (int64_t r = 0; r < rows; ++r) {
        float *row = dst + r * cols;
        for (int64_t j = 0; j < cols; ++j)
            row[j] += bias[j];
    }
}

/** out[r] += sum_j src[r][j], each row reduced through a float
 * accumulator (conv2d grad_b per image). */
inline void
addRowSums(const float *src, int64_t rows, int64_t cols, float *out)
{
    for (int64_t r = 0; r < rows; ++r) {
        const float *row = src + r * cols;
        float acc = 0.0f;
        for (int64_t j = 0; j < cols; ++j)
            acc += row[j];
        out[r] += acc;
    }
}

/** out[j] += sum_r src[r][j], each column reduced through a float
 * accumulator (linear grad_b). */
inline void
addColSums(const float *src, int64_t rows, int64_t cols, float *out)
{
    for (int64_t j = 0; j < cols; ++j) {
        float acc = 0.0f;
        for (int64_t r = 0; r < rows; ++r)
            acc += src[r * cols + j];
        out[j] += acc;
    }
}

/** sum += Σ src[s]; sq += Σ double(src[s]) * src[s] (batchnorm
 * moment accumulation, double precision). */
inline void
accumulateSumSqD(const float *src, int64_t n, double &sum, double &sq)
{
    for (int64_t s = 0; s < n; ++s) {
        sum += src[s];
        sq += double(src[s]) * src[s];
    }
}

/** sum_a += Σ a[s]; dot += Σ double(a[s]) * b[s] (batchnorm backward
 * reductions over dy and dy * x_hat). */
inline void
accumulateSumDotD(const float *a, const float *b, int64_t n,
                  double &sum_a, double &dot)
{
    for (int64_t s = 0; s < n; ++s) {
        sum_a += a[s];
        dot += double(a[s]) * b[s];
    }
}

} // namespace scnn

#endif // SCNN_KERNELS_ROWOPS_H
