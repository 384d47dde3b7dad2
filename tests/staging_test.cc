/**
 * @file
 * GEMM operand staging, byte for byte: the packers against a
 * test-side element-loop packer, im2colViewStrided and
 * col2imViewStrided against a bounds-checked element-loop im2col and
 * scatter. Staging is exact (copies, zero-fills, one add per element),
 * so each check is a memcmp, run under the scalar and the AVX2 kernel
 * (their panel shapes differ).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/microkernel.h"
#include "util/rng.h"

namespace scnn {
namespace {

/** Pin the microkernel selection for a scope. */
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

/** The kernels this machine can select: scalar, and AVX2 if present. */
std::vector<bool>
simdModes()
{
    std::vector<bool> modes{false};
    if (simdAvailable())
        modes.push_back(true);
    return modes;
}

/** 64-byte-aligned buffer prefilled with a NaN sentinel, so a float
 * the code under test never writes cannot pass as a zero. */
struct PanelBuf
{
    explicit PanelBuf(int64_t n)
        : raw(static_cast<size_t>(n + 16),
              std::numeric_limits<float>::quiet_NaN()),
          size(n)
    {
        auto addr = reinterpret_cast<uintptr_t>(raw.data());
        p = reinterpret_cast<float *>((addr + 63) & ~uintptr_t{63});
    }
    std::vector<float> raw;
    int64_t size;
    float *p;
};

bool
sameBytes(const float *a, const float *b, int64_t n)
{
    return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

/** Element-loop packed A: mr-row panels per KC slab, alpha applied to
 * every element, zero rows past m (one MC block, m <= 128). */
std::vector<float>
refPackA(int64_t m, int64_t k, float alpha,
         const std::function<float(int64_t, int64_t)> &a)
{
    const int64_t mr = activeMicrokernel().mr;
    const int64_t m_round = (m + mr - 1) / mr * mr;
    std::vector<float> out;
    for (int64_t pc = 0; pc < k; pc += kGemmKC) {
        const int64_t kc = std::min(kGemmKC, k - pc);
        for (int64_t ir = 0; ir < m_round; ir += mr)
            for (int64_t p = 0; p < kc; ++p)
                for (int64_t r = 0; r < mr; ++r)
                    out.push_back(ir + r < m ? alpha * a(ir + r, pc + p)
                                             : 0.0f);
    }
    return out;
}

/** Element-loop packed B: slab-major, nr-column panels, zero columns
 * past n. */
std::vector<float>
refPackB(int64_t k, int64_t n,
         const std::function<float(int64_t, int64_t)> &b)
{
    const int64_t nr = activeMicrokernel().nr;
    const int64_t n_round = (n + nr - 1) / nr * nr;
    std::vector<float> out;
    for (int64_t pc = 0; pc < k; pc += kGemmKC) {
        const int64_t kc = std::min(kGemmKC, k - pc);
        for (int64_t jc = 0; jc < n_round; jc += nr)
            for (int64_t p = 0; p < kc; ++p)
                for (int64_t j = 0; j < nr; ++j)
                    out.push_back(jc + j < n ? b(pc + p, jc + j) : 0.0f);
    }
    return out;
}

std::vector<float>
randomVec(Rng &rng, int64_t n)
{
    std::vector<float> v(static_cast<size_t>(n));
    for (auto &x : v)
        x = rng.normal();
    return v;
}

// m, n and k straddle both kernels' mr (4, 6) and nr (8, 16) and KC.
TEST(Staging, PackersMatchElementLoop)
{
    Rng rng(11);
    for (bool simd : simdModes()) {
        ScopedSimd pin(simd);
        for (int64_t m : {5, 6, 7})
            for (int64_t k : {255, 256, 257})
                for (float alpha : {1.0f, 0.5f}) {
                    SCOPED_TRACE(testing::Message()
                                 << simdKernelName() << " m " << m
                                 << " k " << k << " alpha " << alpha);
                    const std::vector<float> a = randomVec(rng, m * k);
                    const int64_t size = gemmPackedASize(m, k);
                    PanelBuf pa(size);
                    gemmPackA(m, k, alpha, a.data(), pa.p);
                    const auto rowMajor = [&](int64_t i, int64_t p) {
                        return a[static_cast<size_t>(i * k + p)];
                    };
                    std::vector<float> ref = refPackA(m, k, alpha, rowMajor);
                    ASSERT_EQ(static_cast<int64_t>(ref.size()), size);
                    EXPECT_TRUE(sameBytes(pa.p, ref.data(), size));

                    // Row-major through the strided entry (unit column
                    // stride), then column-major (a transposed operand).
                    PanelBuf ps(size);
                    gemmPackAStrided(m, k, alpha, a.data(), k, 1, ps.p);
                    EXPECT_TRUE(sameBytes(ps.p, ref.data(), size));
                    PanelBuf pt(size);
                    gemmPackAStrided(m, k, alpha, a.data(), 1, m, pt.p);
                    ref = refPackA(m, k, alpha, [&](int64_t i, int64_t p) {
                        return a[static_cast<size_t>(p * m + i)];
                    });
                    EXPECT_TRUE(sameBytes(pt.p, ref.data(), size));
                }
        for (int64_t n : {15, 16, 17})
            for (int64_t k : {255, 256, 257}) {
                SCOPED_TRACE(testing::Message() << simdKernelName()
                                                << " n " << n << " k " << k);
                // Row stride ldb > n: the panels must not read past n.
                const int64_t ldb = n + 3;
                const std::vector<float> b = randomVec(rng, k * ldb);
                const int64_t size = gemmPackedBSize(k, n);
                const std::vector<float> ref =
                    refPackB(k, n, [&](int64_t p, int64_t j) {
                        return b[static_cast<size_t>(p * ldb + j)];
                    });
                ASSERT_EQ(static_cast<int64_t>(ref.size()), size);
                PanelBuf pb(size);
                gemmPackB(k, n, b.data(), ldb, pb.p);
                EXPECT_TRUE(sameBytes(pb.p, ref.data(), size));

                // Two panel ranges packed separately fill the same bytes.
                PanelBuf pp(size);
                const int64_t panels = gemmPackedBPanels(n);
                gemmPackBPanels(k, n, b.data(), ldb, 0, panels / 2, pp.p);
                gemmPackBPanels(k, n, b.data(), ldb, panels / 2, panels,
                                pp.p);
                EXPECT_TRUE(sameBytes(pp.p, ref.data(), size));

                // The same B through explicit strides, then transposed
                // (column-major, as wgrad packs its column matrix).
                PanelBuf ps(size);
                gemmPackBStrided(k, n, b.data(), ldb, 1, ps.p);
                EXPECT_TRUE(sameBytes(ps.p, ref.data(), size));
                const std::vector<float> ref_t =
                    refPackB(k, n, [&](int64_t p, int64_t j) {
                        return b[static_cast<size_t>(j * k + p)];
                    });
                PanelBuf pt(size);
                gemmPackBStrided(k, n, b.data(), 1, k, pt.p);
                EXPECT_TRUE(sameBytes(pt.p, ref_t.data(), size));
            }
    }
}

/** One patch of a band: its rectangle, patch-local window and first
 * column in the band's column matrix. */
struct PatchCase
{
    PatchView view;
    Window2d win;
    int64_t col0;
};

/** Bounds-checked element-loop im2col value of window row r at
 * patch output (oy, ox). */
float
refTap(const std::vector<float> &img, int64_t ih, int64_t iw,
       const PatchCase &pc, int64_t r, int64_t oy, int64_t ox)
{
    const Window2d &w = pc.win;
    const int64_t ic = r / (w.kh * w.kw);
    const int64_t ky = (r / w.kw) % w.kh;
    const int64_t kx = r % w.kw;
    const int64_t iy = oy * w.sh - w.ph_b + ky;
    const int64_t ix = ox * w.sw - w.pw_b + kx;
    if (!pc.view.inBounds(iy, ix))
        return 0.0f;
    return img[static_cast<size_t>(ic * ih * iw +
                                   pc.view.parentOffset(iy, ix, iw))];
}

/** Side-by-side patch pairs: both patches of a pair share the window
 * extent and stride, as a split layer's patches do, and differ in
 * their asymmetric, cropping (negative) or strided paddings.
 * {kw, sw, pw_b, pw_e} of the left then the right patch. */
const int64_t kPairs[][2][4] = {
    {{3, 1, 1, 0}, {3, 1, -1, 2}},
    {{3, 1, 1, -1}, {3, 1, 0, 1}},
    {{3, 2, 1, 1}, {3, 2, 0, -1}},
    {{2, 2, 0, -1}, {2, 2, 1, 0}},
    {{1, 1, 0, 0}, {1, 1, -1, 1}},
};
constexpr int kNumPairs = 5;

/** Pair @p g with output width @p ow per patch (3-row windows, one
 * padded row on top, one cropped at the bottom). */
std::vector<PatchCase>
patchPair(int64_t ow, int g, int64_t &parent_iw)
{
    std::vector<PatchCase> out;
    int64_t c0 = 1, col0 = 0;
    for (const int64_t *h : kPairs[g]) {
        const Window2d win{3, h[0], 1, h[1], 1, -1, h[2], h[3]};
        const int64_t view_iw = (ow - 1) * h[1] + h[0] - h[2] - h[3];
        out.push_back({{2, c0, 14, view_iw}, win, col0});
        c0 += view_iw;
        col0 += ow;
    }
    parent_iw = c0 + 1;
    return out;
}

// Output widths 1..17 give flank-only, copy-only and mixed rows.
TEST(Staging, Im2colMatchesElementLoop)
{
    Rng rng(12);
    const int64_t c = 3, ih = 17;
    const int64_t oy0 = 1, oy1 = 12; // a band that is not the first
    for (bool simd : simdModes()) {
        ScopedSimd pin(simd);
        for (int64_t ow = 1; ow <= 17; ++ow)
            for (int g = 0; g < kNumPairs; ++g) {
                SCOPED_TRACE(testing::Message() << simdKernelName() << " ow "
                                                << ow << " geometry " << g);
                int64_t iw = 0;
                const std::vector<PatchCase> patches = patchPair(ow, g, iw);
                for (const PatchCase &pc : patches) {
                    ASSERT_GT(pc.view.iw, 0);
                    ASSERT_EQ(pc.win.outW(pc.view.iw), ow);
                }
                const std::vector<float> img = randomVec(rng, c * ih * iw);
                const int64_t krows = c * 3 * patches[0].win.kw;
                const int64_t row_step = 2 * ow;
                const int64_t cols = (oy1 - oy0) * row_step;
                // NaN-prefilled, so a column left unwritten fails.
                std::vector<float> got(static_cast<size_t>(krows * cols),
                                       std::numeric_limits<float>::quiet_NaN());
                std::vector<float> want(got.size(), 0.0f);
                for (const PatchCase &pc : patches) {
                    im2colViewStrided(img.data(), c, ih, iw, pc.view, pc.win,
                                      oy0, oy1, got.data() + pc.col0, cols,
                                      row_step);
                    for (int64_t r = 0; r < krows; ++r)
                        for (int64_t oy = oy0; oy < oy1; ++oy)
                            for (int64_t ox = 0; ox < ow; ++ox)
                                want[static_cast<size_t>(
                                    r * cols + pc.col0 +
                                    (oy - oy0) * row_step + ox)] =
                                    refTap(img, ih, iw, pc, r, oy, ox);
                }
                EXPECT_TRUE(sameBytes(got.data(), want.data(),
                                      static_cast<int64_t>(got.size())));
            }
    }
}

TEST(Staging, Col2imMatchesElementLoop)
{
    Rng rng(13);
    const int64_t c = 3, ih = 17;
    const int64_t oy0 = 1, oy1 = 12;
    for (bool simd : simdModes()) {
        ScopedSimd pin(simd);
        for (int64_t ow = 1; ow <= 17; ++ow)
            for (int g = 0; g < kNumPairs; ++g) {
                SCOPED_TRACE(testing::Message() << simdKernelName() << " ow "
                                                << ow << " geometry " << g);
                int64_t iw = 0;
                const std::vector<PatchCase> patches = patchPair(ow, g, iw);
                const int64_t kw = patches[0].win.kw;
                const int64_t krows = c * 3 * kw;
                const int64_t row_step = 2 * ow;
                const int64_t col_ld = (oy1 - oy0) * row_step;
                const std::vector<float> col =
                    randomVec(rng, krows * col_ld);
                // A prior accumulation, so the adds round as they would
                // on a halo row.
                const std::vector<float> init = randomVec(rng, c * ih * iw);
                std::vector<float> got = init, want = init;
                for (const PatchCase &pc : patches) {
                    col2imViewStrided(col.data() + pc.col0, c, ih, iw,
                                      pc.view, pc.win, oy0, oy1, got.data(),
                                      col_ld, row_step);
                    const Window2d &w = pc.win;
                    for (int64_t r = 0; r < krows; ++r) {
                        const int64_t ic = r / (3 * kw);
                        const int64_t ky = (r / kw) % 3, kx = r % kw;
                        for (int64_t oy = oy0; oy < oy1; ++oy)
                            for (int64_t ox = 0; ox < ow; ++ox) {
                                const int64_t iy = oy * w.sh - w.ph_b + ky;
                                const int64_t ix = ox * w.sw - w.pw_b + kx;
                                if (!pc.view.inBounds(iy, ix))
                                    continue;
                                want[static_cast<size_t>(
                                    ic * ih * iw +
                                    pc.view.parentOffset(iy, ix, iw))] +=
                                    col[static_cast<size_t>(
                                        r * col_ld + pc.col0 +
                                        (oy - oy0) * row_step + ox)];
                            }
                    }
                }
                EXPECT_TRUE(sameBytes(got.data(), want.data(),
                                      static_cast<int64_t>(got.size())));
            }
    }
}

} // namespace
} // namespace scnn
