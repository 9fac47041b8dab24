/**
 * @file
 * NEON (aarch64 Advanced SIMD) kernel table: 4-wide census
 * bit-packing (vcltq_f32 masks shifted in MSB-first), vcntq_u8 +
 * pairwise-widening Hamming cost rows, 4-pixel (two float64x2_t
 * blocks) SAD blocks,
 * 8-lane saturating-uint16 SGM aggregation rows (vminvq_u16
 * horizontal min), the 4x8 register-tiled FMLA f32 GEMM +
 * bias/ReLU epilogue for the DNN path (FMLA is fused, so gemmTile
 * is bit-identical to the scalar std::fmaf reference), and 8-wide
 * float64x2_t separable filter rows (FMUL + FADD, never FMLA).
 *
 * NEON is baseline on armv8-a, so no per-file target flags are
 * strictly required; the whole file degrades to a nullptr getter off
 * aarch64 so the dispatch layer never sees a table it cannot
 * execute. Exercised in CI by the aarch64 cross-compile job under
 * qemu-user with ASV_SIMD=neon.
 */

#include "common/simd.hh"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

#include "common/simd_reference.hh"

namespace asv::simd::detail
{

namespace
{

void
censusRowNeon(const float *const *rows, int radius, int x0, int x1,
              uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    const uint64x2_t one = vdupq_n_u64(1);
    int x = x0;
    // 4 pixels per iteration: two 2x64-bit accumulators collect one
    // comparison bit per tap, MSB-first — the scalar encoding. The
    // widened 32-bit mask keeps its low word all-ones, so AND-ing
    // with 1 extracts the predicate bit.
    for (; x + 4 <= x1; x += 4) {
        const float32x4_t c = vld1q_f32(center + x);
        uint64x2_t lo = vdupq_n_u64(0); // pixels x, x+1
        uint64x2_t hi = vdupq_n_u64(0); // pixels x+2, x+3
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                const float32x4_t nb = vld1q_f32(row + x + dx);
                const uint32x4_t m = vcltq_f32(nb, c);
                const uint64x2_t mlo = vmovl_u32(vget_low_u32(m));
                const uint64x2_t mhi = vmovl_u32(vget_high_u32(m));
                lo = vorrq_u64(vshlq_n_u64(lo, 1),
                               vandq_u64(mlo, one));
                hi = vorrq_u64(vshlq_n_u64(hi, 1),
                               vandq_u64(mhi, one));
            }
        }
        vst1q_u64(out + x, lo);
        vst1q_u64(out + x + 2, hi);
    }
    // Sub-vector tail: the shared scalar reference loop.
    censusRowRef(rows, radius, x, x1, out);
}

/**
 * One tile of the SAD block: B 2-lane pixel blocks (pixels x ..
 * x+2B-1) against the C candidates d .. d+C-1, in B*C independent
 * accumulators that share each left-image load; lane k of a block
 * holds one pixel and folds |l - r| (FSUB then FABS, never FABD)
 * over t, then dx, ascending (see the AVX2 tile). With Half, the last
 * block holds one pixel: its upper lane loads zero and is never
 * stored.
 */
template <int B, int C, bool Half>
inline void
sadTile(const double *const *lrows, const double *const *rrows,
        int radius, int x, int d, double *cost, size_t stride)
{
    const auto load = [](const double *p, int b) {
        return Half && b == B - 1
                   ? vcombine_f64(vld1_f64(p), vdup_n_f64(0.0))
                   : vld1q_f64(p);
    };
    float64x2_t acc[B][C];
    for (int b = 0; b < B; ++b)
        for (int c = 0; c < C; ++c)
            acc[b][c] = vdupq_n_f64(0.0);
    for (int t = 0; t <= 2 * radius; ++t) {
        const double *l = lrows[t] + x;
        const double *r = rrows[t] + x - d;
        for (int dx = -radius; dx <= radius; ++dx) {
            for (int b = 0; b < B; ++b) {
                const float64x2_t lv = load(l + dx + 2 * b, b);
                for (int c = 0; c < C; ++c) {
                    const float64x2_t diff =
                        vsubq_f64(lv, load(r + dx + 2 * b - c, b));
                    acc[b][c] = vaddq_f64(acc[b][c], vabsq_f64(diff));
                }
            }
        }
    }
    for (int b = 0; b < B; ++b) {
        for (int c = 0; c < C; ++c) {
            double *o = cost + size_t(c) * stride + size_t(2 * b);
            if (Half && b == B - 1)
                vst1_f64(o, vget_low_f64(acc[b][c]));
            else
                vst1q_f64(o, acc[b][c]);
        }
    }
}

/**
 * All @p nd candidates for B pixel blocks at x, four accumulators at
 * a time (two candidates for two blocks, four for one).
 */
template <int B, bool Half>
inline void
sadSweep(const double *const *lrows, const double *const *rrows,
         int radius, int x, int d0, int nd, double *cost, size_t stride)
{
    constexpr int C = 4 / B;
    int j = 0;
    for (; j + C <= nd; j += C)
        sadTile<B, C, Half>(lrows, rrows, radius, x, d0 + j,
                            cost + size_t(j) * stride, stride);
    double *rest = cost + size_t(j) * stride;
    switch (nd - j) {
    case 1:
        sadTile<B, 1, Half>(lrows, rrows, radius, x, d0 + j, rest, stride);
        break;
    case 2:
        sadTile<B, 2, Half>(lrows, rrows, radius, x, d0 + j, rest, stride);
        break;
    case 3:
        sadTile<B, 3, Half>(lrows, rrows, radius, x, d0 + j, rest, stride);
        break;
    default:
        break;
    }
}

void
sadBlockNeon(const double *const *lrows, const double *const *rrows,
             int radius, int x0, int n, int d0, int nd, double *cost)
{
    const size_t stride = size_t(n);
    // 4 pixels at a time, then the 1-3 left over as one or two
    // blocks whose last may hold one pixel — no scalar tail.
    int i = 0;
    for (; i + 4 <= n; i += 4)
        sadSweep<2, false>(lrows, rrows, radius, x0 + i, d0, nd, cost + i,
                           stride);
    switch (n - i) {
    case 3:
        sadSweep<2, true>(lrows, rrows, radius, x0 + i, d0, nd, cost + i,
                          stride);
        break;
    case 2:
        sadSweep<1, false>(lrows, rrows, radius, x0 + i, d0, nd, cost + i,
                           stride);
        break;
    case 1:
        sadSweep<1, true>(lrows, rrows, radius, x0 + i, d0, nd, cost + i,
                          stride);
        break;
    default:
        break;
    }
}

uint16_t
aggregateRowNeon(const uint16_t *cost, const uint16_t *prev,
                 uint16_t prev_min, int nd, uint16_t p1, uint16_t p2,
                 uint16_t *cur, uint32_t *total)
{
    // 8 disparity lanes per iteration. The neighbor loads at
    // prev +/- 1 are covered by the caller's 0xFFFF sentinels, so
    // every block is uniform; saturating adds + unsigned mins replay
    // the scalar clamped-uint32 order exactly (see AggregateRowFn).
    const uint16x8_t vp1 = vdupq_n_u16(p1);
    const uint16x8_t vpm = vdupq_n_u16(prev_min);
    const uint16x8_t vcap = vqaddq_u16(vpm, vdupq_n_u16(p2));
    uint16x8_t vmin = vdupq_n_u16(0xFFFF);
    int d = 0;
    for (; d + 8 <= nd; d += 8) {
        const uint16x8_t pv = vld1q_u16(prev + d);
        const uint16x8_t pl = vld1q_u16(prev + d - 1);
        const uint16x8_t pr = vld1q_u16(prev + d + 1);
        uint16x8_t best = vminq_u16(pv, vqaddq_u16(pl, vp1));
        best = vminq_u16(best, vqaddq_u16(pr, vp1));
        best = vminq_u16(best, vcap);
        // Every candidate >= prev_min, so the subtract cannot wrap.
        best = vsubq_u16(best, vpm);
        const uint16x8_t c = vqaddq_u16(vld1q_u16(cost + d), best);
        vst1q_u16(cur + d, c);
        vmin = vminq_u16(vmin, c);
        uint32x4_t t0 = vld1q_u32(total + d);
        uint32x4_t t1 = vld1q_u32(total + d + 4);
        t0 = vaddw_u16(t0, vget_low_u16(c));
        t1 = vaddw_u16(t1, vget_high_u16(c));
        vst1q_u32(total + d, t0);
        vst1q_u32(total + d + 4, t1);
    }
    const uint16_t vec_min = vminvq_u16(vmin);
    const uint16_t tail_min = aggregateRowRef(
        cost, prev, prev_min, nd, p1, p2, d, nd, cur, total);
    return std::min(vec_min, tail_min);
}

void
costRowNeon(const uint64_t *cl, const uint64_t *cr, int w, int dlo,
            int ndw, uint16_t *out)
{
    // Left-border pixels whose candidate window clamps to column 0
    // take the shared reference loop; interior pixels popcount two
    // candidates per iteration with vcnt + pairwise widening adds.
    // Candidate j reads cr[x - dlo - j] — descending addresses — so
    // the ascending 2x64-bit load is stored back lane-swapped.
    const int x_interior = std::min(dlo + ndw - 1, w);
    costRowRef(cl, cr, dlo, ndw, 0, std::max(x_interior, 0), out);
    for (int x = std::max(x_interior, 0); x < w; ++x) {
        const uint64x2_t c = vdupq_n_u64(cl[x]);
        const uint64_t *r = cr + x - dlo;
        uint16_t *o = out + size_t(x) * size_t(ndw);
        int j = 0;
        for (; j + 2 <= ndw; j += 2) {
            const uint64x2_t rv = vld1q_u64(r - j - 1);
            const uint8x16_t v =
                vcntq_u8(vreinterpretq_u8_u64(veorq_u64(c, rv)));
            const uint64x2_t sums =
                vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(v)));
            o[j] = static_cast<uint16_t>(vgetq_lane_u64(sums, 1));
            o[j + 1] = static_cast<uint16_t>(vgetq_lane_u64(sums, 0));
        }
        for (; j < ndw; ++j)
            o[j] = static_cast<uint16_t>(std::popcount(cl[x] ^ r[-j]));
    }
}

/**
 * An M-row, NV*4-column tile: M * NV 4-lane FMLA accumulators, each
 * folding i ascending from +0. vfmaq_f32 is a fused multiply-add
 * (one rounding per step), so each lane replays the scalar
 * std::fmaf chain bit-exactly. At 4 x 2 the eight accumulators, two
 * B vectors and four broadcasts stay well inside the 32 q registers.
 * The r and v loops are unrolled up front so the accumulator array
 * becomes registers instead of a stack array stored back on every i.
 */
template <int M, int NV>
void
tileNeon(const float *a, int64_t lda, const float *b, int64_t ldb,
         const uint32_t *rows, int k, float *out, int64_t ldo)
{
    float32x4_t acc[M][NV];
    #pragma GCC unroll 4
    for (int r = 0; r < M; ++r)
        #pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            acc[r][v] = vdupq_n_f32(0.0f);
    for (int i = 0; i < k; ++i) {
        const float *bi = b + rows[i] * ldb;
        float32x4_t bv[NV];
        #pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            bv[v] = vld1q_f32(bi + 4 * v);
        #pragma GCC unroll 4
        for (int r = 0; r < M; ++r) {
            const float32x4_t av = vdupq_n_f32(a[r * lda + i]);
            #pragma GCC unroll 3
            for (int v = 0; v < NV; ++v)
                acc[r][v] = vfmaq_f32(acc[r][v], av, bv[v]);
        }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < M; ++r)
        #pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            vst1q_f32(out + r * ldo + 4 * v, acc[r][v]);
}

using TileBody = void (*)(const float *, int64_t, const float *,
                          int64_t, const uint32_t *, int, float *,
                          int64_t);

/** tileNeon<m, nv> at [m - 1][nv - 1]. */
constexpr TileBody kTileBodies[4][2] = {
    {tileNeon<1, 1>, tileNeon<1, 2>},
    {tileNeon<2, 1>, tileNeon<2, 2>},
    {tileNeon<3, 1>, tileNeon<3, 2>},
    {tileNeon<4, 1>, tileNeon<4, 2>},
};

void
gemmTileNeon(const float *a, int64_t lda, const float *b, int64_t ldb,
             const uint32_t *rows, int k, int m, int n, float *out,
             int64_t ldo)
{
    // Whole 4-column vectors in registers; the 1-3 column tail of an
    // edge tile takes the reference chain.
    const int nv = n / 4;
    if (m > 0 && nv > 0)
        kTileBodies[m - 1][nv - 1](a, lda, b, ldb, rows, k, out, ldo);
    gemmTileRef(a, lda, b, ldb, rows, k, m, 4 * nv, n, out, ldo);
}

void
biasReluRowNeon(float *out, int n, float bias, bool relu)
{
    const float32x4_t vb = vdupq_n_f32(bias);
    const float32x4_t zero = vdupq_n_f32(0.0f);
    int j = 0;
    if (relu) {
        // NOT vmaxq_f32: aarch64 FMAX propagates NaN, but the
        // contract is `v > 0 ? v : +0` (NaN and -0 both map to +0,
        // matching the x86 maxps(v, 0) semantics). Compare + select
        // reproduces it: the NaN compare is false, selecting zero.
        for (; j + 4 <= n; j += 4) {
            const float32x4_t v =
                vaddq_f32(vld1q_f32(out + j), vb);
            const uint32x4_t pos = vcgtq_f32(v, zero);
            vst1q_f32(out + j, vbslq_f32(pos, v, zero));
        }
    } else {
        for (; j + 4 <= n; j += 4)
            vst1q_f32(out + j, vaddq_f32(vld1q_f32(out + j), vb));
    }
    biasReluRowRef(out, j, n, bias, relu);
}

/** Narrow two 2-lane double accumulators to 4 floats at @p out. */
inline void
storeNarrowed(float *out, float64x2_t lo, float64x2_t hi)
{
    vst1q_f32(out, vcvt_high_f32_f64(vcvt_f32_f64(lo), hi));
}

void
sepRowF32Neon(const float *const *rows, const float *k, int ntaps,
              int n, float *out)
{
    int x = 0;
    // 8 outputs per iteration: each tap's two 4-lane f32 products
    // (FMUL) are widened into four float64x2_t accumulators held in
    // registers (FADD). Never FMLA: the library's -ffp-contract=off
    // keeps the compiler from fusing the mul and add either.
    for (; x + 8 <= n; x += 8) {
        float64x2_t acc0 = vdupq_n_f64(0.0);
        float64x2_t acc1 = vdupq_n_f64(0.0);
        float64x2_t acc2 = vdupq_n_f64(0.0);
        float64x2_t acc3 = vdupq_n_f64(0.0);
        for (int t = 0; t < ntaps; ++t) {
            const float32x4_t kv = vdupq_n_f32(k[t]);
            const float *r = rows[t] + x;
            const float32x4_t p0 = vmulq_f32(kv, vld1q_f32(r));
            const float32x4_t p1 = vmulq_f32(kv, vld1q_f32(r + 4));
            acc0 = vaddq_f64(acc0, vcvt_f64_f32(vget_low_f32(p0)));
            acc1 = vaddq_f64(acc1, vcvt_high_f64_f32(p0));
            acc2 = vaddq_f64(acc2, vcvt_f64_f32(vget_low_f32(p1)));
            acc3 = vaddq_f64(acc3, vcvt_high_f64_f32(p1));
        }
        storeNarrowed(out + x, acc0, acc1);
        storeNarrowed(out + x + 4, acc2, acc3);
    }
    sepRowRef(rows, k, ntaps, x, n, out);
}

void
sepRowF64Neon(const float *const *rows, const double *k, int ntaps,
              int n, float *out)
{
    int x = 0;
    // 8 outputs per iteration in four float64x2_t accumulators:
    // widen, then FMUL + FADD per tap (never FMLA).
    for (; x + 8 <= n; x += 8) {
        float64x2_t acc0 = vdupq_n_f64(0.0);
        float64x2_t acc1 = vdupq_n_f64(0.0);
        float64x2_t acc2 = vdupq_n_f64(0.0);
        float64x2_t acc3 = vdupq_n_f64(0.0);
        for (int t = 0; t < ntaps; ++t) {
            const float64x2_t kv = vdupq_n_f64(k[t]);
            const float *r = rows[t] + x;
            const float32x4_t v0 = vld1q_f32(r);
            const float32x4_t v1 = vld1q_f32(r + 4);
            acc0 = vaddq_f64(
                acc0, vmulq_f64(kv, vcvt_f64_f32(vget_low_f32(v0))));
            acc1 = vaddq_f64(acc1, vmulq_f64(kv, vcvt_high_f64_f32(v0)));
            acc2 = vaddq_f64(
                acc2, vmulq_f64(kv, vcvt_f64_f32(vget_low_f32(v1))));
            acc3 = vaddq_f64(acc3, vmulq_f64(kv, vcvt_high_f64_f32(v1)));
        }
        storeNarrowed(out + x, acc0, acc1);
        storeNarrowed(out + x + 4, acc2, acc3);
    }
    sepRowRef(rows, k, ntaps, x, n, out);
}

constexpr Kernels kNeonKernels = {
    "neon",          Level::Neon,      censusRowNeon,
    sadBlockNeon,    aggregateRowNeon, costRowNeon,
    gemmTileNeon,    4,                8,
    biasReluRowNeon, sepRowF32Neon,    sepRowF64Neon,
};

} // namespace

const Kernels *
neonKernels()
{
    return &kNeonKernels;
}

} // namespace asv::simd::detail

#else // !aarch64

namespace asv::simd::detail
{

const Kernels *
neonKernels()
{
    return nullptr;
}

} // namespace asv::simd::detail

#endif
