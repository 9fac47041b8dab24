/**
 * @file
 * Shared scalar reference loops for the SIMD kernel table.
 *
 * One definition of the census bit-pack, the fused census->Hamming
 * pixel-major cost row, SAD block, semi-global aggregation,
 * f32 GEMM tile, bias+ReLU epilogue, and separable filter row
 * semantics, included by
 * every per-ISA translation unit: the scalar table uses them as its
 * kernels, and the vector tables use them for sub-vector tails (the
 * SAD block's vector bodies mask their tail lanes instead, so only
 * the scalar table runs sadBlockRef).
 * Keeping a single copy means a future change to the encoding or
 * accumulation order cannot silently diverge between the scalar
 * baseline and a tail path — the exact breakage the bit-identity
 * contract guards against.
 *
 * Almost all operations are exact (integer, predicate, or IEEE
 * add/sub/abs with no fusable multiply-adds), so compiling these
 * inline functions under different target flags cannot change their
 * results. The one multiply-accumulate loop — the f32 GEMM tile for
 * the DNN path — spells its fusion out with std::fmaf (correctly
 * rounded by definition, never silently contracted or split), so it
 * too is flag-independent; see docs/KERNELS.md for the f32 contract.
 * The separable filter row multiplies and adds in separate IEEE
 * operations; it stays flag-independent only because the library
 * builds with -ffp-contract=off, which forbids the compiler from
 * fusing them.
 */

#ifndef ASV_COMMON_SIMD_REFERENCE_HH
#define ASV_COMMON_SIMD_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/simd.hh"

namespace asv::simd::detail
{

/** Census bit-pack of pixels [x0, x1); see CensusRowFn. */
inline void
censusRowRef(const float *const *rows, int radius, int x0, int x1,
             uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    for (int x = x0; x < x1; ++x) {
        const float c = center[x];
        uint64_t bits = 0;
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                bits = (bits << 1) | (row[x + dx] < c ? 1u : 0u);
            }
        }
        out[x] = bits;
    }
}

/** SAD block of n pixels against nd candidates; see SadBlockFn. */
inline void
sadBlockRef(const double *const *lrows, const double *const *rrows,
            int radius, int x0, int n, int d0, int nd, double *cost)
{
    for (int j = 0; j < nd; ++j) {
        const int d = d0 + j;
        for (int i = 0; i < n; ++i) {
            const int x = x0 + i;
            double s = 0.0;
            for (int t = 0; t <= 2 * radius; ++t) {
                const double *l = lrows[t];
                const double *r = rrows[t];
                for (int dx = -radius; dx <= radius; ++dx)
                    s += std::abs(l[x + dx] - r[x + dx - d]);
            }
            cost[size_t(j) * size_t(n) + size_t(i)] = s;
        }
    }
}

/**
 * Semi-global aggregation of disparities [d0, d1) of one pixel; see
 * AggregateRowFn. The vector tables call this with d0 > 0 for the
 * sub-vector tail; out-of-range neighbors are skipped by branching,
 * which the sentinel contract makes equivalent to the vector bodies'
 * 0xFFFF loads. All arithmetic is uint32 with a final clamp — the
 * semantics every saturating-uint16 vector lane must reproduce.
 */
inline uint16_t
aggregateRowRef(const uint16_t *cost, const uint16_t *prev,
                uint16_t prev_min, int nd, uint16_t p1, uint16_t p2,
                int d0, int d1, uint16_t *cur, uint32_t *total)
{
    uint16_t cur_min = 0xFFFF;
    for (int d = d0; d < d1; ++d) {
        uint32_t best = prev[d];
        if (d > 0)
            best = std::min(best, uint32_t(prev[d - 1]) + p1);
        if (d + 1 < nd)
            best = std::min(best, uint32_t(prev[d + 1]) + p1);
        best = std::min(best, uint32_t(prev_min) + p2);
        best -= prev_min;
        const uint32_t v = uint32_t(cost[d]) + best;
        const uint16_t c =
            static_cast<uint16_t>(std::min<uint32_t>(v, 0xFFFF));
        cur[d] = c;
        total[d] += c;
        cur_min = std::min(cur_min, c);
    }
    return cur_min;
}

/**
 * Fused pixel-major cost row for pixels [x0, x1); see CostRowFn. The
 * vector tables call this for per-pixel candidate tails and for the
 * left-border pixels whose candidates clamp to column 0. For each
 * pixel the first min(ndw, x - dlo + 1) candidates read descending
 * right-census addresses; the rest all clamp to cr[0] and therefore
 * share one popcount.
 */
inline void
costRowRef(const uint64_t *cl, const uint64_t *cr, int dlo, int ndw,
           int x0, int x1, uint16_t *out)
{
    for (int x = x0; x < x1; ++x) {
        const uint64_t c = cl[x];
        uint16_t *o = out + size_t(x) * size_t(ndw);
        const int m = std::clamp(x - dlo + 1, 0, ndw);
        for (int j = 0; j < m; ++j)
            o[j] = static_cast<uint16_t>(
                std::popcount(c ^ cr[x - dlo - j]));
        if (m < ndw) {
            const uint16_t edge =
                static_cast<uint16_t>(std::popcount(c ^ cr[0]));
            for (int j = m; j < ndw; ++j)
                o[j] = edge;
        }
    }
}

/**
 * f32 GEMM tile for rows [0, m) and columns [j0, j1); see GemmTileFn.
 * The scalar table calls it for whole tiles, the vector tables with
 * j0 > 0 for the sub-vector tail. Each output is an independent
 * fused-multiply-add chain over i ascending with the accumulator
 * starting at +0.0f — the accumulation order every vector lane
 * replays. The i loop is outermost so the m x (j1 - j0) chains are
 * independent steps, not one serial chain. std::fmaf is correctly
 * rounded (a single rounding per step), so every vector lane — a
 * hardware fused multiply-add (AVX2+FMA, NEON FMLA) — reproduces
 * these bits exactly. docs/KERNELS.md spells out the contract.
 */
inline void
gemmTileRef(const float *a, int64_t lda, const float *b, int64_t ldb,
            const uint32_t *rows, int k, int m, int j0, int j1,
            float *out, int64_t ldo)
{
    float acc[kMaxGemmMr][kMaxGemmNr] = {};
    for (int i = 0; i < k; ++i) {
        const float *bi = b + rows[i] * ldb;
        for (int r = 0; r < m; ++r) {
            const float ar = a[r * lda + i];
            for (int j = j0; j < j1; ++j)
                acc[r][j] = std::fmaf(ar, bi[j], acc[r][j]);
        }
    }
    for (int r = 0; r < m; ++r)
        for (int j = j0; j < j1; ++j)
            out[r * ldo + j] = acc[r][j];
}

/**
 * Bias + optional ReLU epilogue for outputs [j0, j1); see
 * BiasReluRowFn. Plain IEEE add (exact across ISAs); the ReLU is
 * `v > 0 ? v : +0`, which sends NaN and -0 to +0 — the semantics the
 * x86 maxps(v, 0) idiom happens to share and the NEON lane must
 * reproduce with a compare+select (FMAX would propagate NaN).
 */
inline void
biasReluRowRef(float *out, int j0, int j1, float bias, bool relu)
{
    for (int j = j0; j < j1; ++j) {
        const float v = out[j] + bias;
        out[j] = relu ? (v > 0.0f ? v : 0.0f) : v;
    }
}

/**
 * Separable filter row for outputs [x0, x1); see SepRowF32Fn and
 * SepRowF64Fn. @p Tap is float (f32 product widened into the f64
 * sum) or double (f64 product and sum) — the expression
 * `k[t] * rows[t][x]` has exactly that type. The vector tables call
 * this with x0 > 0 for the sub-vector tail.
 */
template <typename Tap>
inline void
sepRowRef(const float *const *rows, const Tap *k, int ntaps, int x0,
          int x1, float *out)
{
    for (int x = x0; x < x1; ++x) {
        double acc = 0.0;
        for (int t = 0; t < ntaps; ++t)
            acc += k[t] * rows[t][x];
        out[x] = static_cast<float>(acc);
    }
}

} // namespace asv::simd::detail

#endif // ASV_COMMON_SIMD_REFERENCE_HH
