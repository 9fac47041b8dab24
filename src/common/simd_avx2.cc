/**
 * @file
 * AVX2 kernel table: 8-wide census bit-packing, popcount-by-nibble
 * (PSHUFB lookup + SAD reduction) Hamming cost rows over 4x64-bit
 * lanes, 8-pixel (two 4-lane double accumulators per candidate, two
 * candidates interleaved) SAD blocks, 16-lane
 * saturating-uint16 SGM aggregation rows, the 4x24 register-tiled
 * FMA f32 GEMM + bias/ReLU epilogue for the DNN path (bit-identical
 * to the scalar std::fmaf reference), and the 16-wide separable filter
 * rows of Farnebäck flow (four 4-lane double accumulators, explicit
 * mul then add).
 *
 * Compiled with -mavx2 -mfma -mpopcnt (see CMakeLists); degrades to
 * a nullptr getter without AVX2 or FMA, so such a build dispatches
 * the bit-identical scalar table instead.
 */

#include "common/simd.hh"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__AVX2__) && \
    defined(__FMA__)

#include <immintrin.h>

#include "common/simd_reference.hh"

namespace asv::simd::detail
{

namespace
{

void
censusRowAvx2(const float *const *rows, int radius, int x0, int x1,
              uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    int x = x0;
    // 8 pixels per iteration: the float comparison mask is widened to
    // two 4x64-bit registers and shifted in MSB-first, matching the
    // scalar (dy, dx) encoding bit for bit.
    for (; x + 8 <= x1; x += 8) {
        const __m256 c = _mm256_loadu_ps(center + x);
        __m256i lo = _mm256_setzero_si256(); // pixels x .. x+3
        __m256i hi = _mm256_setzero_si256(); // pixels x+4 .. x+7
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                const __m256 nb = _mm256_loadu_ps(row + x + dx);
                const __m256i m = _mm256_castps_si256(
                    _mm256_cmp_ps(nb, c, _CMP_LT_OQ));
                const __m256i mlo = _mm256_cvtepi32_epi64(
                    _mm256_castsi256_si128(m));
                const __m256i mhi = _mm256_cvtepi32_epi64(
                    _mm256_extracti128_si256(m, 1));
                lo = _mm256_or_si256(_mm256_slli_epi64(lo, 1),
                                     _mm256_srli_epi64(mlo, 63));
                hi = _mm256_or_si256(_mm256_slli_epi64(hi, 1),
                                     _mm256_srli_epi64(mhi, 63));
            }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + x), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + x + 4),
                            hi);
    }
    // Sub-vector tail: the shared scalar reference loop.
    censusRowRef(rows, radius, x, x1, out);
}

/**
 * One tile of the SAD block: B 4-lane pixel blocks (pixels x ..
 * x+4B-1) against the C candidates d .. d+C-1, in B*C independent
 * accumulators that share each left-image load. Lane k of a block
 * holds one pixel; its right tap for a candidate sits that many
 * columns left of its left tap, so every load is a plain unaligned
 * load and each lane folds |l - r| (abs by clearing the sign bit)
 * over t, then dx, ascending — the scalar order. With Tail, the last
 * block's lanes outside @p mask neither load nor store.
 */
template <int B, int C, bool Tail>
inline void
sadTile(const double *const *lrows, const double *const *rrows,
        int radius, int x, int d, __m256i mask, double *cost,
        size_t stride)
{
    const __m256d sign = _mm256_set1_pd(-0.0);
    const auto load = [&](const double *p, int b) {
        return Tail && b == B - 1 ? _mm256_maskload_pd(p, mask)
                                  : _mm256_loadu_pd(p);
    };
    __m256d acc[B][C];
    for (int b = 0; b < B; ++b)
        for (int c = 0; c < C; ++c)
            acc[b][c] = _mm256_setzero_pd();
    for (int t = 0; t <= 2 * radius; ++t) {
        const double *l = lrows[t] + x;
        const double *r = rrows[t] + x - d;
        for (int dx = -radius; dx <= radius; ++dx) {
            for (int b = 0; b < B; ++b) {
                const __m256d lv = load(l + dx + 4 * b, b);
                for (int c = 0; c < C; ++c) {
                    const __m256d diff = _mm256_sub_pd(
                        lv, load(r + dx + 4 * b - c, b));
                    acc[b][c] = _mm256_add_pd(
                        acc[b][c], _mm256_andnot_pd(sign, diff));
                }
            }
        }
    }
    for (int b = 0; b < B; ++b) {
        for (int c = 0; c < C; ++c) {
            double *o = cost + size_t(c) * stride + size_t(4 * b);
            if (Tail && b == B - 1)
                _mm256_maskstore_pd(o, mask, acc[b][c]);
            else
                _mm256_storeu_pd(o, acc[b][c]);
        }
    }
}

/**
 * All @p nd candidates for B pixel blocks at x, four accumulators at
 * a time (two candidates for two blocks, four for one).
 */
template <int B, bool Tail>
inline void
sadSweep(const double *const *lrows, const double *const *rrows,
         int radius, int x, int d0, int nd, __m256i mask, double *cost,
         size_t stride)
{
    constexpr int C = 4 / B;
    int j = 0;
    for (; j + C <= nd; j += C)
        sadTile<B, C, Tail>(lrows, rrows, radius, x, d0 + j, mask,
                            cost + size_t(j) * stride, stride);
    double *rest = cost + size_t(j) * stride;
    switch (nd - j) {
    case 1:
        sadTile<B, 1, Tail>(lrows, rrows, radius, x, d0 + j, mask, rest,
                            stride);
        break;
    case 2:
        sadTile<B, 2, Tail>(lrows, rrows, radius, x, d0 + j, mask, rest,
                            stride);
        break;
    case 3:
        sadTile<B, 3, Tail>(lrows, rrows, radius, x, d0 + j, mask, rest,
                            stride);
        break;
    default:
        break;
    }
}

void
sadBlockAvx2(const double *const *lrows, const double *const *rrows,
             int radius, int x0, int n, int d0, int nd, double *cost)
{
    const size_t stride = size_t(n);
    // 8 pixels at a time, then the 1-7 left over as one or two blocks
    // whose last is lane-masked — no scalar tail.
    int i = 0;
    const __m256i all = _mm256_set1_epi64x(-1);
    for (; i + 8 <= n; i += 8)
        sadSweep<2, false>(lrows, rrows, radius, x0 + i, d0, nd, all,
                           cost + i, stride);
    const int rest = n - i;
    const __m256i mask = _mm256_cmpgt_epi64(
        _mm256_set1_epi64x(rest % 4), _mm256_setr_epi64x(0, 1, 2, 3));
    if (rest > 4)
        sadSweep<2, true>(lrows, rrows, radius, x0 + i, d0, nd, mask,
                          cost + i, stride);
    else if (rest == 4)
        sadSweep<1, false>(lrows, rrows, radius, x0 + i, d0, nd, all,
                           cost + i, stride);
    else if (rest > 0)
        sadSweep<1, true>(lrows, rrows, radius, x0 + i, d0, nd, mask,
                          cost + i, stride);
}

uint16_t
aggregateRowAvx2(const uint16_t *cost, const uint16_t *prev,
                 uint16_t prev_min, int nd, uint16_t p1, uint16_t p2,
                 uint16_t *cur, uint32_t *total)
{
    // 16 disparity lanes per iteration. The neighbor loads at
    // prev +/- 1 are covered by the caller's 0xFFFF sentinels, so
    // every block is uniform; saturating adds + unsigned mins replay
    // the scalar clamped-uint32 order exactly (see AggregateRowFn).
    const __m256i vp1 = _mm256_set1_epi16(short(p1));
    const __m256i vpm = _mm256_set1_epi16(short(prev_min));
    const __m256i vcap =
        _mm256_adds_epu16(vpm, _mm256_set1_epi16(short(p2)));
    __m256i vmin = _mm256_set1_epi16(short(0xFFFF));
    int d = 0;
    for (; d + 16 <= nd; d += 16) {
        const __m256i pv = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + d));
        const __m256i pl = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + d - 1));
        const __m256i pr = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(prev + d + 1));
        __m256i best =
            _mm256_min_epu16(pv, _mm256_adds_epu16(pl, vp1));
        best = _mm256_min_epu16(best, _mm256_adds_epu16(pr, vp1));
        best = _mm256_min_epu16(best, vcap);
        // Every candidate >= prev_min, so the subtract cannot wrap.
        best = _mm256_sub_epi16(best, vpm);
        const __m256i c = _mm256_adds_epu16(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(cost + d)),
            best);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(cur + d), c);
        vmin = _mm256_min_epu16(vmin, c);
        __m256i t0 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(total + d));
        __m256i t1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(total + d + 8));
        t0 = _mm256_add_epi32(
            t0, _mm256_cvtepu16_epi32(_mm256_castsi256_si128(c)));
        t1 = _mm256_add_epi32(
            t1,
            _mm256_cvtepu16_epi32(_mm256_extracti128_si256(c, 1)));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(total + d),
                            t0);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(total + d + 8), t1);
    }
    const __m128i m128 =
        _mm_min_epu16(_mm256_castsi256_si128(vmin),
                      _mm256_extracti128_si256(vmin, 1));
    const uint16_t vec_min = static_cast<uint16_t>(
        _mm_extract_epi16(_mm_minpos_epu16(m128), 0));
    const uint16_t tail_min = aggregateRowRef(
        cost, prev, prev_min, nd, p1, p2, d, nd, cur, total);
    return std::min(vec_min, tail_min);
}

void
costRowAvx2(const uint64_t *cl, const uint64_t *cr, int w, int dlo,
            int ndw, uint16_t *out)
{
    // Left-border pixels whose candidate window clamps to column 0
    // take the shared reference loop; interior pixels popcount 4
    // candidates per iteration by nibble lookup + SAD reduction.
    // Candidate j reads cr[x - dlo - j] — descending addresses — so
    // the ascending 4x64-bit load is stored back lane-reversed.
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2,
        1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i zero = _mm256_setzero_si256();
    const int x_interior = std::min(dlo + ndw - 1, w);
    costRowRef(cl, cr, dlo, ndw, 0, std::max(x_interior, 0), out);
    for (int x = std::max(x_interior, 0); x < w; ++x) {
        const __m256i c = _mm256_set1_epi64x(int64_t(cl[x]));
        const uint64_t *r = cr + x - dlo;
        uint16_t *o = out + size_t(x) * size_t(ndw);
        int j = 0;
        for (; j + 4 <= ndw; j += 4) {
            const __m256i rv = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(r - j - 3));
            const __m256i v = _mm256_xor_si256(c, rv);
            const __m256i nlo = _mm256_and_si256(v, low);
            const __m256i nhi =
                _mm256_and_si256(_mm256_srli_epi64(v, 4), low);
            const __m256i cnt =
                _mm256_add_epi8(_mm256_shuffle_epi8(lut, nlo),
                                _mm256_shuffle_epi8(lut, nhi));
            const __m256i sums = _mm256_sad_epu8(cnt, zero);
            alignas(32) uint64_t tmp[4];
            _mm256_store_si256(reinterpret_cast<__m256i *>(tmp),
                               sums);
            o[j] = static_cast<uint16_t>(tmp[3]);
            o[j + 1] = static_cast<uint16_t>(tmp[2]);
            o[j + 2] = static_cast<uint16_t>(tmp[1]);
            o[j + 3] = static_cast<uint16_t>(tmp[0]);
        }
        for (; j < ndw; ++j)
            o[j] = static_cast<uint16_t>(
                _mm_popcnt_u64(cl[x] ^ r[-j]));
    }
}

/**
 * An M-row, NV*8-column tile: M * NV 8-lane accumulators, each
 * folding i ascending from +0 with one rounding per step — the
 * scalar std::fmaf chain, replayed per output. At 4 x 3 the twelve
 * accumulators, three B vectors and one broadcast fill the sixteen
 * ymm registers, and each i issues 12 FMAs for 8 loads (the row
 * table's entry picks B's row). The r and v loops are unrolled up
 * front so the accumulator array becomes registers; otherwise GCC
 * stores all of it back on every i.
 */
template <int M, int NV>
void
tileAvx2(const float *a, int64_t lda, const float *b, int64_t ldb,
         const uint32_t *rows, int k, float *out, int64_t ldo)
{
    __m256 acc[M][NV];
    #pragma GCC unroll 4
    for (int r = 0; r < M; ++r)
        #pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            acc[r][v] = _mm256_setzero_ps();
    for (int i = 0; i < k; ++i) {
        const float *bi = b + rows[i] * ldb;
        __m256 bv[NV];
        #pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            bv[v] = _mm256_loadu_ps(bi + 8 * v);
        #pragma GCC unroll 4
        for (int r = 0; r < M; ++r) {
            const __m256 av = _mm256_broadcast_ss(a + r * lda + i);
            #pragma GCC unroll 3
            for (int v = 0; v < NV; ++v)
                acc[r][v] = _mm256_fmadd_ps(av, bv[v], acc[r][v]);
        }
    }
    #pragma GCC unroll 4
    for (int r = 0; r < M; ++r)
        #pragma GCC unroll 3
        for (int v = 0; v < NV; ++v)
            _mm256_storeu_ps(out + r * ldo + 8 * v, acc[r][v]);
}

using TileBody = void (*)(const float *, int64_t, const float *,
                          int64_t, const uint32_t *, int, float *,
                          int64_t);

/** tileAvx2<m, nv> at [m - 1][nv - 1]. */
constexpr TileBody kTileBodies[4][3] = {
    {tileAvx2<1, 1>, tileAvx2<1, 2>, tileAvx2<1, 3>},
    {tileAvx2<2, 1>, tileAvx2<2, 2>, tileAvx2<2, 3>},
    {tileAvx2<3, 1>, tileAvx2<3, 2>, tileAvx2<3, 3>},
    {tileAvx2<4, 1>, tileAvx2<4, 2>, tileAvx2<4, 3>},
};

void
gemmTileAvx2(const float *a, int64_t lda, const float *b, int64_t ldb,
             const uint32_t *rows, int k, int m, int n, float *out,
             int64_t ldo)
{
    // Whole 8-column vectors in registers; the 1-7 column tail of an
    // edge tile takes the reference chain.
    const int nv = n / 8;
    if (m > 0 && nv > 0)
        kTileBodies[m - 1][nv - 1](a, lda, b, ldb, rows, k, out, ldo);
    gemmTileRef(a, lda, b, ldb, rows, k, m, 8 * nv, n, out, ldo);
}

void
biasReluRowAvx2(float *out, int n, float bias, bool relu)
{
    const __m256 vb = _mm256_set1_ps(bias);
    const __m256 zero = _mm256_setzero_ps();
    int j = 0;
    if (relu) {
        // VMAXPS(v, 0) returns the second operand on NaN and +0 for
        // -0 — exactly the reference `v > 0 ? v : +0`.
        for (; j + 8 <= n; j += 8) {
            const __m256 v =
                _mm256_add_ps(_mm256_loadu_ps(out + j), vb);
            _mm256_storeu_ps(out + j, _mm256_max_ps(v, zero));
        }
    } else {
        for (; j + 8 <= n; j += 8)
            _mm256_storeu_ps(
                out + j, _mm256_add_ps(_mm256_loadu_ps(out + j), vb));
    }
    biasReluRowRef(out, j, n, bias, relu);
}

/** Narrow two 4-lane double accumulators to 8 floats at @p out. */
inline void
storeNarrowed(float *out, __m256d lo, __m256d hi)
{
    _mm256_storeu_ps(out, _mm256_set_m128(_mm256_cvtpd_ps(hi),
                                          _mm256_cvtpd_ps(lo)));
}

void
sepRowF32Avx2(const float *const *rows, const float *k, int ntaps,
              int n, float *out)
{
    int x = 0;
    // 16 outputs per iteration: each tap's 8-lane f32 product is
    // widened into two 4-lane double accumulators, which stay in
    // registers across the whole tap loop. Explicit mul then add —
    // the library's -ffp-contract=off keeps them unfused, so every
    // lane replays the scalar f32-product / f64-sum sequence.
    for (; x + 16 <= n; x += 16) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        __m256d acc2 = _mm256_setzero_pd();
        __m256d acc3 = _mm256_setzero_pd();
        for (int t = 0; t < ntaps; ++t) {
            const __m256 kv = _mm256_set1_ps(k[t]);
            const float *r = rows[t] + x;
            const __m256 p0 = _mm256_mul_ps(kv, _mm256_loadu_ps(r));
            const __m256 p1 =
                _mm256_mul_ps(kv, _mm256_loadu_ps(r + 8));
            acc0 = _mm256_add_pd(
                acc0, _mm256_cvtps_pd(_mm256_castps256_ps128(p0)));
            acc1 = _mm256_add_pd(
                acc1, _mm256_cvtps_pd(_mm256_extractf128_ps(p0, 1)));
            acc2 = _mm256_add_pd(
                acc2, _mm256_cvtps_pd(_mm256_castps256_ps128(p1)));
            acc3 = _mm256_add_pd(
                acc3, _mm256_cvtps_pd(_mm256_extractf128_ps(p1, 1)));
        }
        storeNarrowed(out + x, acc0, acc1);
        storeNarrowed(out + x + 8, acc2, acc3);
    }
    for (; x + 4 <= n; x += 4) {
        __m256d acc = _mm256_setzero_pd();
        for (int t = 0; t < ntaps; ++t) {
            const __m128 p =
                _mm_mul_ps(_mm_set1_ps(k[t]), _mm_loadu_ps(rows[t] + x));
            acc = _mm256_add_pd(acc, _mm256_cvtps_pd(p));
        }
        _mm_storeu_ps(out + x, _mm256_cvtpd_ps(acc));
    }
    sepRowRef(rows, k, ntaps, x, n, out);
}

void
sepRowF64Avx2(const float *const *rows, const double *k, int ntaps,
              int n, float *out)
{
    int x = 0;
    // 16 outputs per iteration in four 4-lane double accumulators:
    // pixels widen to double first, then one f64 multiply and one
    // f64 add per tap — the scalar moment-pass sequence.
    for (; x + 16 <= n; x += 16) {
        __m256d acc0 = _mm256_setzero_pd();
        __m256d acc1 = _mm256_setzero_pd();
        __m256d acc2 = _mm256_setzero_pd();
        __m256d acc3 = _mm256_setzero_pd();
        for (int t = 0; t < ntaps; ++t) {
            const __m256d kv = _mm256_set1_pd(k[t]);
            const float *r = rows[t] + x;
            acc0 = _mm256_add_pd(
                acc0,
                _mm256_mul_pd(kv, _mm256_cvtps_pd(_mm_loadu_ps(r))));
            acc1 = _mm256_add_pd(
                acc1, _mm256_mul_pd(
                          kv, _mm256_cvtps_pd(_mm_loadu_ps(r + 4))));
            acc2 = _mm256_add_pd(
                acc2, _mm256_mul_pd(
                          kv, _mm256_cvtps_pd(_mm_loadu_ps(r + 8))));
            acc3 = _mm256_add_pd(
                acc3, _mm256_mul_pd(
                          kv, _mm256_cvtps_pd(_mm_loadu_ps(r + 12))));
        }
        storeNarrowed(out + x, acc0, acc1);
        storeNarrowed(out + x + 8, acc2, acc3);
    }
    for (; x + 4 <= n; x += 4) {
        __m256d acc = _mm256_setzero_pd();
        for (int t = 0; t < ntaps; ++t)
            acc = _mm256_add_pd(
                acc, _mm256_mul_pd(_mm256_set1_pd(k[t]),
                                   _mm256_cvtps_pd(
                                       _mm_loadu_ps(rows[t] + x))));
        _mm_storeu_ps(out + x, _mm256_cvtpd_ps(acc));
    }
    sepRowRef(rows, k, ntaps, x, n, out);
}

constexpr Kernels kAvx2Kernels = {
    "avx2",          Level::Avx2,      censusRowAvx2,
    sadBlockAvx2,    aggregateRowAvx2, costRowAvx2,
    gemmTileAvx2,    4,                24,
    biasReluRowAvx2, sepRowF32Avx2,    sepRowF64Avx2,
};

} // namespace

const Kernels *
avx2Kernels()
{
    return &kAvx2Kernels;
}

} // namespace asv::simd::detail

#else // !x86, or no -mavx2 -mfma

namespace asv::simd::detail
{

const Kernels *
avx2Kernels()
{
    return nullptr;
}

} // namespace asv::simd::detail

#endif
