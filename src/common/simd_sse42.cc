/**
 * @file
 * SSE4.2 kernel table: 4-wide census bit-packing, hardware-POPCNT
 * Hamming cost rows, 4-pixel (two 2-lane double blocks) SAD blocks,
 * 8-lane saturating-uint16 SGM aggregation rows (PHMINPOSUW horizontal min), the 4-lane
 * f32 GEMM row + bias/ReLU epilogue for the DNN path, and 8-wide
 * separable filter rows (four 2-lane double accumulators). SSE4.2
 * has no FMA, so gemmRow is the table's one tolerance-tested kernel
 * (fusedF32 == false; see docs/KERNELS.md); the filter rows never
 * fuse anywhere and are exact.
 *
 * Compiled with -msse4.2 -mpopcnt (see CMakeLists); the whole file
 * degrades to a nullptr getter when those flags are unavailable so
 * the dispatch layer never sees a table it cannot execute.
 */

#include "common/simd.hh"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__SSE4_2__)

#include <nmmintrin.h>

#include "common/simd_reference.hh"

namespace asv::simd::detail
{

namespace
{

void
censusRowSse42(const float *const *rows, int radius, int x0, int x1,
               uint64_t *out)
{
    const float *center = rows[radius];
    const int taps = 2 * radius + 1;
    int x = x0;
    // 4 pixels per iteration: two 2x64-bit accumulators collect one
    // comparison bit per tap, MSB-first — the scalar encoding.
    for (; x + 4 <= x1; x += 4) {
        const __m128 c = _mm_loadu_ps(center + x);
        __m128i lo = _mm_setzero_si128(); // pixels x, x+1
        __m128i hi = _mm_setzero_si128(); // pixels x+2, x+3
        for (int t = 0; t < taps; ++t) {
            const float *row = rows[t];
            for (int dx = -radius; dx <= radius; ++dx) {
                if (t == radius && dx == 0)
                    continue;
                const __m128 nb = _mm_loadu_ps(row + x + dx);
                const __m128i m =
                    _mm_castps_si128(_mm_cmplt_ps(nb, c));
                const __m128i mlo = _mm_cvtepi32_epi64(m);
                const __m128i mhi =
                    _mm_cvtepi32_epi64(_mm_srli_si128(m, 8));
                lo = _mm_or_si128(_mm_slli_epi64(lo, 1),
                                  _mm_srli_epi64(mlo, 63));
                hi = _mm_or_si128(_mm_slli_epi64(hi, 1),
                                  _mm_srli_epi64(mhi, 63));
            }
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + x), lo);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + x + 2),
                         hi);
    }
    // Sub-vector tail: the shared scalar reference loop.
    censusRowRef(rows, radius, x, x1, out);
}

/**
 * One tile of the SAD block: B 2-lane pixel blocks (pixels x ..
 * x+2B-1) against the C candidates d .. d+C-1, in B*C independent
 * accumulators that share each left-image load; lane k of a block
 * holds one pixel and folds |l - r| over t, then dx, ascending (see
 * the AVX2 tile). With Half, the last block holds one pixel: its
 * upper lane loads zero (MOVSD) and is never stored.
 */
template <int B, int C, bool Half>
inline void
sadTile(const double *const *lrows, const double *const *rrows,
        int radius, int x, int d, double *cost, size_t stride)
{
    const __m128d sign = _mm_set1_pd(-0.0);
    const auto load = [](const double *p, int b) {
        return Half && b == B - 1 ? _mm_load_sd(p) : _mm_loadu_pd(p);
    };
    __m128d acc[B][C];
    for (int b = 0; b < B; ++b)
        for (int c = 0; c < C; ++c)
            acc[b][c] = _mm_setzero_pd();
    for (int t = 0; t <= 2 * radius; ++t) {
        const double *l = lrows[t] + x;
        const double *r = rrows[t] + x - d;
        for (int dx = -radius; dx <= radius; ++dx) {
            for (int b = 0; b < B; ++b) {
                const __m128d lv = load(l + dx + 2 * b, b);
                for (int c = 0; c < C; ++c) {
                    const __m128d diff =
                        _mm_sub_pd(lv, load(r + dx + 2 * b - c, b));
                    acc[b][c] = _mm_add_pd(acc[b][c],
                                           _mm_andnot_pd(sign, diff));
                }
            }
        }
    }
    for (int b = 0; b < B; ++b) {
        for (int c = 0; c < C; ++c) {
            double *o = cost + size_t(c) * stride + size_t(2 * b);
            if (Half && b == B - 1)
                _mm_store_sd(o, acc[b][c]);
            else
                _mm_storeu_pd(o, acc[b][c]);
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
sadBlockSse42(const double *const *lrows, const double *const *rrows,
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
aggregateRowSse42(const uint16_t *cost, const uint16_t *prev,
                  uint16_t prev_min, int nd, uint16_t p1,
                  uint16_t p2, uint16_t *cur, uint32_t *total)
{
    // 8 disparity lanes per iteration. The neighbor loads at
    // prev +/- 1 are covered by the caller's 0xFFFF sentinels, so
    // every block is uniform; saturating adds + unsigned mins replay
    // the scalar clamped-uint32 order exactly (see AggregateRowFn).
    const __m128i vp1 = _mm_set1_epi16(short(p1));
    const __m128i vpm = _mm_set1_epi16(short(prev_min));
    const __m128i vcap =
        _mm_adds_epu16(vpm, _mm_set1_epi16(short(p2)));
    __m128i vmin = _mm_set1_epi16(short(0xFFFF));
    int d = 0;
    for (; d + 8 <= nd; d += 8) {
        const __m128i pv = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + d));
        const __m128i pl = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + d - 1));
        const __m128i pr = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(prev + d + 1));
        __m128i best = _mm_min_epu16(pv, _mm_adds_epu16(pl, vp1));
        best = _mm_min_epu16(best, _mm_adds_epu16(pr, vp1));
        best = _mm_min_epu16(best, vcap);
        // Every candidate >= prev_min, so the subtract cannot wrap.
        best = _mm_sub_epi16(best, vpm);
        const __m128i c = _mm_adds_epu16(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(cost + d)),
            best);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(cur + d), c);
        vmin = _mm_min_epu16(vmin, c);
        __m128i t0 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(total + d));
        __m128i t1 = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(total + d + 4));
        t0 = _mm_add_epi32(t0, _mm_cvtepu16_epi32(c));
        t1 = _mm_add_epi32(t1,
                           _mm_cvtepu16_epi32(_mm_srli_si128(c, 8)));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(total + d), t0);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(total + d + 4),
                         t1);
    }
    const uint16_t vec_min = static_cast<uint16_t>(
        _mm_extract_epi16(_mm_minpos_epu16(vmin), 0));
    const uint16_t tail_min = aggregateRowRef(
        cost, prev, prev_min, nd, p1, p2, d, nd, cur, total);
    return std::min(vec_min, tail_min);
}

void
costRowSse42(const uint64_t *cl, const uint64_t *cr, int w, int dlo,
             int ndw, uint16_t *out)
{
    // Left-border pixels whose candidate window clamps to column 0
    // take the shared reference loop; interior pixels run an
    // unrolled hardware-POPCNT sweep over descending right-census
    // addresses (candidate j reads cr[x - dlo - j]).
    const int x_interior = std::min(dlo + ndw - 1, w);
    costRowRef(cl, cr, dlo, ndw, 0, std::max(x_interior, 0), out);
    for (int x = std::max(x_interior, 0); x < w; ++x) {
        const uint64_t c = cl[x];
        const uint64_t *r = cr + x - dlo;
        uint16_t *o = out + size_t(x) * size_t(ndw);
        int j = 0;
        for (; j + 4 <= ndw; j += 4) {
            o[j] = static_cast<uint16_t>(_mm_popcnt_u64(c ^ r[-j]));
            o[j + 1] = static_cast<uint16_t>(
                _mm_popcnt_u64(c ^ r[-j - 1]));
            o[j + 2] = static_cast<uint16_t>(
                _mm_popcnt_u64(c ^ r[-j - 2]));
            o[j + 3] = static_cast<uint16_t>(
                _mm_popcnt_u64(c ^ r[-j - 3]));
        }
        for (; j < ndw; ++j)
            o[j] = static_cast<uint16_t>(_mm_popcnt_u64(c ^ r[-j]));
    }
}

void
gemmRowSse42(const float *a, int k, const float *b, int64_t ldb,
             float *out, int n)
{
    int j = 0;
    // 8 outputs per iteration, broadcast a[i] across both 4-lane
    // accumulators. This TU has no FMA, so each step is a separate
    // MULPS + ADDPS rounding — the one tolerance-tested gemmRow lane
    // (Kernels::fusedF32 == false; see docs/KERNELS.md).
    for (; j + 8 <= n; j += 8) {
        __m128 acc0 = _mm_setzero_ps();
        __m128 acc1 = _mm_setzero_ps();
        const float *bj = b + j;
        for (int i = 0; i < k; ++i) {
            const __m128 av = _mm_set1_ps(a[i]);
            const float *bi = bj + int64_t(i) * ldb;
            acc0 = _mm_add_ps(acc0,
                              _mm_mul_ps(av, _mm_loadu_ps(bi)));
            acc1 = _mm_add_ps(acc1,
                              _mm_mul_ps(av, _mm_loadu_ps(bi + 4)));
        }
        _mm_storeu_ps(out + j, acc0);
        _mm_storeu_ps(out + j + 4, acc1);
    }
    for (; j + 4 <= n; j += 4) {
        __m128 acc = _mm_setzero_ps();
        const float *bj = b + j;
        for (int i = 0; i < k; ++i)
            acc = _mm_add_ps(
                acc, _mm_mul_ps(_mm_set1_ps(a[i]),
                                _mm_loadu_ps(bj + int64_t(i) * ldb)));
        _mm_storeu_ps(out + j, acc);
    }
    // Unfused scalar tail (not gemmRowRef, whose std::fmaf would put
    // the tail outputs under a *different* rounding than the vector
    // body): the whole sse42 row stays under one mul-then-add
    // behavior, so the tolerance contract is uniform across j.
    for (; j < n; ++j) {
        float acc = 0.0f;
        for (int i = 0; i < k; ++i)
            acc += a[i] * b[int64_t(i) * ldb + j];
        out[j] = acc;
    }
}

void
biasReluRowSse42(float *out, int n, float bias, bool relu)
{
    const __m128 vb = _mm_set1_ps(bias);
    const __m128 zero = _mm_setzero_ps();
    int j = 0;
    if (relu) {
        // MAXPS(v, 0) returns the second operand on NaN and +0 for
        // -0 — exactly the reference `v > 0 ? v : +0`.
        for (; j + 4 <= n; j += 4) {
            const __m128 v =
                _mm_add_ps(_mm_loadu_ps(out + j), vb);
            _mm_storeu_ps(out + j, _mm_max_ps(v, zero));
        }
    } else {
        for (; j + 4 <= n; j += 4)
            _mm_storeu_ps(out + j,
                          _mm_add_ps(_mm_loadu_ps(out + j), vb));
    }
    biasReluRowRef(out, j, n, bias, relu);
}

/** Narrow two 2-lane double accumulators to 4 floats at @p out. */
inline void
storeNarrowed(float *out, __m128d lo, __m128d hi)
{
    _mm_storeu_ps(out,
                  _mm_movelh_ps(_mm_cvtpd_ps(lo), _mm_cvtpd_ps(hi)));
}

void
sepRowF32Sse42(const float *const *rows, const float *k, int ntaps,
               int n, float *out)
{
    int x = 0;
    // 8 outputs per iteration: each tap's two 4-lane f32 products are
    // widened into four 2-lane double accumulators held in registers
    // across the tap loop (mul then add, never fused).
    for (; x + 8 <= n; x += 8) {
        __m128d acc0 = _mm_setzero_pd();
        __m128d acc1 = _mm_setzero_pd();
        __m128d acc2 = _mm_setzero_pd();
        __m128d acc3 = _mm_setzero_pd();
        for (int t = 0; t < ntaps; ++t) {
            const __m128 kv = _mm_set1_ps(k[t]);
            const float *r = rows[t] + x;
            const __m128 p0 = _mm_mul_ps(kv, _mm_loadu_ps(r));
            const __m128 p1 = _mm_mul_ps(kv, _mm_loadu_ps(r + 4));
            acc0 = _mm_add_pd(acc0, _mm_cvtps_pd(p0));
            acc1 = _mm_add_pd(acc1, _mm_cvtps_pd(_mm_movehl_ps(p0, p0)));
            acc2 = _mm_add_pd(acc2, _mm_cvtps_pd(p1));
            acc3 = _mm_add_pd(acc3, _mm_cvtps_pd(_mm_movehl_ps(p1, p1)));
        }
        storeNarrowed(out + x, acc0, acc1);
        storeNarrowed(out + x + 4, acc2, acc3);
    }
    sepRowRef(rows, k, ntaps, x, n, out);
}

void
sepRowF64Sse42(const float *const *rows, const double *k, int ntaps,
               int n, float *out)
{
    int x = 0;
    // 8 outputs per iteration in four 2-lane double accumulators:
    // widen, then one f64 multiply and one f64 add per tap.
    for (; x + 8 <= n; x += 8) {
        __m128d acc0 = _mm_setzero_pd();
        __m128d acc1 = _mm_setzero_pd();
        __m128d acc2 = _mm_setzero_pd();
        __m128d acc3 = _mm_setzero_pd();
        for (int t = 0; t < ntaps; ++t) {
            const __m128d kv = _mm_set1_pd(k[t]);
            const float *r = rows[t] + x;
            const __m128 v0 = _mm_loadu_ps(r);
            const __m128 v1 = _mm_loadu_ps(r + 4);
            acc0 = _mm_add_pd(acc0, _mm_mul_pd(kv, _mm_cvtps_pd(v0)));
            acc1 = _mm_add_pd(
                acc1, _mm_mul_pd(kv, _mm_cvtps_pd(_mm_movehl_ps(v0, v0))));
            acc2 = _mm_add_pd(acc2, _mm_mul_pd(kv, _mm_cvtps_pd(v1)));
            acc3 = _mm_add_pd(
                acc3, _mm_mul_pd(kv, _mm_cvtps_pd(_mm_movehl_ps(v1, v1))));
        }
        storeNarrowed(out + x, acc0, acc1);
        storeNarrowed(out + x + 4, acc2, acc3);
    }
    sepRowRef(rows, k, ntaps, x, n, out);
}

constexpr Kernels kSse42Kernels = {
    "sse42",           Level::Sse42,      censusRowSse42,
    sadBlockSse42,     aggregateRowSse42, costRowSse42,
    gemmRowSse42,      biasReluRowSse42,  sepRowF32Sse42,
    sepRowF64Sse42,    /*fusedF32=*/false,
};

} // namespace

const Kernels *
sse42Kernels()
{
    return &kSse42Kernels;
}

} // namespace asv::simd::detail

#else // !x86 or no -msse4.2

namespace asv::simd::detail
{

const Kernels *
sse42Kernels()
{
    return nullptr;
}

} // namespace asv::simd::detail

#endif
