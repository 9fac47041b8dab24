/**
 * @file
 * Portable scalar table of the SIMD kernel layer — the bit-identity
 * baseline every vector backend must reproduce exactly. The loop
 * bodies live in simd_reference.hh (shared with the vector tables'
 * sub-vector tails). Compiled with the baseline target flags only —
 * std::popcount lowers to the bit-twiddling fallback here, which is
 * precisely the gap the AVX2/NEON tables close.
 */

#include "common/simd.hh"
#include "common/simd_reference.hh"

namespace asv::simd::detail
{

namespace
{

void
censusRowScalar(const float *const *rows, int radius, int x0, int x1,
                uint64_t *out)
{
    censusRowRef(rows, radius, x0, x1, out);
}

void
sadBlockScalar(const double *const *lrows, const double *const *rrows,
               int radius, int x0, int n, int d0, int nd, double *cost)
{
    sadBlockRef(lrows, rrows, radius, x0, n, d0, nd, cost);
}

uint16_t
aggregateRowScalar(const uint16_t *cost, const uint16_t *prev,
                   uint16_t prev_min, int nd, uint16_t p1,
                   uint16_t p2, uint16_t *cur, uint32_t *total)
{
    return aggregateRowRef(cost, prev, prev_min, nd, p1, p2, 0, nd,
                           cur, total);
}

void
costRowScalar(const uint64_t *cl, const uint64_t *cr, int w, int dlo,
              int ndw, uint16_t *out)
{
    costRowRef(cl, cr, dlo, ndw, 0, w, out);
}

void
gemmTileScalar(const float *a, int64_t lda, const float *b,
               int64_t ldb, const uint32_t *rows, int k, int m, int n,
               float *out, int64_t ldo)
{
    gemmTileRef(a, lda, b, ldb, rows, k, m, 0, n, out, ldo);
}

void
biasReluRowScalar(float *out, int n, float bias, bool relu)
{
    biasReluRowRef(out, 0, n, bias, relu);
}

void
sepRowF32Scalar(const float *const *rows, const float *k, int ntaps,
                int n, float *out)
{
    sepRowRef(rows, k, ntaps, 0, n, out);
}

void
sepRowF64Scalar(const float *const *rows, const double *k, int ntaps,
                int n, float *out)
{
    sepRowRef(rows, k, ntaps, 0, n, out);
}

// The scalar tile is 4 x 8: wide enough that the fmaf steps of one
// i are independent, narrow enough for a short edge strip.
constexpr Kernels kScalarKernels = {
    "scalar",          Level::Scalar,      censusRowScalar,
    sadBlockScalar,    aggregateRowScalar, costRowScalar,
    gemmTileScalar,    4,                  8,
    biasReluRowScalar, sepRowF32Scalar,    sepRowF64Scalar,
};

} // namespace

const Kernels *
scalarKernels()
{
    return &kScalarKernels;
}

} // namespace asv::simd::detail
