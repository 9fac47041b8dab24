/**
 * @file
 * Property tests for the f32 DNN-path SIMD kernels (gemmTile /
 * biasReluRow) and everything routed through them: the convNd GEMM
 * route, the fused transformedDeconv epilogue, and the
 * dnn::NetworkRuntime end-to-end path.
 *
 * The contract under test is docs/KERNELS.md's f32 contract:
 *  - every table's gemmTile (scalar 4x8, AVX2+FMA 4x24, NEON 4x8)
 *    replays the std::fmaf accumulation chain bit-exactly for finite
 *    inputs, for every tile shape up to its MR x NR, packed and
 *    in-place B operands, empty and long reductions, and denormals —
 *    no level is compared with a tolerance;
 *  - the conv route (packed im2col, edge tiles of filters and edge
 *    strips of positions, contiguous and placed stores) gives the
 *    same bits at every level and worker count;
 *  - NaN *positions* propagate identically everywhere (payload bits
 *    may differ between software fmaf and hardware FMA);
 *  - biasReluRow is bit-identical on every level, and its ReLU sends
 *    NaN, -0 and -inf to +0 (`v > 0 ? v : +0`);
 *  - NetworkRuntime::forward is allocation-free in the steady state
 *    and equivalent to the zero-insertion double-accumulation
 *    reference (referenceForward, pinned) within an explicit
 *    tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "debug/alloc_tracker.hh"
#include "deconv/transform.hh"
#include "dnn/network.hh"
#include "dnn/runtime.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"
#include "tensor/tensor.hh"
#include "tensor_index.hh"

namespace
{

using namespace asv;
using tensor::Shape;
using tensor::Tensor;

/** Force a SIMD level for one scope; restores the previous level. */
class LevelGuard
{
  public:
    explicit LevelGuard(simd::Level level)
        : previous_(simd::activeLevel())
    {
        simd::setLevel(level);
    }
    ~LevelGuard() { simd::setLevel(previous_); }

  private:
    simd::Level previous_;
};

std::vector<float>
randomVec(size_t n, Rng &rng, double lo = -1.0, double hi = 1.0)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.uniformReal(lo, hi));
    return v;
}

Tensor
randomTensor(const Shape &shape, Rng &rng, double lo = -1.0,
             double hi = 1.0)
{
    Tensor t(shape);
    for (int64_t i = 0; i < t.size(); ++i)
        t.data()[i] = static_cast<float>(rng.uniformReal(lo, hi));
    return t;
}

void
expectBitEqual(const float *a, const float *b, size_t n,
               const std::string &what)
{
    for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(std::bit_cast<uint32_t>(a[i]),
                  std::bit_cast<uint32_t>(b[i]))
            << what << ": element " << i << ": " << a[i]
            << " != " << b[i];
    }
}

// --------------------------------------------------------------- gemmTile

/**
 * The f32 contract spelled out: out[r * ldo + j] is the std::fmaf
 * chain over i ascending from +0 of
 * a[r * lda + i] * b[rows[i] * ldb + j].
 */
void
fmafTile(const float *a, int64_t lda, const float *b, int64_t ldb,
         const uint32_t *rows, int k, int m, int n, float *out,
         int64_t ldo)
{
    for (int r = 0; r < m; ++r) {
        for (int j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (int i = 0; i < k; ++i)
                acc = std::fmaf(a[r * lda + i],
                                b[int64_t(rows[i]) * ldb + j], acc);
            out[r * ldo + j] = acc;
        }
    }
}

/** The identity row table 0, 1, ..., k - 1. */
std::vector<uint32_t>
identityRows(int k)
{
    std::vector<uint32_t> rows(size_t(std::max(k, 0)));
    for (size_t i = 0; i < rows.size(); ++i)
        rows[i] = uint32_t(i);
    return rows;
}

TEST(GemmTile, MatchesScalarAcrossShapes)
{
    // Every tile shape up to the table's MR x NR, reductions of 0, 1,
    // odd and long lengths, B read as a packed strip (ldb = n, the
    // last strip, or NR) and in place from a wider row (the direct
    // route), into a pre-poisoned out: gemmTile writes the m x n
    // block, never accumulates, and touches nothing else.
    Rng rng(7);
    const float poison = 1e30f;
    for (simd::Level level : simd::supportedLevels()) {
        const simd::Kernels *t = simd::kernelsFor(level);
        ASSERT_LE(t->gemmMr, simd::kMaxGemmMr) << t->name;
        ASSERT_LE(t->gemmNr, simd::kMaxGemmNr) << t->name;
        const int64_t ldo = t->gemmNr + 5;
        for (int k : {0, 1, 7, 256}) {
            const std::vector<uint32_t> rows = identityRows(k);
            const int64_t lda = k + 3;
            const std::vector<float> a =
                randomVec(size_t(t->gemmMr * lda), rng);
            for (int m = 1; m <= t->gemmMr; ++m) {
                for (int n = 1; n <= t->gemmNr; ++n) {
                    for (int64_t ldb : {int64_t(n), int64_t(t->gemmNr),
                                        int64_t(n + 37)}) {
                        const std::vector<float> b = randomVec(
                            size_t(std::max(k, 1) * ldb), rng);
                        std::vector<float> want(
                            size_t(t->gemmMr * ldo), poison);
                        fmafTile(a.data(), lda, b.data(), ldb,
                                 rows.data(), k, m, n, want.data(), ldo);
                        std::vector<float> got(want.size(), poison);
                        t->gemmTile(a.data(), lda, b.data(), ldb,
                                    rows.data(), k, m, n, got.data(),
                                    ldo);
                        expectBitEqual(
                            got.data(), want.data(), got.size(),
                            std::string(t->name) +
                                " k=" + std::to_string(k) +
                                " m=" + std::to_string(m) +
                                " n=" + std::to_string(n) +
                                " ldb=" + std::to_string(ldb));
                    }
                }
            }
        }
    }
}

TEST(GemmTile, NaNPositionsPropagate)
{
    Rng rng(11);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const int k = 9;
    const std::vector<uint32_t> rows = identityRows(k);
    for (simd::Level level : simd::supportedLevels()) {
        const simd::Kernels *t = simd::kernelsFor(level);
        // The full tile and an edge tile one row and one column short.
        for (int edge : {0, 1}) {
            const int m = t->gemmMr - edge;
            const int n = t->gemmNr - edge;
            const int64_t ldb = t->gemmNr;
            // NaN in one B column: only that column is NaN.
            std::vector<float> a = randomVec(size_t(m * k), rng);
            std::vector<float> b = randomVec(size_t(k * ldb), rng);
            b[size_t(3 * ldb + n - 1)] = nan;
            std::vector<float> out(size_t(m * n));
            t->gemmTile(a.data(), k, b.data(), ldb, rows.data(), k, m, n,
                        out.data(), n);
            for (int r = 0; r < m; ++r)
                for (int j = 0; j < n; ++j)
                    EXPECT_EQ(j == n - 1, std::isnan(out[r * n + j]))
                        << t->name << " edge=" << edge << " (" << r
                        << ", " << j << ")";
            // NaN in one A row: only that row is NaN.
            b[size_t(3 * ldb + n - 1)] = 0.5f;
            a[size_t((m - 1) * k + 2)] = nan;
            t->gemmTile(a.data(), k, b.data(), ldb, rows.data(), k, m, n,
                        out.data(), n);
            for (int r = 0; r < m; ++r)
                for (int j = 0; j < n; ++j)
                    EXPECT_EQ(r == m - 1, std::isnan(out[r * n + j]))
                        << t->name << " edge=" << edge << " (" << r
                        << ", " << j << ")";
        }
    }
}

TEST(GemmTile, DenormalsStayExactOnEveryLevel)
{
    Rng rng(13);
    const int k = 8;
    const std::vector<uint32_t> rows = identityRows(k);
    // Products around 1e-39..1e-41: results live in the denormal
    // range. No FTZ/DAZ anywhere (no -ffast-math), so every level
    // must still match the fmaf chain bit-for-bit.
    for (simd::Level level : simd::supportedLevels()) {
        const simd::Kernels *t = simd::kernelsFor(level);
        const int m = t->gemmMr;
        const int n = t->gemmNr - 1;
        std::vector<float> a =
            randomVec(size_t(m * k), rng, 1e-20, 2e-20);
        std::vector<float> b =
            randomVec(size_t(k * n), rng, -2e-20, 2e-20);
        std::vector<float> want(size_t(m * n));
        fmafTile(a.data(), k, b.data(), n, rows.data(), k, m, n,
                 want.data(), n);
        bool any_denormal = false;
        for (float w : want)
            any_denormal = any_denormal ||
                           (w != 0.0f && std::abs(w) <
                                             std::numeric_limits<
                                                 float>::min());
        EXPECT_TRUE(any_denormal) << "test inputs failed to produce "
                                     "denormal outputs";
        std::vector<float> got(want.size());
        t->gemmTile(a.data(), k, b.data(), n, rows.data(), k, m, n,
                    got.data(), n);
        expectBitEqual(got.data(), want.data(), got.size(),
                       std::string(t->name) + " denormal");
    }
}

TEST(GemmTile, RowTableMatchesScalarChain)
{
    // The row table picks which operand row each reduction step
    // reads: identity, reversed, repeated and arbitrary tables over a
    // taller operand, every tile shape up to MR x NR (edge tiles
    // m < MR, n < NR included), into a pre-poisoned out. Every level
    // must give the std::fmaf chain's bits.
    Rng rng(19);
    const float poison = 1e30f;
    for (simd::Level level : simd::supportedLevels()) {
        const simd::Kernels *t = simd::kernelsFor(level);
        const int64_t ldo = t->gemmNr + 3;
        for (int k : {1, 6, 37, 144}) {
            const int operand_rows = 3 * k + 2;
            std::vector<std::vector<uint32_t>> tables;
            tables.push_back(identityRows(k));
            tables.emplace_back(tables[0].rbegin(), tables[0].rend());
            tables.emplace_back(size_t(k), uint32_t(operand_rows - 1));
            std::vector<uint32_t> arbitrary(static_cast<size_t>(k));
            for (uint32_t &r : arbitrary)
                r = uint32_t(rng.uniformInt(0, operand_rows - 1));
            tables.push_back(arbitrary);
            const std::vector<float> a =
                randomVec(size_t(t->gemmMr * k), rng);
            for (size_t ti = 0; ti < tables.size(); ++ti) {
                const uint32_t *rows = tables[ti].data();
                for (int m = 1; m <= t->gemmMr; ++m) {
                    for (int n = 1; n <= t->gemmNr; ++n) {
                        for (int64_t ldb :
                             {int64_t(n), int64_t(t->gemmNr + 5)}) {
                            const std::vector<float> b = randomVec(
                                size_t(operand_rows * ldb), rng);
                            std::vector<float> want(
                                size_t(t->gemmMr * ldo), poison);
                            fmafTile(a.data(), k, b.data(), ldb, rows, k,
                                     m, n, want.data(), ldo);
                            std::vector<float> got(want.size(), poison);
                            t->gemmTile(a.data(), k, b.data(), ldb, rows,
                                        k, m, n, got.data(), ldo);
                            expectBitEqual(
                                got.data(), want.data(), got.size(),
                                std::string(t->name) + " table " +
                                    std::to_string(ti) +
                                    " k=" + std::to_string(k) +
                                    " m=" + std::to_string(m) +
                                    " n=" + std::to_string(n) +
                                    " ldb=" + std::to_string(ldb));
                        }
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------ biasReluRow

TEST(BiasReluRow, BitIdenticalOnEveryLevel)
{
    Rng rng(17);
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    for (int n : {1, 3, 4, 7, 8, 9, 16, 33}) {
        for (float bias : {0.0f, 0.5f, -0.25f}) {
            for (bool relu : {false, true}) {
                const std::vector<float> in =
                    randomVec(size_t(n), rng, -2.0, 2.0);
                std::vector<float> want = in;
                scalar->biasReluRow(want.data(), n, bias, relu);
                for (simd::Level level : simd::supportedLevels()) {
                    const simd::Kernels *t = simd::kernelsFor(level);
                    std::vector<float> got = in;
                    t->biasReluRow(got.data(), n, bias, relu);
                    expectBitEqual(
                        got.data(), want.data(), size_t(n),
                        std::string(t->name) +
                            " bias=" + std::to_string(bias) +
                            " relu=" + std::to_string(relu));
                }
            }
        }
    }
}

TEST(BiasReluRow, ReluSendsNaNNegZeroAndNegInfToPlusZero)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm =
        std::numeric_limits<float>::denorm_min();
    const std::vector<float> in = {nan,     -nan, -0.0f,  0.0f,
                                   -1.0f,   2.0f, denorm, -denorm,
                                   -inf,    inf,  0.25f,  -0.25f};
    for (simd::Level level : simd::supportedLevels()) {
        const simd::Kernels *t = simd::kernelsFor(level);
        std::vector<float> got = in;
        t->biasReluRow(got.data(), static_cast<int>(got.size()),
                       0.0f, /*relu=*/true);
        const std::vector<float> want = {0.0f,   0.0f, 0.0f, 0.0f,
                                         0.0f,   2.0f, denorm, 0.0f,
                                         0.0f,   inf,  0.25f,  0.0f};
        expectBitEqual(got.data(), want.data(), got.size(),
                       std::string(t->name) + " relu specials");
        // Without relu, NaN must survive (position, not payload).
        got = in;
        t->biasReluRow(got.data(), static_cast<int>(got.size()),
                       1.0f, /*relu=*/false);
        EXPECT_TRUE(std::isnan(got[0])) << t->name;
        EXPECT_TRUE(std::isnan(got[1])) << t->name;
        EXPECT_EQ(got[5], 3.0f) << t->name;
    }
}

// ----------------------------------------------------------- convNd route

TEST(ConvGemmRoute, MatchesDoubleAccumulationReference)
{
    Rng rng(23);
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);

    struct Case
    {
        Shape in, w;
        int64_t stride, pad;
    };
    // Odd spatial extents, non-lane-multiple channels, pointwise
    // (direct route), strided and padded variants.
    const std::vector<Case> cases = {
        {{3, 17, 13}, {5, 3, 3, 3}, 1, 1},
        {{1, 9, 7}, {1, 1, 3, 2}, 2, 0},
        {{4, 12, 10}, {2, 4, 1, 1}, 1, 0}, // 1x1 s1 p0: direct
        {{7, 5, 5}, {3, 7, 5, 5}, 1, 2},
        {{2, 21}, {3, 2, 4}, 3, 1},        // 1-D
    };
    for (const auto &[in_shape, w_shape, stride, pad] : cases) {
        const int nd = static_cast<int>(in_shape.size()) - 1;
        const Tensor in = randomTensor(in_shape, rng);
        const Tensor w = randomTensor(w_shape, rng);
        const auto spec = tensor::ConvSpec::uniform(nd, stride, pad);
        const Tensor fast = tensor::convNd(in, w, spec, ctx);
        const Tensor ref = tensor::referenceConv(in, w, spec, ctx);
        ASSERT_EQ(fast.shape(), ref.shape());
        EXPECT_TRUE(fast.allClose(ref, 1e-4))
            << "max diff " << fast.maxAbsDiff(ref);
    }
}

TEST(ConvGemmRoute, EpilogueMatchesManualBiasRelu)
{
    Rng rng(29);
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    const Tensor in = randomTensor({3, 11, 9}, rng);
    const Tensor w = randomTensor({4, 3, 3, 3}, rng);
    const auto spec = tensor::ConvSpec::uniform(2, 1, 1);
    const std::vector<float> bias = randomVec(4, rng);

    tensor::ConvEpilogue epi;
    epi.bias = bias.data();
    epi.relu = true;
    Tensor fused(tensor::convOutShape(in.shape(), w.shape(), spec));
    tensor::convNdInto(in, w, spec, &epi, ctx, fused);

    Tensor manual = tensor::convNd(in, w, spec, ctx);
    const int64_t P = manual.size() / manual.dim(0);
    for (int64_t f = 0; f < manual.dim(0); ++f) {
        for (int64_t j = 0; j < P; ++j) {
            float &v = manual.data()[f * P + j];
            v += bias[size_t(f)];
            v = v > 0.0f ? v : 0.0f;
        }
    }
    // Same route + exact epilogue ops: bitwise.
    expectBitEqual(fused.data(), manual.data(), size_t(fused.size()),
                   "fused epilogue");
}

TEST(ConvGemmRoute, CrossLevelAndThreadIdentity)
{
    Rng rng(31);
    const Tensor in = randomTensor({5, 14, 11}, rng);
    const Tensor w = randomTensor({6, 5, 3, 3}, rng);
    const auto spec = tensor::ConvSpec::uniform(2, 1, 1);

    Tensor want;
    {
        LevelGuard g(simd::Level::Scalar);
        ThreadPool serial(1);
        BufferPool buffers;
        want = tensor::convNd(in, w, spec, ExecContext(serial, buffers));
    }
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard g(level);
        for (int threads : {1, 3}) {
            ThreadPool pool(threads);
            BufferPool buffers;
            const Tensor got =
                tensor::convNd(in, w, spec, ExecContext(pool, buffers));
            expectBitEqual(got.data(), want.data(), size_t(got.size()),
                           std::string(simd::levelName(level)) +
                               " threads=" + std::to_string(threads));
        }
    }
}

/** @p in cropped by @p lo leading and @p hi trailing elements per
 *  spatial dim. */
Tensor
cropSpatial(const Tensor &in, const Shape &lo, const Shape &hi)
{
    Shape shape = in.shape();
    for (size_t d = 0; d < lo.size(); ++d)
        shape[1 + d] -= lo[d] + hi[d];
    Tensor out(shape);
    Shape src(shape.size());
    testref::forEachIndex(shape, [&](std::span<const int64_t> idx) {
        src[0] = idx[0];
        for (size_t d = 0; d < lo.size(); ++d)
            src[1 + d] = idx[1 + d] + lo[d];
        out.at(idx) = in.at(src);
    });
    return out;
}

TEST(ConvGemmRoute, NegativePadIsACrop)
{
    // A negative pad crops: it must give the same bits as convolving
    // the explicitly cropped input, on the GEMM route at every level
    // and on referenceConv. The 1x1 case runs the direct route
    // on its cropped copy and im2col on the negative pads.
    Rng rng(61);
    struct Case
    {
        Shape in, w, padLo, padHi;
        int64_t stride;
    };
    const std::vector<Case> cases = {
        {{4, 9, 8}, {3, 4, 1, 1}, {-1, -2}, {-2, 0}, 1},
        {{3, 10, 9}, {2, 3, 3, 3}, {-1, 1}, {1, -2}, 1},
        {{3, 11, 10}, {2, 3, 3, 3}, {-2, -1}, {-1, -3}, 2},
        {{2, 6, 7, 5}, {3, 2, 2, 3, 2}, {-1, 0, -1}, {-1, 1, 0}, 1},
    };
    for (const Case &c : cases) {
        const int nd = static_cast<int>(c.in.size()) - 1;
        const Tensor in = randomTensor(c.in, rng);
        const Tensor w = randomTensor(c.w, rng);
        tensor::ConvSpec neg;
        neg.stride.assign(nd, c.stride);
        neg.padLo = c.padLo;
        neg.padHi = c.padHi;
        tensor::ConvSpec pos = neg;
        Shape lo(nd), hi(nd);
        for (int d = 0; d < nd; ++d) {
            lo[d] = std::max<int64_t>(0, -c.padLo[d]);
            hi[d] = std::max<int64_t>(0, -c.padHi[d]);
            pos.padLo[d] = std::max<int64_t>(0, c.padLo[d]);
            pos.padHi[d] = std::max<int64_t>(0, c.padHi[d]);
        }
        const Tensor cropped = cropSpatial(in, lo, hi);
        const std::string what = tensor::toString(c.in) + " * " +
                                 tensor::toString(c.w);
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard g(level);
            for (int threads : {1, 3}) {
                ThreadPool pool(threads);
                BufferPool buffers;
                const ExecContext ctx(pool, buffers);
                const Tensor want = tensor::convNd(cropped, w, pos, ctx);
                const Tensor got = tensor::convNd(in, w, neg, ctx);
                ASSERT_EQ(got.shape(), want.shape()) << what;
                expectBitEqual(got.data(), want.data(),
                               size_t(got.size()),
                               what + " " + simd::levelName(level) +
                                   " threads=" +
                                   std::to_string(threads));
            }
        }
        const Tensor ref_neg =
            tensor::referenceConv(in, w, neg, ExecContext::global());
        const Tensor ref_pos = tensor::referenceConv(
            cropped, w, pos, ExecContext::global());
        ASSERT_EQ(ref_neg.shape(), ref_pos.shape()) << what;
        expectBitEqual(ref_neg.data(), ref_pos.data(),
                       size_t(ref_neg.size()), what + " reference");
    }
}

/**
 * The GEMM route's per-output contract, evaluated directly: for
 * filter f at an output position, the std::fmaf chain from +0 over
 * channels ascending, then kernel taps in raster order, with a +0
 * operand where a tap lands in the padding (a padded tap is a real
 * fma(w, 0, acc) step), then the epilogue's add and ReLU.
 */
Tensor
fmafConv(const Tensor &in, const Tensor &w, const tensor::ConvSpec &spec,
         const tensor::ConvEpilogue &epi)
{
    Tensor out(tensor::convOutShape(in.shape(), w.shape(), spec));
    const int nd = in.rank() - 1;
    const Shape kspatial(w.shape().begin() + 2, w.shape().end());
    Shape in_idx(size_t(nd + 1));
    Shape w_idx(size_t(nd + 2));
    // The input under a tap, or +0 where it lands in the padding.
    const auto inputOrZero = [&] {
        for (int d = 0; d < nd; ++d)
            if (in_idx[1 + d] < 0 || in_idx[1 + d] >= in.dim(1 + d))
                return 0.0f;
        return in.at(in_idx);
    };
    testref::forEachIndex(out.shape(), [&](std::span<const int64_t> o) {
        float acc = 0.0f;
        w_idx[0] = o[0];
        for (int64_t c = 0; c < in.dim(0); ++c) {
            in_idx[0] = c;
            w_idx[1] = c;
            testref::forEachIndex(
                kspatial, [&](std::span<const int64_t> tap) {
                    for (int d = 0; d < nd; ++d) {
                        in_idx[1 + d] = o[1 + d] * spec.stride[d] -
                                        spec.padLo[d] + tap[d];
                        w_idx[2 + d] = tap[d];
                    }
                    acc = std::fmaf(w.at(w_idx), inputOrZero(), acc);
                });
        }
        acc += epi.bias ? epi.bias[o[0]] : 0.0f;
        out.at(o) = epi.relu ? (acc > 0.0f ? acc : 0.0f) : acc;
    });
    return out;
}

TEST(ConvGemmRoute, EdgeTilesMatchFmafChainContiguousAndPlaced)
{
    // K % 4 != 0 (an edge tile of filters) and P % 24 != 0, P % 8 != 0
    // (an edge strip) on the im2col route with padded, cropped and
    // strided windows, on the direct route, in 1-D, 2-D and 3-D;
    // stored contiguously and through a placement into a
    // pre-poisoned ofmap, at every level and worker count. Every
    // stored position must carry the fmaf chain's bits, and every
    // other position must keep its poison.
    Rng rng(67);
    struct Case
    {
        Shape in, w, padLo, padHi;
        int64_t stride;
    };
    const std::vector<Case> cases = {
        {{3, 13, 11}, {5, 3, 3, 3}, {1, 1}, {1, 1}, 1},
        {{4, 9, 10}, {7, 4, 2, 2}, {0, -1}, {1, 0}, 2},
        {{6, 7, 5}, {3, 6, 1, 1}, {0, 0}, {0, 0}, 1}, // direct
        {{2, 29}, {6, 2, 3}, {1}, {2}, 1},
        {{2, 5, 6, 7}, {9, 2, 2, 2, 3}, {1, 0, -1}, {0, 1, 1}, 1},
    };
    const float poison = -12345.5f;
    for (size_t ci = 0; ci < cases.size(); ++ci) {
        const Case &c = cases[ci];
        const int nd = static_cast<int>(c.in.size()) - 1;
        const Tensor in = randomTensor(c.in, rng);
        const Tensor w = randomTensor(c.w, rng);
        const std::vector<float> bias = randomVec(size_t(c.w[0]), rng);
        tensor::ConvSpec spec;
        spec.stride.assign(nd, c.stride);
        spec.padLo = c.padLo;
        spec.padHi = c.padHi;
        tensor::ConvEpilogue epi;
        epi.bias = bias.data();
        epi.relu = ci % 2 == 1;
        const Tensor want = fmafConv(in, w, spec, epi);

        // Interleave at step 2 from offset 1, one spare slot per dim.
        tensor::OutputPlacement place;
        Shape placed_shape{want.dim(0)};
        for (int d = 0; d < nd; ++d) {
            place.step.push_back(2);
            place.offset.push_back(1);
            placed_shape.push_back(2 * want.dim(1 + d) + 1);
        }
        const std::string what = tensor::toString(c.in) + " * " +
                                 tensor::toString(c.w);
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard g(level);
            for (int workers : {1, 2, 4}) {
                ThreadPool pool(workers);
                BufferPool buffers;
                const ExecContext ctx(pool, buffers);
                const std::string where =
                    what + " " + simd::levelName(level) + " workers=" +
                    std::to_string(workers);

                Tensor got = Tensor::full(want.shape(), poison);
                tensor::convNdInto(in, w, spec, &epi, ctx, got);
                expectBitEqual(got.data(), want.data(),
                               size_t(got.size()), where);

                Tensor placed = Tensor::full(placed_shape, poison);
                tensor::convNdInto(in, w, spec, &epi, ctx, placed,
                                   place);
                Shape src(size_t(nd + 1));
                testref::forEachIndex(
                    placed_shape, [&](std::span<const int64_t> idx) {
                        bool stored = true;
                        src[0] = idx[0];
                        for (int d = 0; d < nd; ++d) {
                            stored = stored && idx[1 + d] % 2 == 1 &&
                                     idx[1 + d] < placed_shape[1 + d] - 1;
                            src[1 + d] = idx[1 + d] / 2;
                        }
                        const float v = placed.at(idx);
                        const float expect =
                            stored ? want.at(src) : poison;
                        EXPECT_EQ(std::bit_cast<uint32_t>(v),
                                  std::bit_cast<uint32_t>(expect))
                            << where << " placed at "
                            << tensor::toString(Shape(idx.begin(),
                                                      idx.end()));
                    });
            }
        }
    }
}

// ------------------------------------------------------- transformedDeconv

TEST(TransformedDeconvF32, FusedEpilogueMatchesSeparatePass)
{
    // k1 s2 p0 and k2 s3 p0 have tap-free phases: output positions
    // no sub-kernel tap reaches, which must still read relu(bias).
    Rng rng(37);
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    const Tensor in = randomTensor({3, 9, 7}, rng);
    const std::vector<float> bias = randomVec(4, rng);
    struct Case
    {
        int64_t k, s, p;
    };
    for (const Case c : {Case{4, 2, 1}, Case{1, 2, 0}, Case{2, 3, 0}}) {
        const Tensor w = randomTensor({4, 3, c.k, c.k}, rng);
        const auto spec = tensor::DeconvSpec::uniform(2, c.s, c.p);
        const Tensor plain = deconv::transformedDeconv(in, w, spec, ctx);
        for (bool relu : {false, true}) {
            tensor::ConvEpilogue epi;
            epi.bias = bias.data();
            epi.relu = relu;
            const Tensor fused =
                deconv::transformedDeconv(in, w, spec, ctx, &epi);

            Tensor manual = plain;
            const int64_t P = manual.size() / manual.dim(0);
            for (int64_t f = 0; f < manual.dim(0); ++f) {
                for (int64_t j = 0; j < P; ++j) {
                    float &v = manual.data()[f * P + j];
                    v += bias[size_t(f)];
                    if (relu)
                        v = v > 0.0f ? v : 0.0f;
                }
            }
            // Disjoint-phase fusion is exact: bitwise.
            expectBitEqual(fused.data(), manual.data(),
                           size_t(fused.size()),
                           "fused deconv epilogue k" +
                               std::to_string(c.k) + " s" +
                               std::to_string(c.s) + " p" +
                               std::to_string(c.p) +
                               (relu ? " relu" : ""));
        }
    }
}

// --------------------------------------------------------- NetworkRuntime

dnn::Network
makeTestNet()
{
    dnn::NetworkBuilder nb("e2e", 6, {11, 13});
    nb.conv("c1", 8, 3, 1, 1, dnn::Stage::FeatureExtraction);
    nb.activation("r1");
    nb.deconv("d1", 4, 4, 2, 1, dnn::Stage::DisparityRefinement);
    nb.activation("r2");
    nb.conv("c2", 3, 3, 1, 1, dnn::Stage::DisparityRefinement);
    nb.pool("p1", 2, 2);
    return nb.build();
}

/**
 * A deconv-only stack: @p k x @p k kernel, stride @p s, pad @p p on
 * a non-square input, ReLU fused.
 */
dnn::Network
makeDeconvNet(int64_t k, int64_t s, int64_t p)
{
    dnn::NetworkBuilder nb("deconv", 3, {7, 9});
    nb.deconv("d", 4, k, s, p, dnn::Stage::DisparityRefinement);
    nb.activation("r");
    return nb.build();
}

/**
 * Conv followed by the three deconvolution shapes the transformed
 * executor distinguishes: k4 s2 p1 (every phase has taps and
 * non-negative pads), k3 s2 p2 (a phase whose ifmap shift is a
 * negative pad on both sides) and k2 s3 p0 (a tap-free phase).
 */
dnn::Network
makePinNet()
{
    dnn::NetworkBuilder nb("pin", 3, {5, 6});
    nb.conv("c1", 4, 3, 1, 1, dnn::Stage::FeatureExtraction);
    nb.activation("r1");
    nb.deconv("d1", 4, 4, 2, 1, dnn::Stage::DisparityRefinement);
    nb.activation("r2");
    nb.deconv("d2", 3, 3, 2, 2, dnn::Stage::DisparityRefinement);
    nb.deconv("d3", 2, 2, 3, 0, dnn::Stage::DisparityRefinement);
    nb.activation("r3");
    return nb.build();
}

/** FNV-1a (64-bit) over the bit patterns of @p t, folded into
 *  @p h (default: the offset basis). */
uint64_t
fnv1a(const Tensor &t, uint64_t h = 0xcbf29ce484222325ull)
{
    for (int64_t i = 0; i < t.size(); ++i) {
        const uint32_t bits = std::bit_cast<uint32_t>(t.data()[i]);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}


TEST(NetworkRuntime, ForwardMatchesZeroInsertionReference)
{
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    dnn::NetworkRuntime rt(makeTestNet(), 42);
    EXPECT_EQ(rt.numSteps(), 4u); // two activations fused away

    Rng rng(41);
    const Tensor in = randomTensor(rt.inputShape(), rng);
    const Tensor &got = rt.forward(in, ctx);
    EXPECT_EQ(got.shape(), rt.outputShape());
    const Tensor ref = rt.referenceForward(in, ctx);
    ASSERT_EQ(got.shape(), ref.shape());
    // f32 FMA chains vs double accumulation: tolerance, not bits.
    EXPECT_TRUE(got.allClose(ref, 1e-3))
        << "max diff " << got.maxAbsDiff(ref);
}

TEST(NetworkRuntime, ReferenceForwardPinned)
{
    // referenceForward on a conv + two-deconv net (k4 s2 p1, and
    // k3 s2 p2 on the ReLU'd output): referenceConv over the
    // zero-inserted ifmaps, pinned at every level and at 1 and 3
    // workers. The reference runs no dispatched reduction, so the
    // level must not move it.
    dnn::NetworkBuilder nb("ref-pin", 3, {5, 6});
    nb.conv("c1", 4, 3, 1, 1, dnn::Stage::FeatureExtraction);
    nb.activation("r1");
    nb.deconv("d1", 4, 4, 2, 1, dnn::Stage::DisparityRefinement);
    nb.activation("r2");
    nb.deconv("d2", 2, 3, 2, 2, dnn::Stage::DisparityRefinement);
    const dnn::NetworkRuntime rt(nb.build(), 5);
    Rng rng(103);
    const Tensor in = randomTensor(rt.inputShape(), rng);
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard g(level);
        for (int workers : {1, 3}) {
            ThreadPool pool(workers);
            BufferPool buffers;
            const Tensor ref =
                rt.referenceForward(in, ExecContext(pool, buffers));
            EXPECT_EQ(ref.shape(), (Shape{2, 17, 21}));
            EXPECT_EQ(fnv1a(ref), 0xabf13e36de5ab356ull)
                << simd::levelName(level) << " workers=" << workers;
        }
    }
}

TEST(NetworkRuntime, EmptyDeconvPhaseGetsEpilogueOfZero)
{
    // k=2, s=3: one output phase per dim has no kernel taps — its
    // positions must still receive relu(0 + bias).
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    dnn::NetworkBuilder nb("empty-phase", 2, {5, 5});
    nb.deconv("d", 3, 2, 3, 0, dnn::Stage::DisparityRefinement);
    nb.activation("r");
    dnn::NetworkRuntime rt(nb.build(), 7);

    Rng rng(43);
    const Tensor in = randomTensor(rt.inputShape(), rng);
    const Tensor &got = rt.forward(in, ctx);
    const Tensor ref = rt.referenceForward(in, ctx);
    EXPECT_TRUE(got.allClose(ref, 1e-4))
        << "max diff " << got.maxAbsDiff(ref);
}

TEST(NetworkRuntime, BitIdenticalAcrossWorkerCountsAndLevels)
{
    dnn::NetworkRuntime rt(makeTestNet(), 42);
    Rng rng(47);
    const Tensor in = randomTensor(rt.inputShape(), rng);

    Tensor want;
    {
        LevelGuard g(simd::Level::Scalar);
        ThreadPool serial(1);
        BufferPool buffers;
        want = rt.forward(in, ExecContext(serial, buffers));
    }
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard g(level);
        for (int threads : {1, 4}) {
            ThreadPool pool(threads);
            BufferPool buffers;
            const Tensor &got =
                rt.forward(in, ExecContext(pool, buffers));
            expectBitEqual(got.data(), want.data(), size_t(got.size()),
                           std::string(simd::levelName(level)) +
                               " threads=" + std::to_string(threads));
        }
    }
}

TEST(NetworkRuntime, SteadyStateIsAllocationFree)
{
    // k4 s2 p1 has non-negative pads and no tap-free phase; k5 s3
    // p2 mixes sub-kernel extents, k3 s2 p2 has negative pads and
    // k2 s3 p0 a tap-free phase, so every path of the transformed
    // deconvolution (placed tile stores, the tap-free fill) is
    // checked.
    ThreadPool pool(2);
    BufferPool buffers;
    ExecContext ctx(pool, buffers);
    for (const dnn::Network &net :
         {makeTestNet(), makeDeconvNet(5, 3, 2), makeDeconvNet(3, 2, 2),
          makeDeconvNet(2, 3, 0)}) {
        dnn::NetworkRuntime rt(net, 42);
        Rng rng(53);
        const Tensor in = randomTensor(rt.inputShape(), rng);

        // Warm the BufferPool (packed im2col panel) and any lazy
        // init.
        rt.forward(in, ctx);
        rt.forward(in, ctx);

        debug::AllocScope scope;
        rt.forward(in, ctx);
        EXPECT_EQ(scope.counts().allocs, 0u)
            << "DNN steady-state frame allocated: " << net.name();
    }
}

TEST(NetworkRuntime, ForwardPinnedAtEveryLevel)
{
    // Cross-commit bit-identity pin: any change to the conv or
    // deconv executors must reproduce these bits exactly, at every
    // SIMD level and worker count (every level replays the std::fmaf
    // chain, so the value is host-independent).
    dnn::NetworkRuntime rt(makePinNet(), 42);
    EXPECT_EQ(rt.outputShape(), (Shape{2, 50, 62}));
    Rng rng(59);
    const Tensor in = randomTensor(rt.inputShape(), rng);
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard g(level);
        for (int workers : {1, 2, 4}) {
            ThreadPool pool(workers);
            BufferPool buffers;
            const Tensor &got =
                rt.forward(in, ExecContext(pool, buffers));
            EXPECT_EQ(fnv1a(got), 0xf9e3dcce0849a40full)
                << simd::levelName(level) << ", " << workers
                << " workers: got 0x" << std::hex << fnv1a(got);
        }
    }
}

TEST(TransformedDeconvF32, NdPinnedAtEveryLevel)
{
    // Cross-commit pin of the N-D executor, 1-D and 3-D (2-D is
    // pinned through NetworkRuntime above): the TransformEquivalenceNd
    // shapes (k 3/4, s 2/3, pad 1, so phases pad, crop and interleave)
    // with a fused bias epilogue, ReLU on for k4. A misplaced store
    // moves the hash even where a tolerance would not notice.
    struct Pin
    {
        int nd;
        uint64_t hash;
    };
    for (const Pin pin : {Pin{1, 0xd72b79589e6c2cedull},
                           Pin{3, 0xd1ec883249e375e8ull}}) {
        std::vector<Tensor> ins, ws;
        std::vector<std::vector<float>> biases;
        std::vector<tensor::DeconvSpec> specs;
        for (int64_t k : {3, 4}) {
            for (int64_t s : {2, 3}) {
                Rng rng(uint64_t(31 * pin.nd + 7 * k + s));
                Shape in_shape{2}, w_shape{3, 2};
                for (int d = 0; d < pin.nd; ++d) {
                    in_shape.push_back(4 + d);
                    w_shape.push_back(k);
                }
                ins.push_back(randomTensor(in_shape, rng));
                ws.push_back(randomTensor(w_shape, rng));
                biases.push_back(randomVec(3, rng));
                specs.push_back(
                    tensor::DeconvSpec::uniform(pin.nd, s, 1));
            }
        }
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard g(level);
            for (int workers : {1, 2, 4}) {
                ThreadPool pool(workers);
                BufferPool buffers;
                const ExecContext ctx(pool, buffers);
                uint64_t h = 0xcbf29ce484222325ull;
                for (size_t i = 0; i < ins.size(); ++i) {
                    tensor::ConvEpilogue epi;
                    epi.bias = biases[i].data();
                    epi.relu = ws[i].dim(2) == 4;
                    h = fnv1a(deconv::transformedDeconv(
                                  ins[i], ws[i], specs[i], ctx, &epi),
                              h);
                }
                EXPECT_EQ(h, pin.hash)
                    << pin.nd << "-D, " << simd::levelName(level)
                    << ", " << workers << " workers: got 0x" << std::hex
                    << h;
            }
        }
    }
}

TEST(TransformedDeconvF32, Pinned2dAtEveryLevel)
{
    // Cross-commit pins of the 2-D executor on non-square inputs with
    // a fused bias + ReLU epilogue, one per (k, s, p) for k 3/4/5,
    // s 2/3 and pad 0/1: phases with ragged position counts, unequal
    // tap counts, padded and cropped windows, and (K = 5) an edge
    // tile of filters. Each hash was taken before the phases shared
    // one operand, so it also pins that sharing changed no bit.
    struct Pin
    {
        int64_t k, s, p;
        uint64_t hash;
    };
    const std::vector<Pin> pins = {
        {3, 2, 0, 0x9f8ab577f75277bdull},
        {3, 2, 1, 0x192ff60d04d8ea61ull},
        {3, 3, 0, 0x6e8e8ce99b5a28deull},
        {3, 3, 1, 0xe81342e03ff6eebeull},
        {4, 2, 0, 0xd3306f56d0dbe96bull},
        {4, 2, 1, 0xd48dfee70813eff3ull},
        {4, 3, 0, 0xd6d00862c3d1a024ull},
        {4, 3, 1, 0xcf0bf28afe243c72ull},
        {5, 2, 0, 0x5fcce975f2353d0cull},
        {5, 2, 1, 0x07a44d3cbc02345eull},
        {5, 3, 0, 0x3b08acec89660947ull},
        {5, 3, 1, 0x808c230cef898c0eull},
    };
    for (const Pin &pin : pins) {
        Rng rng(uint64_t(101 * pin.k + 11 * pin.s + pin.p));
        const Tensor in = randomTensor({3, 9, 13}, rng);
        const Tensor w = randomTensor({5, 3, pin.k, pin.k}, rng);
        const std::vector<float> bias = randomVec(5, rng);
        const auto spec = tensor::DeconvSpec::uniform(2, pin.s, pin.p);
        tensor::ConvEpilogue epi;
        epi.bias = bias.data();
        epi.relu = true;
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard g(level);
            for (int workers : {1, 2, 4}) {
                ThreadPool pool(workers);
                BufferPool buffers;
                const ExecContext ctx(pool, buffers);
                const uint64_t h = fnv1a(deconv::transformedDeconv(
                    in, w, spec, ctx, &epi));
                EXPECT_EQ(h, pin.hash)
                    << "k" << pin.k << " s" << pin.s << " p" << pin.p
                    << ", " << simd::levelName(level) << ", " << workers
                    << " workers: got 0x" << std::hex << h;
            }
        }
    }
}

} // namespace
