/**
 * @file
 * Property tests for the runtime-dispatched SIMD kernel layer and the
 * wavefront SGM aggregation.
 *
 * The contract under test is bit-identity: every ASV_SIMD level must
 * produce output bit-identical to the scalar reference for census,
 * Hamming cost rows, SAD spans, and the full SGM / block-matching
 * pipelines (including through the Matcher registry), across odd
 * image sizes, sub-vector tails, census radii 1-3, and disparity
 * ranges that are not a multiple of any vector lane width. The
 * streaming SGM is additionally checked against the serial
 * directional reference in tests/sgm_reference.hh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "expect_invalid.hh"
#include "image/image.hh"
#include "sgm_reference.hh"
#include "stereo/block_matching.hh"
#include "stereo/matcher.hh"
#include "stereo/sgm.hh"

namespace
{

using namespace asv;
using testref::referenceSgm;

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

image::Image
randomImage(int w, int h, Rng &rng)
{
    image::Image img(w, h);
    for (int64_t i = 0; i < img.size(); ++i)
        img.data()[i] = float(rng.uniformReal(0.0, 255.0));
    return img;
}

/** Shifted copy with noise: a plausible "right" view of img. */
image::Image
shiftedImage(const image::Image &img, int shift, Rng &rng)
{
    image::Image out(img.width(), img.height());
    for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
            const int xs = std::max(0, x - shift);
            out.at(x, y) = img.at(xs, y) +
                           float(rng.uniformReal(-1.0, 1.0));
        }
    }
    return out;
}

void
expectBitIdentical(const stereo::DisparityMap &a,
                   const stereo::DisparityMap &b, const char *what)
{
    ASSERT_EQ(a.width(), b.width());
    ASSERT_EQ(a.height(), b.height());
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            // Bit-level compare (no tolerance, and robust even if a
            // NaN sentinel were ever introduced).
            const float av = a.at(x, y), bv = b.at(x, y);
            ASSERT_EQ(std::bit_cast<uint32_t>(av),
                      std::bit_cast<uint32_t>(bv))
                << what << " differs at (" << x << ", " << y
                << "): " << av << " vs " << bv;
        }
    }
}

TEST(SimdDispatch, ScalarAlwaysSupported)
{
    EXPECT_TRUE(simd::levelSupported(simd::Level::Scalar));
    EXPECT_NE(simd::kernelsFor(simd::Level::Scalar), nullptr);
    EXPECT_STREQ(simd::levelName(simd::Level::Scalar), "scalar");
}

TEST(SimdDispatch, ActiveTableIsSupported)
{
    const simd::Kernels &k = simd::kernels();
    EXPECT_TRUE(simd::levelSupported(k.level));
    EXPECT_STREQ(k.name, simd::levelName(k.level));
    EXPECT_EQ(&k, simd::kernelsFor(k.level));
}

TEST(SimdDispatch, SupportedLevelsAreOrdered)
{
    // supportedLevels() lists exactly the levels whose table exists,
    // scalar first and ascending, and bestSupported() is its last.
    const std::vector<simd::Level> &levels = simd::supportedLevels();
    ASSERT_FALSE(levels.empty());
    EXPECT_EQ(levels.front(), simd::Level::Scalar);
    for (size_t i = 1; i < levels.size(); ++i)
        EXPECT_LT(levels[i - 1], levels[i]);
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon}) {
        EXPECT_EQ(simd::levelSupported(level),
                  std::find(levels.begin(), levels.end(), level) !=
                      levels.end())
            << simd::levelName(level);
    }
    const simd::Level best = simd::bestSupported();
    EXPECT_EQ(best, levels.back());
    if (simd::levelSupported(simd::Level::Avx2)) {
        EXPECT_EQ(best, simd::Level::Avx2);
    }
}

TEST(SimdDispatch, SetLevelRoundTrips)
{
    const simd::Level before = simd::activeLevel();
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(simd::activeLevel(), level);
        EXPECT_STREQ(simd::activeName(), simd::levelName(level));
    }
    EXPECT_EQ(simd::activeLevel(), before);
}

TEST(SimdDispatch, SetLevelRejectsUnsupportedLevel)
{
    for (simd::Level level :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon}) {
        if (simd::levelSupported(level))
            continue;
        const simd::Level before = simd::activeLevel();
        testref::expectInvalid([&] { simd::setLevel(level); },
                               "is not supported");
        EXPECT_EQ(simd::activeLevel(), before);
        return;
    }
    GTEST_SKIP() << "this host supports every SIMD level";
}

// ---------------------------------------------------------- kernel level

TEST(SimdKernels, CostRowMatchesScalarOnOddWindows)
{
    // Every window width 1..70 straddles the 4/8/16-lane bodies and
    // their tails; widths below and above ndw + dlo put pixels on
    // both sides of the left-border clamp to cr[0].
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    ASSERT_NE(scalar, nullptr);
    Rng rng(11);
    auto randomCodes = [&](int n) {
        std::vector<uint64_t> v(n);
        for (uint64_t &c : v) {
            c = uint64_t(rng.uniformInt64(
                std::numeric_limits<int64_t>::min(),
                std::numeric_limits<int64_t>::max()));
        }
        return v;
    };
    for (int w : {1, 7, 33, 97}) {
        const std::vector<uint64_t> cl = randomCodes(w);
        const std::vector<uint64_t> cr = randomCodes(w);
        for (int dlo : {0, 1, 9}) {
            for (int ndw = 1; ndw <= 70; ++ndw) {
                const size_t cells = size_t(w) * size_t(ndw);
                std::vector<uint16_t> ref(cells);
                scalar->costRow(cl.data(), cr.data(), w, dlo, ndw,
                                ref.data());
                for (int x = 0; x < w; ++x) {
                    for (int j = 0; j < ndw; ++j) {
                        const int xr = std::max(x - dlo - j, 0);
                        ASSERT_EQ(ref[size_t(x) * ndw + j],
                                  std::popcount(cl[x] ^ cr[xr]))
                            << "scalar w=" << w << " dlo=" << dlo
                            << " ndw=" << ndw << " x=" << x
                            << " j=" << j;
                    }
                }
                for (simd::Level level : simd::supportedLevels()) {
                    const simd::Kernels *k = simd::kernelsFor(level);
                    ASSERT_NE(k, nullptr);
                    std::vector<uint16_t> got(cells, 0xBEEF);
                    k->costRow(cl.data(), cr.data(), w, dlo, ndw,
                               got.data());
                    ASSERT_EQ(ref, got)
                        << simd::levelName(level) << " w=" << w
                        << " dlo=" << dlo << " ndw=" << ndw;
                }
            }
        }
    }
}

/**
 * The 2r+1 rows of @p img around row @p y (y clamped), widened to
 * double and edge-replicated over @p pad columns on both sides: the
 * layout the block matcher hands sadBlock. ptrs[t][x] is column x.
 */
struct PaddedRows
{
    std::vector<std::vector<double>> store;
    std::vector<const double *> ptrs;

    PaddedRows(const image::Image &img, int y, int radius, int pad)
    {
        for (int dy = -radius; dy <= radius; ++dy) {
            const int yr = std::clamp(y + dy, 0, img.height() - 1);
            std::vector<double> row;
            for (int x = -pad; x < img.width() + pad; ++x)
                row.push_back(img.atClamped(x, yr));
            store.push_back(std::move(row));
        }
        for (const auto &row : store)
            ptrs.push_back(row.data() + pad);
    }
};

TEST(SimdKernels, SadBlockMatchesScalarOnOddBlocks)
{
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    ASSERT_NE(scalar, nullptr);
    Rng rng(12);
    const int w = 40, h = 9;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = randomImage(w, h, rng);
    for (int radius : {0, 1, 2, 4}) {
        const PaddedRows l(left, 4, radius, 80), r(right, 4, radius, 80);
        for (int n = 1; n <= 19; ++n) {
            for (int nd = 1; nd <= 70; ++nd) {
                // Vary the start column so loads hit every alignment.
                const int x0 = 5 + (n + nd) % 7, d0 = 3;
                std::vector<double> ref(size_t(n) * nd);
                scalar->sadBlock(l.ptrs.data(), r.ptrs.data(), radius,
                                 x0, n, d0, nd, ref.data());
                for (simd::Level level : simd::supportedLevels()) {
                    std::vector<double> got(
                        ref.size(),
                        std::numeric_limits<double>::quiet_NaN());
                    simd::kernelsFor(level)->sadBlock(
                        l.ptrs.data(), r.ptrs.data(), radius, x0, n,
                        d0, nd, got.data());
                    for (size_t k = 0; k < ref.size(); ++k)
                        ASSERT_EQ(std::bit_cast<uint64_t>(ref[k]),
                                  std::bit_cast<uint64_t>(got[k]))
                            << simd::levelName(level) << " r=" << radius
                            << " n=" << n << " nd=" << nd << " k=" << k;
                }
            }
        }
    }
}

TEST(SimdKernels, SadBlockOnReplicatedRowsIsTheClampedSad)
{
    // The scalar reference over edge-replicated double rows is the
    // float SAD with every tap read through atClamped, in (dy, dx)
    // order — at every row and column, the borders included.
    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    ASSERT_NE(scalar, nullptr);
    Rng rng(13);
    const int w = 23, h = 7, nd = 30;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = randomImage(w, h, rng);
    for (int radius : {0, 1, 2, 4}) {
        for (int y = 0; y < h; ++y) {
            const int pad = radius + nd;
            const PaddedRows l(left, y, radius, pad);
            const PaddedRows r(right, y, radius, pad);
            std::vector<double> cost(size_t(w) * nd);
            scalar->sadBlock(l.ptrs.data(), r.ptrs.data(), radius, 0, w,
                             0, nd, cost.data());
            for (int d = 0; d < nd; ++d) {
                for (int x = 0; x < w; ++x) {
                    double sad = 0.0;
                    for (int dy = -radius; dy <= radius; ++dy)
                        for (int dx = -radius; dx <= radius; ++dx)
                            sad += std::abs(
                                double(left.atClamped(x + dx, y + dy)) -
                                right.atClamped(x + dx - d, y + dy));
                    ASSERT_EQ(std::bit_cast<uint64_t>(sad),
                              std::bit_cast<uint64_t>(
                                  cost[size_t(d) * w + x]))
                        << "r=" << radius << " y=" << y << " x=" << x
                        << " d=" << d;
                }
            }
        }
    }
}

/**
 * Drive one aggregateRow call per level against the scalar table and
 * compare cur, total, the returned min, and the sentinel slots.
 * Buffers follow the kernel contract: prev has 0xFFFF sentinels at
 * [-1] and [nd], prev_min is the true minimum of prev.
 */
void
checkAggregateRow(const std::vector<uint16_t> &cost,
                  const std::vector<uint16_t> &prev_padded, int nd,
                  uint16_t p1, uint16_t p2, const char *what)
{
    ASSERT_EQ(int(cost.size()), nd);
    ASSERT_EQ(int(prev_padded.size()), nd + 2);
    ASSERT_EQ(prev_padded.front(), 0xFFFF);
    ASSERT_EQ(prev_padded.back(), 0xFFFF);
    const uint16_t *prev = prev_padded.data() + 1;
    const uint16_t prev_min =
        *std::min_element(prev, prev + nd);

    const simd::Kernels *scalar =
        simd::kernelsFor(simd::Level::Scalar);
    ASSERT_NE(scalar, nullptr);
    std::vector<uint16_t> ref_cur(nd + 2, 0xFFFF);
    std::vector<uint32_t> ref_total(nd);
    for (int d = 0; d < nd; ++d)
        ref_total[d] = uint32_t(d) * 977u; // nonzero accumulators
    const uint16_t ref_min = scalar->aggregateRow(
        cost.data(), prev, prev_min, nd, p1, p2,
        ref_cur.data() + 1, ref_total.data());

    for (simd::Level level : simd::supportedLevels()) {
        const simd::Kernels *k = simd::kernelsFor(level);
        ASSERT_NE(k, nullptr);
        std::vector<uint16_t> cur(nd + 2, 0xFFFF);
        std::vector<uint32_t> total(nd);
        for (int d = 0; d < nd; ++d)
            total[d] = uint32_t(d) * 977u;
        const uint16_t got_min =
            k->aggregateRow(cost.data(), prev, prev_min, nd, p1, p2,
                            cur.data() + 1, total.data());
        EXPECT_EQ(ref_min, got_min)
            << simd::levelName(level) << " " << what;
        EXPECT_EQ(ref_cur, cur)
            << simd::levelName(level) << " " << what;
        EXPECT_EQ(ref_total, total)
            << simd::levelName(level) << " " << what;
        // The kernel must never touch the caller's sentinels.
        EXPECT_EQ(cur.front(), 0xFFFF) << what;
        EXPECT_EQ(cur.back(), 0xFFFF) << what;
    }
}

TEST(SimdKernels, AggregateRowMatchesScalarOnOddLaneCounts)
{
    Rng rng(13);
    // nd values straddling the 8- and 16-lane widths, including the
    // single-disparity degenerate case and non-multiples of both.
    for (int nd : {1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 65,
                   100}) {
        std::vector<uint16_t> cost(nd), prev(nd + 2, 0xFFFF);
        for (int d = 0; d < nd; ++d) {
            cost[d] = uint16_t(rng.uniformInt(0, 200));
            prev[d + 1] = uint16_t(rng.uniformInt(0, 4000));
        }
        checkAggregateRow(cost, prev, nd, 3, 40, "odd lanes");
        checkAggregateRow(cost, prev, nd, 0, 0, "zero penalties");
    }
}

TEST(SimdKernels, AggregateRowSaturatesNearUint16Max)
{
    Rng rng(14);
    // Costs and previous path values near the ceiling force the
    // sat16 clamp, and ceiling penalties force the saturating adds
    // on the neighbor/p2 candidates — the exact paths where a
    // non-saturating vector add would diverge from the scalar
    // clamped-uint32 order.
    for (int nd : {5, 16, 23, 64}) {
        for (const auto &[p1, p2] :
             {std::pair<uint16_t, uint16_t>{3, 40},
              {1000, 60000},
              {0xFFFF, 0xFFFF}}) {
            std::vector<uint16_t> cost(nd), prev(nd + 2, 0xFFFF);
            for (int d = 0; d < nd; ++d) {
                cost[d] =
                    uint16_t(rng.uniformInt(0xFFF0, 0xFFFF));
                prev[d + 1] =
                    uint16_t(rng.uniformInt(0xFF00, 0xFFFF));
            }
            checkAggregateRow(cost, prev, nd, p1, p2, "saturation");
        }
    }
}

TEST(SimdKernels, AggregateRowSingleDisparityDegenerate)
{
    // nd == 1: no neighbors at all — only the prev_min + p2 candidate
    // competes with prev[0], and every vector body must fall through
    // to the shared scalar tail.
    for (uint16_t c : {uint16_t(0), uint16_t(7), uint16_t(0xFFFF)}) {
        std::vector<uint16_t> cost{c};
        std::vector<uint16_t> prev{0xFFFF, 42, 0xFFFF};
        checkAggregateRow(cost, prev, 1, 3, 40, "nd=1");
    }
}

// -------------------------------------------------------- pipeline level

TEST(SimdProperty, CensusBitIdenticalAcrossLevelsAndRadii)
{
    Rng rng(21);
    // Odd widths force sub-vector tails; width 5 with radius 3 makes
    // the interior span empty (pure border path).
    const std::pair<int, int> sizes[] = {
        {5, 7}, {17, 9}, {33, 12}, {64, 5}, {129, 11}};
    for (const auto &[w, h] : sizes) {
        const image::Image img = randomImage(w, h, rng);
        for (int radius = 1; radius <= 3; ++radius) {
            LevelGuard scalar(simd::Level::Scalar);
            const auto ref = stereo::censusTransform(img, radius,
                                                     ExecContext::global());
            for (simd::Level level : simd::supportedLevels()) {
                LevelGuard guard(level);
                const auto got =
                    stereo::censusTransform(img, radius,
                                            ExecContext::global());
                ASSERT_EQ(ref, got)
                    << simd::levelName(level) << " " << w << "x" << h
                    << " r=" << radius;
            }
        }
    }
}

TEST(SimdProperty, SgmDisparityBitIdenticalAcrossLevels)
{
    Rng rng(23);
    for (const auto &[w, h, max_d, radius] :
         {std::tuple{21, 17, 7, 1}, {45, 19, 37, 2}, {33, 9, 13, 3}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 4, rng);
        stereo::SgmParams params;
        params.maxDisparity = max_d;
        params.censusRadius = radius;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref = stereo::sgmCompute(left, right, params,
                                            ExecContext::global());
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard guard(level);
            const auto got = stereo::sgmCompute(left, right, params,
                                                ExecContext::global());
            expectBitIdentical(ref, got, "sgm disparity");
        }
    }
}

TEST(SimdProperty, BlockMatchingBitIdenticalAcrossLevels)
{
    Rng rng(24);
    for (const auto &[w, h, max_d] :
         {std::tuple{23, 15, 7}, {49, 11, 37}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 3, rng);
        stereo::BlockMatchingParams params;
        params.maxDisparity = max_d;
        params.uniquenessRatio = 0.05f;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref = stereo::blockMatching(left, right, params,
                                               ExecContext::global());
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard guard(level);
            const auto got =
                stereo::blockMatching(left, right, params,
                                      ExecContext::global());
            expectBitIdentical(ref, got, "block matching");
        }
    }
}

TEST(SimdProperty, GuidedRefinementBitIdenticalAcrossLevels)
{
    Rng rng(25);
    const int w = 41, h = 13;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = shiftedImage(left, 5, rng);
    stereo::DisparityMap init(w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            init.at(x, y) = (x + y) % 3 == 0
                                ? stereo::kInvalidDisparity
                                : float(rng.uniformInt(0, 6));
    stereo::BlockMatchingParams params;
    params.maxDisparity = 19;
    LevelGuard scalar(simd::Level::Scalar);
    const auto ref =
        stereo::refineDisparity(left, right, init, 2, params,
                                ExecContext::global());
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard guard(level);
        const auto got =
            stereo::refineDisparity(left, right, init, 2, params,
                                    ExecContext::global());
        expectBitIdentical(ref, got, "guided refinement");
    }
}

TEST(SimdProperty, MatcherRegistryBitIdenticalAcrossLevels)
{
    Rng rng(26);
    const int w = 37, h = 15;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = shiftedImage(left, 3, rng);
    for (const char *spec : {"sgm", "bm"}) {
        const auto matcher =
            stereo::makeMatcher(spec, "maxDisparity=21");
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref =
            matcher->compute(left, right, ExecContext::global());
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard guard(level);
            const auto got =
                matcher->compute(left, right, ExecContext::global());
            expectBitIdentical(ref, got, spec);
        }
    }
}

TEST(SimdProperty, LevelsBitIdenticalAcrossWorkerCounts)
{
    Rng rng(27);
    const int w = 39, h = 21;
    const image::Image left = randomImage(w, h, rng);
    const image::Image right = shiftedImage(left, 4, rng);
    stereo::SgmParams params;
    params.maxDisparity = 23;
    ThreadPool serial(1), pool(4);
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard guard(level);
        const auto a = stereo::sgmCompute(left, right, params,
                                          ExecContext(serial));
        const auto b = stereo::sgmCompute(left, right, params,
                                          ExecContext(pool));
        expectBitIdentical(a, b, "threads x simd");
    }
}

// ------------------------------------------- wavefront vs directional
// referenceSgm lives in tests/sgm_reference.hh.

TEST(WavefrontSgm, MatchesDirectionalReference)
{
    Rng rng(31);
    for (const auto &[w, h, max_d, lr_check, subpixel] :
         {std::tuple{25, 19, 11, true, true},
          {33, 14, 15, false, true},
          {18, 27, 7, true, false}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 3, rng);
        stereo::SgmParams params;
        params.maxDisparity = max_d;
        params.leftRightCheck = lr_check;
        params.subpixel = subpixel;
        const auto ref = referenceSgm(left, right, params);
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard guard(level);
            const auto got = stereo::sgmCompute(left, right, params,
                                                ExecContext::global());
            expectBitIdentical(ref, got, "wavefront vs directional");
        }
    }
}

TEST(WavefrontSgm, SingleDisparityDegenerate)
{
    // maxDisparity == 0 (nd == 1): the aggregation recurrence has no
    // neighbor candidates and WTA has nothing to argmin over; every
    // level must still agree with the directional reference.
    Rng rng(33);
    const image::Image left = randomImage(21, 11, rng);
    const image::Image right = shiftedImage(left, 0, rng);
    stereo::SgmParams params;
    params.maxDisparity = 0;
    const auto ref = referenceSgm(left, right, params);
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard guard(level);
        const auto got = stereo::sgmCompute(left, right, params,
                                            ExecContext::global());
        expectBitIdentical(ref, got, "single disparity");
    }
}

TEST(WavefrontSgm, PenaltiesAboveUint16CeilingMatchReference)
{
    // sgmCompute clamps p1/p2 to 0xFFFF before entering the kernels;
    // a penalty above the ceiling can never win the min against
    // prev[d] <= 0xFFFF, so the unclamped uint32 reference must
    // agree bit for bit.
    Rng rng(34);
    const image::Image left = randomImage(19, 15, rng);
    const image::Image right = shiftedImage(left, 2, rng);
    stereo::SgmParams params;
    params.maxDisparity = 13;
    params.p1 = 70000;
    params.p2 = 200000;
    const auto ref = referenceSgm(left, right, params);
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard guard(level);
        const auto got = stereo::sgmCompute(left, right, params,
                                            ExecContext::global());
        expectBitIdentical(ref, got, "huge penalties");
    }
}

TEST(WavefrontSgm, MatchesReferenceOnManyWorkers)
{
    // More workers than rows/columns exercises empty chunks and the
    // strip/wavefront edge cases.
    Rng rng(32);
    const image::Image left = randomImage(13, 7, rng);
    const image::Image right = shiftedImage(left, 2, rng);
    stereo::SgmParams params;
    params.maxDisparity = 9;
    const auto ref = referenceSgm(left, right, params);
    ThreadPool pool(16);
    const auto got =
        stereo::sgmCompute(left, right, params, ExecContext(pool));
    expectBitIdentical(ref, got, "wavefront many workers");
}

} // namespace
