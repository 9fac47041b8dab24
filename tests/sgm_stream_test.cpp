/**
 * @file
 * Tests for the tiled, streaming SGM engine: bit-identity against
 * the directional reference in tests/sgm_reference.hh (odd sizes,
 * non-lane-multiple disparity ranges, every SIMD level, 1 and 8
 * workers), the 4/5-path variants, the range-pruned guided mode, the
 * resident-footprint contract, and allocation-free steady state.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <tuple>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "sgm_reference.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"
#include "stereo/sgm.hh"

namespace
{

using namespace asv;

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
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            img.at(x, y) = float(rng.uniformReal(0.0, 255.0));
    return img;
}

/** Right view: left shifted by ~d with noise, like simd_test's. */
image::Image
shiftedImage(const image::Image &img, int d, Rng &rng)
{
    image::Image out(img.width(), img.height());
    for (int y = 0; y < out.height(); ++y) {
        for (int x = 0; x < out.width(); ++x) {
            const int xs = std::max(0, x - d);
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
    ASSERT_EQ(a.width(), b.width()) << what;
    ASSERT_EQ(a.height(), b.height()) << what;
    for (int y = 0; y < a.height(); ++y) {
        for (int x = 0; x < a.width(); ++x) {
            const float av = a.at(x, y), bv = b.at(x, y);
            ASSERT_EQ(std::memcmp(&av, &bv, sizeof(float)), 0)
                << what << " differs at (" << x << ", " << y
                << "): " << av << " vs " << bv;
        }
    }
}

// ------------------------------------------ streaming vs reference

TEST(SgmStream, StreamingMatchesDirectionalReference)
{
    Rng rng(31);
    ThreadPool t1(1), t8(8);
    // Odd widths/heights force sub-vector tails everywhere; the
    // disparity counts (nd = maxD + 1) avoid 4/8-lane multiples.
    for (const auto &[w, h, max_d, radius] :
         {std::tuple{13, 7, 7, 1}, {33, 17, 13, 2}, {45, 19, 37, 2},
          {64, 33, 31, 3}}) {
        const image::Image left = randomImage(w, h, rng);
        const image::Image right = shiftedImage(left, 4, rng);
        stereo::SgmParams params;
        params.maxDisparity = max_d;
        params.censusRadius = radius;
        const auto ref = testref::referenceSgm(left, right, params);
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard guard(level);
            for (ThreadPool *pool : {&t1, &t8}) {
                const auto got = stereo::sgmCompute(
                    left, right, params, ExecContext(*pool));
                expectBitIdentical(ref, got, "streaming vs reference");
            }
        }
    }
}

// --------------------------------------------------- 4/5-path modes

TEST(SgmStream, FewerPathsBitIdenticalAcrossLevelsAndThreads)
{
    Rng rng(33);
    ThreadPool t1(1), t8(8);
    const image::Image left = randomImage(39, 21, rng);
    const image::Image right = shiftedImage(left, 4, rng);
    for (int paths : {4, 5}) {
        stereo::SgmParams params;
        params.maxDisparity = 23;
        params.paths = paths;
        LevelGuard scalar(simd::Level::Scalar);
        const auto ref =
            stereo::sgmCompute(left, right, params, ExecContext(t1));
        for (simd::Level level : simd::supportedLevels()) {
            LevelGuard guard(level);
            for (ThreadPool *pool : {&t1, &t8}) {
                const auto got = stereo::sgmCompute(
                    left, right, params, ExecContext(*pool));
                expectBitIdentical(ref, got, "paths variant");
            }
        }
    }
}

TEST(SgmStream, FewerPathsRecoverConstantDisparity)
{
    Rng rng(34);
    image::Image tex = data::makeTexture(160, 64, 7.f, rng);
    image::Image left(tex.width() - 12, tex.height());
    image::Image right(tex.width() - 12, tex.height());
    for (int y = 0; y < left.height(); ++y) {
        for (int x = 0; x < left.width(); ++x) {
            left.at(x, y) = tex.at(x, y);
            right.at(x, y) = tex.at(x + 12, y);
        }
    }
    stereo::DisparityMap gt(left.width(), left.height());
    gt.fill(12.f);
    for (int paths : {4, 5, 8}) {
        stereo::SgmParams params;
        params.maxDisparity = 32;
        params.paths = paths;
        const auto d = stereo::sgmCompute(left, right, params,
                                          ExecContext::global());
        EXPECT_LT(stereo::badPixelRate(d, gt, 1.0, 32), 5.0)
            << "paths=" << paths;
    }
}

TEST(SgmStream, RegistryRejectsBadPathOptions)
{
    EXPECT_THROW(stereo::makeMatcher("sgm", "paths=6"),
                 std::invalid_argument);
    EXPECT_THROW(stereo::makeMatcher("sgm", "p1=-1"),
                 std::invalid_argument);
    EXPECT_THROW(stereo::makeMatcher("sgm", "p2=-1"),
                 std::invalid_argument);
    EXPECT_THROW(stereo::makeMatcher("sgm", "fused=0"),
                 std::invalid_argument);
    EXPECT_THROW(stereo::makeMatcher("sgm", "pruneMargin=-1"),
                 std::invalid_argument);
}

// ------------------------------------------------- range-pruned mode

TEST(SgmStream, RangePrunedFullMarginBitIdenticalToUnguided)
{
    Rng rng(35);
    ThreadPool t4(4);
    const ExecContext ctx(t4);
    const image::Image left = randomImage(47, 25, rng);
    const image::Image right = shiftedImage(left, 6, rng);
    stereo::SgmParams params;
    params.maxDisparity = 31;
    const auto unguided = stereo::sgmCompute(left, right, params, ctx);
    // margin >= maxDisparity widens every window to the full range:
    // the guided engine must then be bit-identical to the unguided
    // one (and, transitively, to tests/sgm_reference.hh).
    params.pruneMargin = params.maxDisparity;
    const auto guided = stereo::sgmComputeGuided(
        left, right, unguided, params, ctx);
    expectBitIdentical(unguided, guided, "full-margin range prune");
}

TEST(SgmStream, RangePrunedBitIdenticalAcrossLevelsAndThreads)
{
    Rng rng(36);
    ThreadPool t1(1), t8(8);
    const image::Image left = randomImage(51, 27, rng);
    const image::Image right = shiftedImage(left, 5, rng);
    stereo::SgmParams params;
    params.maxDisparity = 29;
    params.pruneMargin = 4;
    LevelGuard scalar(simd::Level::Scalar);
    const auto guide =
        stereo::sgmCompute(left, right, params, ExecContext(t1));
    const auto ref = stereo::sgmComputeGuided(left, right, guide,
                                              params, ExecContext(t1));
    for (simd::Level level : simd::supportedLevels()) {
        LevelGuard guard(level);
        for (ThreadPool *pool : {&t1, &t8}) {
            const auto got = stereo::sgmComputeGuided(
                left, right, guide, params, ExecContext(*pool));
            expectBitIdentical(ref, got, "range-pruned");
        }
    }
}

TEST(SgmStream, RangePrunedRecoversConstantDisparity)
{
    Rng rng(37);
    image::Image tex = data::makeTexture(160, 64, 7.f, rng);
    image::Image left(tex.width() - 12, tex.height());
    image::Image right(tex.width() - 12, tex.height());
    for (int y = 0; y < left.height(); ++y) {
        for (int x = 0; x < left.width(); ++x) {
            left.at(x, y) = tex.at(x, y);
            right.at(x, y) = tex.at(x + 12, y);
        }
    }
    stereo::DisparityMap gt(left.width(), left.height());
    gt.fill(12.f);
    stereo::SgmParams params;
    params.maxDisparity = 32;
    params.pruneMargin = 4;
    const auto d = stereo::sgmComputeGuided(
        left, right, gt, params, ExecContext::global());
    EXPECT_LT(stereo::badPixelRate(d, gt, 1.0, 32), 5.0);
}

TEST(SgmStream, RangePrunedFallsBackWithoutUsableGuide)
{
    Rng rng(38);
    const image::Image left = randomImage(33, 15, rng);
    const image::Image right = shiftedImage(left, 3, rng);
    stereo::SgmParams params;
    params.maxDisparity = 15;
    const auto unguided = stereo::sgmCompute(left, right, params,
                                             ExecContext::global());
    // Empty and size-mismatched guides degrade to plain compute.
    const auto empty_guide = stereo::sgmComputeGuided(
        left, right, stereo::DisparityMap(), params,
        ExecContext::global());
    expectBitIdentical(unguided, empty_guide, "empty guide");
    stereo::DisparityMap wrong(8, 8);
    wrong.fill(2.f);
    const auto mismatched = stereo::sgmComputeGuided(
        left, right, wrong, params, ExecContext::global());
    expectBitIdentical(unguided, mismatched, "mismatched guide");
    // A guide with no valid pixel prunes nothing: full range per row.
    stereo::DisparityMap invalid(left.width(), left.height());
    invalid.fill(stereo::kInvalidDisparity);
    const auto all_invalid = stereo::sgmComputeGuided(
        left, right, invalid, params, ExecContext::global());
    expectBitIdentical(unguided, all_invalid, "all-invalid guide");
}

TEST(SgmStream, RegistryRangePruneEngineUsesGuide)
{
    Rng rng(39);
    const image::Image left = randomImage(49, 21, rng);
    const image::Image right = shiftedImage(left, 4, rng);
    const auto pruned = stereo::makeMatcher(
        "sgm", "maxDisparity=21,rangePrune=1,pruneMargin=3");
    EXPECT_TRUE(pruned->guided());
    const auto plain = stereo::makeMatcher("sgm", "maxDisparity=21");
    EXPECT_FALSE(plain->guided());
    const auto guide =
        plain->compute(left, right, ExecContext::global());
    const auto a = pruned->computeGuided(left, right, guide,
                                         ExecContext::global());
    const auto b = stereo::sgmComputeGuided(
        left, right, guide,
        []() {
            stereo::SgmParams p;
            p.maxDisparity = 21;
            p.pruneMargin = 3;
            return p;
        }(),
        ExecContext::global());
    expectBitIdentical(a, b, "registry range-pruned engine");
}

// -------------------------------------------------- resident memory

TEST(SgmStream, ResidentFootprintBelowOneCostVolume)
{
    Rng rng(40);
    const int n = 256;
    const image::Image left = randomImage(n, n, rng);
    const image::Image right = shiftedImage(left, 8, rng);
    stereo::SgmParams params;
    params.maxDisparity = 63;

    // Run in a fresh arena; once the result dies, every buffer the
    // run touched is shelved, so residentBytes is the engine's whole
    // resident footprint. It must stay below a single uint16 cost
    // volume (w * h * nd * 2 bytes) — the engine never holds one.
    ThreadPool pool(2);
    BufferPool buffers;
    {
        const auto d = stereo::sgmCompute(left, right, params,
                                          ExecContext(pool, buffers));
        EXPECT_EQ(d.width(), n);
    }
    const uint64_t resident = buffers.stats().residentBytes;
    const uint64_t cost_volume =
        uint64_t(n) * n * uint64_t(params.maxDisparity + 1) * 2;
    EXPECT_LT(resident, cost_volume)
        << "resident " << resident << " B vs one cost volume "
        << cost_volume << " B";
}

// ------------------------------------------------------ allocations

TEST(SgmStream, SteadyStateIsAllocationFree)
{
    Rng rng(41);
    const image::Image left = randomImage(96, 64, rng);
    const image::Image right = shiftedImage(left, 6, rng);
    stereo::DisparityMap guide(left.width(), left.height());
    guide.fill(6.f);

    struct Case
    {
        const char *name;
        int paths;
        bool range_prune;
    };
    for (const Case &c : {Case{"paths-8", 8, false},
                          Case{"paths-4", 4, false},
                          Case{"range-pruned", 8, true}}) {
        SCOPED_TRACE(c.name);
        ThreadPool pool(2);
        BufferPool buffers;
        const ExecContext ctx(pool, buffers);
        stereo::SgmParams params;
        params.maxDisparity = 32;
        params.paths = c.paths;
        params.pruneMargin = 4;
        auto run = [&]() {
            return c.range_prune
                       ? stereo::sgmComputeGuided(left, right, guide,
                                                  params, ctx)
                       : stereo::sgmCompute(left, right, params, ctx);
        };
        stereo::DisparityMap d;
        for (int i = 0; i < 3; ++i)
            d = run(); // warm every shelf shape
        {
            // Tile scratch, wavefront rows, window metadata, and the
            // output map must all recycle through the pool.
            ASV_ASSERT_NO_ALLOC;
            for (int i = 0; i < 3; ++i)
                d = run();
        }
        EXPECT_EQ(d.width(), left.width());
    }
}

} // namespace
