/**
 * @file
 * Tests for the classic stereo substrate: triangulation (Eq. 1 /
 * Fig. 4), disparity metrics, full-search and guided block matching,
 * census transform and SGM.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/exec_context.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "data/scene.hh"
#include "expect_invalid.hh"
#include "hash_util.hh"
#include "stereo/block_matching.hh"
#include "stereo/disparity.hh"
#include "stereo/sgm.hh"

namespace
{

using namespace asv;
using namespace asv::stereo;

/**
 * Build a constant-disparity stereo pair from a texture, following
 * the matcher's convention x_right = x_left - d: the right view is
 * the texture shifted left by d, so left pixel x (texture column x)
 * appears in the right view at x - d. (An earlier version had the
 * shift on the wrong image, encoding disparity -d — unreachable by
 * the [0, maxDisparity] search — which went unnoticed because the
 * metrics' border margins excluded every row of the short test
 * images, making the assertions vacuous.)
 */
void
makePair(const image::Image &tex, int d, image::Image &left,
         image::Image &right)
{
    const int w = tex.width() - d, h = tex.height();
    left = image::Image(w, h);
    right = image::Image(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            left.at(x, y) = tex.at(x, y);
            right.at(x, y) = tex.at(x + d, y); // shifted left by d
        }
    }
}

TEST(Triangulation, Bumblebee2KnownValues)
{
    // B = 120 mm, f = 2.5 mm, 7.4 um pixels (Sec. 2.2 / Fig. 4).
    StereoRig rig;
    // depth = B*f / (d * pitch): at d = 10 px, depth = 4.054 m.
    EXPECT_NEAR(rig.depthFromDisparity(10.0), 4.054, 0.01);
    // Round trip.
    const double d = rig.disparityFromDepth(15.0);
    EXPECT_NEAR(rig.depthFromDisparity(d), 15.0, 1e-9);
}

TEST(Triangulation, DepthErrorGrowsQuadraticallyWithRange)
{
    // Fig. 4: the same disparity error hurts far objects much more.
    StereoRig rig;
    const double e10 = rig.depthErrorAt(10.0, 0.2);
    const double e30 = rig.depthErrorAt(30.0, 0.2);
    EXPECT_GT(e30, e10 * 6.0);
    // Paper: two tenths of a pixel already costs 0.5 m - 5 m.
    EXPECT_GT(e30, 0.5);
    EXPECT_LT(e10, 1.0);
}

TEST(Triangulation, ZeroDisparityIsInfinitelyFar)
{
    StereoRig rig;
    EXPECT_TRUE(std::isinf(rig.depthFromDisparity(0.0)));
}

TEST(Metrics, BadPixelRateCountsThreshold)
{
    DisparityMap gt(4, 1), pred(4, 1);
    gt.fill(10.f);
    pred.at(0, 0) = 10.f;  // exact
    pred.at(1, 0) = 12.0f; // within 3
    pred.at(2, 0) = 13.5f; // off by 3.5 -> bad
    pred.at(3, 0) = kInvalidDisparity; // invalid -> bad
    EXPECT_NEAR(badPixelRate(pred, gt, 3.0), 50.0, 1e-9);
}

TEST(Metrics, InvalidGroundTruthIsSkipped)
{
    DisparityMap gt(2, 1), pred(2, 1);
    gt.at(0, 0) = kInvalidDisparity;
    gt.at(1, 0) = 5.f;
    pred.fill(5.f);
    EXPECT_DOUBLE_EQ(badPixelRate(pred, gt, 3.0), 0.0);
    EXPECT_DOUBLE_EQ(meanAbsDisparityError(pred, gt), 0.0);
}

TEST(BlockMatching, RecoversConstantDisparity)
{
    Rng rng(21);
    image::Image tex = data::makeTexture(160, 80, 7.f, rng);
    image::Image left, right;
    makePair(tex, 12, left, right);

    BlockMatchingParams params;
    params.maxDisparity = 32;
    DisparityMap d = blockMatching(left, right, params, ExecContext::global());
    // Interior pixels (x >= maxDisparity so the search can reach).
    DisparityMap gt(left.width(), left.height());
    gt.fill(12.f);
    EXPECT_LT(badPixelRate(d, gt, 1.5, /*margin=*/33), 2.0);
}

TEST(BlockMatching, SubpixelRefinementTightensError)
{
    // A genuinely fractional shift (d = 8.5) that integer matching
    // cannot express: parabolic interpolation must land closer to
    // the true disparity than the best integer candidate.
    Rng rng(22);
    image::Image tex = data::makeTexture(160, 80, 7.f, rng);
    const float d_true = 8.5f;
    const int w = tex.width() - 10, h = tex.height();
    image::Image left(w, h), right(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            left.at(x, y) = tex.at(x, y);
            right.at(x, y) = tex.sample(float(x) + d_true, float(y));
        }
    }

    BlockMatchingParams coarse;
    coarse.maxDisparity = 24;
    coarse.subpixel = false;
    BlockMatchingParams fine = coarse;
    fine.subpixel = true;

    DisparityMap gt(w, h);
    gt.fill(d_true);
    const double e_coarse = meanAbsDisparityError(
        blockMatching(left, right, coarse, ExecContext::global()), gt, 26);
    const double e_fine = meanAbsDisparityError(
        blockMatching(left, right, fine, ExecContext::global()), gt, 26);
    EXPECT_GE(e_coarse, 0.45); // integer matching is stuck at +-0.5
    EXPECT_LT(e_fine, e_coarse);
}

TEST(BlockMatching, GuidedRefinementMatchesFullSearch)
{
    // ISM step 4: with a good initial estimate, a +-2 window finds
    // the same answer as the full search.
    Rng rng(23);
    image::Image tex = data::makeTexture(160, 80, 7.f, rng);
    image::Image left, right;
    makePair(tex, 14, left, right);

    BlockMatchingParams params;
    params.maxDisparity = 32;
    DisparityMap full = blockMatching(left, right, params,
                                      ExecContext::global());

    DisparityMap init(left.width(), left.height());
    init.fill(13.f); // one pixel off: still within the window
    DisparityMap guided =
        refineDisparity(left, right, init, 2, params, ExecContext::global());

    EXPECT_LT(badPixelRate(guided, full, 1.0, 33), 3.0);
}

TEST(BlockMatching, GuidedSearchFallsBackOnInvalidInit)
{
    Rng rng(24);
    image::Image tex = data::makeTexture(120, 48, 7.f, rng);
    image::Image left, right;
    makePair(tex, 8, left, right);

    DisparityMap init(left.width(), left.height());
    init.fill(kInvalidDisparity);
    BlockMatchingParams params;
    params.maxDisparity = 16;
    DisparityMap d = refineDisparity(left, right, init, 2, params,
                                     ExecContext::global());

    DisparityMap gt(left.width(), left.height());
    gt.fill(8.f);
    EXPECT_LT(badPixelRate(d, gt, 1.5, 17), 3.0);
}

/**
 * Fraction of valid pixels, ignoring an x margin (where the search
 * range is truncated) and a y margin (block-window border).
 */
double
validFraction(const DisparityMap &d, int xmargin, int ymargin)
{
    int64_t valid = 0, total = 0;
    for (int y = ymargin; y < d.height() - ymargin; ++y) {
        for (int x = xmargin; x < d.width() - xmargin; ++x) {
            ++total;
            valid += isValidDisparity(d.at(x, y));
        }
    }
    return total ? double(valid) / double(total) : 0.0;
}

TEST(BlockMatching, UniquenessKeepsUnambiguousGuidedMatches)
{
    // Regression: the uniqueness filter used to count the immediate
    // neighbors of the best disparity as the "second best", so any
    // positive ratio rejected nearly every pixel on a smooth SAD
    // surface — fatal in guided refinement, where all candidates
    // are adjacent integers. Neighbors within +-1 of the best are
    // now excluded (OpenCV semantics). A noisy rendered scene keeps
    // the best cost strictly positive, which is where the old
    // filter rejected everything.
    data::SceneConfig cfg;
    cfg.width = 160;
    cfg.height = 80;
    auto seq = data::generateSequence(cfg, 1, 26);
    const auto &f = seq.frames[0];

    BlockMatchingParams params;
    params.maxDisparity = 48;
    params.uniquenessRatio = 0.15f;
    DisparityMap guided =
        refineDisparity(f.left, f.right, f.gtDisparity, 2, params,
                        ExecContext::global());

    EXPECT_GT(validFraction(guided, 8, 5), 0.8);
    EXPECT_LT(badPixelRate(guided, f.gtDisparity, 3.0, 6), 10.0);
}

TEST(BlockMatching, UniquenessRejectsPeriodicAmbiguity)
{
    // Vertical stripes with period 8 shifted by 8: every multiple
    // of the period matches exactly, so a genuine second minimum
    // exists far from the best. The filter must reject these pixels
    // (without it, ties resolve to the first — wrong — candidate).
    image::Image tex(160, 32);
    for (int y = 0; y < tex.height(); ++y)
        for (int x = 0; x < tex.width(); ++x)
            tex.at(x, y) = (x / 4) % 2 ? 200.f : 50.f;
    image::Image left, right;
    makePair(tex, 8, left, right);

    BlockMatchingParams plain;
    plain.maxDisparity = 32;
    BlockMatchingParams unique = plain;
    unique.uniquenessRatio = 0.1f;

    EXPECT_GT(validFraction(blockMatching(left, right, plain,
                                          ExecContext::global()), 33, 5),
              0.9);
    EXPECT_LT(validFraction(blockMatching(left, right, unique,
                                          ExecContext::global()), 33, 5),
              0.1);
}

/**
 * A 97x31 pair (true disparity 12) whose odd width leaves sub-vector
 * pixel tails in every row, plus a guide that mixes exact, off-by-2,
 * out-of-range and unseeded pixels so the guided search sees narrow,
 * wide and beyond-maxDisparity windows, the left border included.
 */
struct OddPair
{
    image::Image left, right;
    DisparityMap guide;

    OddPair()
    {
        Rng rng(31);
        const image::Image tex = data::makeTexture(97 + 12, 31, 7.f, rng);
        makePair(tex, 12, left, right);
        guide = DisparityMap(left.width(), left.height());
        for (int y = 0; y < guide.height(); ++y) {
            for (int x = 0; x < guide.width(); ++x) {
                float g = 12.f + float((x + y) % 5 - 2);
                if ((x * 7 + y * 3) % 11 == 0)
                    g = kInvalidDisparity;
                else if ((x + 2 * y) % 13 == 0)
                    g = 60.f;
                guide.at(x, y) = g;
            }
        }
    }
};

/** Hash of one map at every SIMD level and pool size; all must agree. */
template <typename Run>
void
expectPinnedEverywhere(uint64_t pinned, Run run)
{
    const simd::Level saved = simd::activeLevel();
    for (simd::Level level : simd::supportedLevels()) {
        simd::setLevel(level);
        for (int workers : {1, 3}) {
            ThreadPool pool(workers);
            BufferPool buffers;
            EXPECT_EQ(pinned, testref::fnv1a(testref::kFnvBasis,
                                             run(ExecContext(pool, buffers))))
                << simd::levelName(level) << ", " << workers
                << " workers";
        }
    }
    simd::setLevel(saved);
}

// The pins below were computed with the per-pixel, candidate-lane SAD
// search and its clamped scalar border path that preceded the
// pixel-lane kernel.

TEST(BlockMatchingPin, FullSearchOnOddSizedPair)
{
    const OddPair pair;
    BlockMatchingParams params;
    params.maxDisparity = 48;
    expectPinnedEverywhere(0xb6930682b681aa87ull, [&](const ExecContext &ctx) {
        return blockMatching(pair.left, pair.right, params, ctx);
    });
    params.uniquenessRatio = 0.15f;
    params.blockRadius = 3;
    expectPinnedEverywhere(0xf4b42825e280e2fcull, [&](const ExecContext &ctx) {
        return blockMatching(pair.left, pair.right, params, ctx);
    });
}

TEST(BlockMatchingPin, GuidedRefinementOnOddSizedPair)
{
    const OddPair pair;
    BlockMatchingParams params;
    params.maxDisparity = 48;
    expectPinnedEverywhere(0xcd07a1153656a908ull, [&](const ExecContext &ctx) {
        return refineDisparity(pair.left, pair.right, pair.guide, 2,
                               params, ctx);
    });
    params.uniquenessRatio = 0.15f;
    params.blockRadius = 1;
    expectPinnedEverywhere(0x8eff7bf1bb0e9541ull, [&](const ExecContext &ctx) {
        return refineDisparity(pair.left, pair.right, pair.guide, 3,
                               params, ctx);
    });
}

TEST(BlockMatching, UnseededRefinementIsTheFullSearch)
{
    // With no seed at all, every pixel searches [0, min(maxD, x)] —
    // exactly blockMatching's window — and must give its bits.
    const OddPair pair;
    DisparityMap blank(pair.left.width(), pair.left.height());
    blank.fill(kInvalidDisparity);
    for (float ratio : {0.f, 0.15f}) {
        for (int radius : {0, 2}) {
            BlockMatchingParams params;
            params.maxDisparity = 48;
            params.uniquenessRatio = ratio;
            const ExecContext ctx = ExecContext::global();
            EXPECT_EQ(testref::fnv1a(testref::kFnvBasis,
                                     blockMatching(pair.left, pair.right,
                                                   params, ctx)),
                      testref::fnv1a(testref::kFnvBasis,
                                     refineDisparity(pair.left, pair.right,
                                                     blank, radius, params,
                                                     ctx)))
                << "ratio " << ratio << ", radius " << radius;
        }
    }
}

TEST(MathUtil, RoundToIntIsLround)
{
    // The scatter and the guided search round with roundToInt; it
    // must give int(std::lround(v)) for every float, halves and their
    // neighbours, both signs, the int range edge and non-finite input
    // included.
    std::vector<float> vals = {0.f, -0.f, 0.5f, -0.5f, 2147483520.f,
                               -2147483648.f, 2147483648.f, 1e30f,
                               std::numeric_limits<float>::infinity(),
                               std::numeric_limits<float>::quiet_NaN()};
    for (int k = -4000; k <= 4000; ++k) {
        const float half = float(k) * 0.25f;
        vals.push_back(half);
        vals.push_back(std::nextafter(half, 1e9f));
        vals.push_back(std::nextafter(half, -1e9f));
    }
    Rng rng(41);
    for (int k = 0; k < 100000; ++k)
        vals.push_back(std::bit_cast<float>(
            uint32_t(rng.uniformInt(0, 0x7fffffff)) |
            (k % 2 ? 0x80000000u : 0u)));
    for (float v : vals)
        EXPECT_EQ(roundToInt(v), static_cast<int>(std::lround(v))) << v;
}

TEST(BlockMatching, OpsModel)
{
    // candidates x block taps per pixel.
    EXPECT_EQ(blockMatchingOps(10, 10, 2, 5),
              int64_t(100) * 5 * 25);
}

TEST(Census, BitsEncodeNeighborhoodOrdering)
{
    image::Image img(3, 3);
    // Center 5; neighbors alternate below/above.
    const float vals[9] = {1, 9, 1, 9, 5, 9, 1, 9, 1};
    for (int y = 0; y < 3; ++y)
        for (int x = 0; x < 3; ++x)
            img.at(x, y) = vals[y * 3 + x];
    const auto census = censusTransform(img, 1, ExecContext::global());
    // Center pixel: 8 neighbors, bits set where neighbor < center.
    // Pattern 1,9,1,9,.,9,1,9,1 -> 10101010... reading row-major:
    // (1<5)=1,(9<5)=0,1,0,0,1,0,1.
    EXPECT_EQ(census[4], 0b10100101u);
}

TEST(Census, InvariantToMonotonicIntensityChange)
{
    Rng rng(25);
    image::Image a = data::makeTexture(32, 32, 6.f, rng);
    image::Image b = a;
    for (auto &v : b.flat())
        v = 2.f * v + 30.f; // monotonic remap
    EXPECT_EQ(censusTransform(a, 2, ExecContext::global()),
              censusTransform(b, 2, ExecContext::global()));
}

TEST(Sgm, RecoversConstantDisparity)
{
    Rng rng(26);
    image::Image tex = data::makeTexture(160, 48, 7.f, rng);
    image::Image left, right;
    makePair(tex, 11, left, right);

    SgmParams params;
    params.maxDisparity = 24;
    DisparityMap d = sgmCompute(left, right, params, ExecContext::global());
    DisparityMap gt(left.width(), left.height());
    gt.fill(11.f);
    EXPECT_LT(badPixelRate(d, gt, 1.5, 25), 5.0);
}

TEST(Sgm, SmoothnessSuppressesSpeckle)
{
    // On a two-plane scene, SGM should produce fewer bad pixels
    // than plain block matching thanks to path aggregation.
    asv::data::SceneConfig cfg;
    cfg.width = 160;
    cfg.height = 64;
    cfg.numObjects = 3;
    cfg.maxDisparity = 20.f;
    cfg.photometricNoise = 2.0f;
    auto seq = asv::data::generateSequence(cfg, 1, 33);
    const auto &f = seq.frames[0];

    SgmParams sgm_params;
    sgm_params.maxDisparity = 24;
    sgm_params.leftRightCheck = false;
    DisparityMap sgm_d = sgmCompute(f.left, f.right, sgm_params,
                                    ExecContext::global());

    BlockMatchingParams bm_params;
    bm_params.maxDisparity = 24;
    bm_params.blockRadius = 2;
    DisparityMap bm_d = blockMatching(f.left, f.right, bm_params,
                                      ExecContext::global());

    const double sgm_err =
        badPixelRate(sgm_d, f.gtDisparity, 3.0, 8);
    const double bm_err =
        badPixelRate(bm_d, f.gtDisparity, 3.0, 8);
    EXPECT_LT(sgm_err, bm_err + 1.0);
}

TEST(Sgm, LeftRightCheckInvalidatesOcclusions)
{
    asv::data::SceneConfig cfg;
    cfg.width = 128;
    cfg.height = 48;
    cfg.numObjects = 2;
    auto seq = asv::data::generateSequence(cfg, 1, 34);
    const auto &f = seq.frames[0];

    SgmParams with_check;
    with_check.maxDisparity = 48;
    SgmParams without = with_check;
    without.leftRightCheck = false;

    DisparityMap d1 = sgmCompute(f.left, f.right, with_check,
                                 ExecContext::global());
    DisparityMap d0 = sgmCompute(f.left, f.right, without,
                                 ExecContext::global());

    int64_t invalid1 = 0, invalid0 = 0;
    for (int64_t i = 0; i < d1.size(); ++i) {
        invalid1 += !isValidDisparity(d1.data()[i]);
        invalid0 += !isValidDisparity(d0.data()[i]);
    }
    EXPECT_GT(invalid1, invalid0); // occlusions got filtered
}

TEST(Sgm, OpsModelScalesWithDisparityRange)
{
    SgmParams p16, p64;
    p16.maxDisparity = 16;
    p64.maxDisparity = 64;
    EXPECT_GT(sgmOps(100, 100, p64), 3 * sgmOps(100, 100, p16));
}

// ------------------------------------------------------ caller errors

/** One parameter rule: an edit that breaks it, and the message. */
template <typename Params>
struct Rule
{
    void (*breakIt)(Params &);
    const char *message;
};

const Rule<SgmParams> kSgmRules[] = {
    {[](SgmParams &p) { p.censusRadius = 0; }, "censusRadius"},
    {[](SgmParams &p) { p.censusRadius = 4; }, "censusRadius"},
    {[](SgmParams &p) { p.maxDisparity = -1; }, "maxDisparity"},
    {[](SgmParams &p) { p.p1 = -1; }, "p1 and p2"},
    {[](SgmParams &p) { p.p2 = -1; }, "p1 and p2"},
    {[](SgmParams &p) { p.paths = 6; }, "paths"},
    {[](SgmParams &p) { p.pruneMargin = -1; }, "pruneMargin"},
};

const Rule<BlockMatchingParams> kBmRules[] = {
    {[](BlockMatchingParams &p) { p.blockRadius = -1; }, "blockRadius"},
    {[](BlockMatchingParams &p) { p.maxDisparity = 0; }, "maxDisparity"},
};

TEST(EngineRules, SgmKernelRejectsEachRule)
{
    const ExecContext &ctx = ExecContext::global();
    const image::Image img(24, 8, 0.f);
    const DisparityMap guide(24, 8, 1.f);
    for (const auto &rule : kSgmRules) {
        SgmParams p;
        rule.breakIt(p);
        testref::expectInvalid([&] { checkParams(p); }, rule.message);
        testref::expectInvalid(
            [&] { (void)sgmCompute(img, img, p, ctx); }, rule.message);
        testref::expectInvalid(
            [&] { (void)sgmComputeGuided(img, img, guide, p, ctx); },
            rule.message);
    }
    for (int radius : {0, 4}) {
        testref::expectInvalid(
            [&] { (void)censusTransform(img, radius, ctx); },
            "censusRadius");
    }
    const image::Image narrow(16, 8, 0.f);
    testref::expectInvalid(
        [&] { (void)sgmCompute(img, narrow, SgmParams{}, ctx); },
        "stereo pair size mismatch");
    testref::expectInvalid(
        [&] {
            (void)sgmComputeGuided(img, narrow, guide, SgmParams{}, ctx);
        },
        "stereo pair size mismatch");
}

TEST(EngineRules, BlockMatchingKernelRejectsEachRule)
{
    const ExecContext &ctx = ExecContext::global();
    const image::Image img(24, 8, 0.f);
    const DisparityMap init(24, 8, 1.f);
    for (const auto &rule : kBmRules) {
        BlockMatchingParams p;
        rule.breakIt(p);
        testref::expectInvalid([&] { checkParams(p); }, rule.message);
        testref::expectInvalid(
            [&] { (void)blockMatching(img, img, p, ctx); }, rule.message);
        testref::expectInvalid(
            [&] { (void)refineDisparity(img, img, init, 2, p, ctx); },
            rule.message);
    }
    const BlockMatchingParams ok;
    testref::expectInvalid(
        [&] { (void)refineDisparity(img, img, init, -1, ok, ctx); },
        "refineRadius");
    const image::Image narrow(16, 8, 0.f);
    testref::expectInvalid(
        [&] { (void)blockMatching(img, narrow, ok, ctx); },
        "stereo pair size mismatch");
    testref::expectInvalid(
        [&] { (void)refineDisparity(img, narrow, init, 2, ok, ctx); },
        "stereo pair size mismatch");
    testref::expectInvalid(
        [&] { (void)refineDisparity(img, img, narrow, 2, ok, ctx); },
        "init disparity size mismatch");
}

} // namespace
