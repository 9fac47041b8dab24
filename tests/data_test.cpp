/**
 * @file
 * Tests for the synthetic dataset generator and the DNN oracle:
 * photometric left/right consistency, ground-truth validity under
 * occlusion, motion consistency across frames, and oracle error
 * calibration.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "data/oracle.hh"
#include "data/scene.hh"
#include "expect_invalid.hh"
#include "stereo/disparity.hh"

namespace
{

using namespace asv;
using namespace asv::data;

TEST(Scene, LeftRightPhotometricConsistency)
{
    SceneConfig cfg;
    cfg.photometricNoise = 0.f; // exact check
    auto seq = generateSequence(cfg, 1, 10);
    const StereoFrame &f = seq.frames[0];

    // Every valid ground-truth pixel must match its right-image
    // correspondence: left(x, y) == right(x - d, y). Sub-pixel
    // bilinear phases allow a residual at texture edges; the check
    // bounds the mean and the fraction of large mismatches.
    int64_t checked = 0, large = 0;
    double sum_diff = 0;
    for (int y = 0; y < f.left.height(); ++y) {
        for (int x = 0; x < f.left.width(); ++x) {
            const float d = f.gtDisparity.at(x, y);
            if (!stereo::isValidDisparity(d))
                continue;
            const float xr = x - d;
            if (xr < 1 || xr > f.left.width() - 2)
                continue;
            const double diff =
                std::abs(f.left.at(x, y) -
                         f.right.sample(xr, float(y)));
            sum_diff += diff;
            large += diff > 20.0;
            ++checked;
        }
    }
    EXPECT_GT(checked, f.left.size() / 2);
    EXPECT_LT(sum_diff / checked, 3.0);
    EXPECT_LT(double(large) / checked, 0.02);
}

TEST(Scene, OcclusionsAreMarkedInvalid)
{
    SceneConfig cfg;
    cfg.numObjects = 8; // plenty of occluders
    cfg.photometricNoise = 0.f;
    auto seq = generateSequence(cfg, 1, 11);
    const StereoFrame &f = seq.frames[0];
    int64_t invalid = 0;
    for (int64_t i = 0; i < f.gtDisparity.size(); ++i)
        invalid +=
            !stereo::isValidDisparity(f.gtDisparity.data()[i]);
    // Occlusion bands must exist but not dominate.
    EXPECT_GT(invalid, 0);
    EXPECT_LT(invalid, f.gtDisparity.size() / 4);
}

TEST(Scene, DisparitiesWithinConfiguredRange)
{
    SceneConfig cfg;
    cfg.minDisparity = 5.f;
    cfg.maxDisparity = 30.f;
    auto seq = generateSequence(cfg, 3, 12);
    for (const auto &f : seq.frames) {
        for (int64_t i = 0; i < f.gtDisparity.size(); ++i) {
            const float d = f.gtDisparity.data()[i];
            if (!stereo::isValidDisparity(d))
                continue;
            EXPECT_GE(d, cfg.minDisparity - 1e-3);
            EXPECT_LE(d, cfg.maxDisparity + 1e-3);
        }
    }
}

TEST(Scene, GroundTruthFlowPredictsNextFrame)
{
    SceneConfig cfg;
    cfg.photometricNoise = 0.f;
    cfg.numObjects = 3;
    auto seq = generateSequence(cfg, 2, 13);
    const StereoFrame &f0 = seq.frames[0];
    const StereoFrame &f1 = seq.frames[1];

    // For pixels whose flow stays in frame and that stay visible,
    // left1(x + u, y + v) == left0(x, y).
    double sum = 0;
    int64_t n = 0;
    for (int y = 8; y < f0.left.height() - 8; ++y) {
        for (int x = 8; x < f0.left.width() - 8; ++x) {
            const float u = f0.gtFlowLeft.u.at(x, y);
            const float v = f0.gtFlowLeft.v.at(x, y);
            const float val =
                f1.left.sample(x + u, y + v);
            sum += std::abs(val - f0.left.at(x, y));
            ++n;
        }
    }
    // Most pixels match exactly; occlusion edges contribute a
    // small average residual.
    EXPECT_LT(sum / n, 12.0);
}

TEST(Scene, KittiProfileHasStripedGround)
{
    auto ds = kittiDataset(2, 192, 96, 5);
    ASSERT_EQ(ds.size(), 2u);
    ASSERT_EQ(ds[0].frames.size(), 2u);
    const auto &gt = ds[0].frames[0].gtDisparity;
    // Bottom rows (near road) have larger disparity than top rows.
    double top = 0, bottom = 0;
    int64_t nt = 0, nb = 0;
    for (int x = 0; x < gt.width(); ++x) {
        for (int y = 0; y < 10; ++y) {
            if (stereo::isValidDisparity(gt.at(x, y))) {
                top += gt.at(x, y);
                ++nt;
            }
        }
        for (int y = gt.height() - 10; y < gt.height(); ++y) {
            if (stereo::isValidDisparity(gt.at(x, y))) {
                bottom += gt.at(x, y);
                ++nb;
            }
        }
    }
    ASSERT_GT(nt, 0);
    ASSERT_GT(nb, 0);
    EXPECT_GT(bottom / nb, top / nt + 2.0);
}

TEST(Scene, DatasetsHaveConfiguredShape)
{
    auto sf = sceneFlowDataset(3, 4, 128, 64, 9);
    EXPECT_EQ(sf.size(), 3u);
    EXPECT_EQ(sf[0].frames.size(), 4u);
    EXPECT_EQ(sf[0].frames[0].left.width(), 128);

    auto kitti = kittiDataset(3, 128, 64, 9);
    EXPECT_EQ(kitti.size(), 3u);
    EXPECT_EQ(kitti[0].frames.size(), 2u);
}

TEST(Scene, MalformedConfigThrows)
{
    Rng rng(1);
    SceneConfig small;
    small.width = 31;
    testref::expectInvalid([&] { (void)Scene(small, rng); },
                           "scene too small");
    SceneConfig empty;
    empty.minDisparity = empty.maxDisparity;
    testref::expectInvalid([&] { (void)Scene(empty, rng); },
                           "disparity range is empty");
}

TEST(Scene, DeterministicForFixedSeed)
{
    SceneConfig cfg;
    auto a = generateSequence(cfg, 2, 77);
    auto b = generateSequence(cfg, 2, 77);
    EXPECT_DOUBLE_EQ(
        a.frames[1].left.maxAbsDiff(b.frames[1].left), 0.0);
    auto c = generateSequence(cfg, 2, 78);
    EXPECT_GT(a.frames[1].left.maxAbsDiff(c.frames[1].left), 1.0);
}

class OracleCalibration
    : public ::testing::TestWithParam<const char *>
{};

TEST_P(OracleCalibration, ThreePixelErrorMatchesTarget)
{
    const OracleModel model = OracleModel::forNetwork(GetParam());

    SceneConfig cfg;
    cfg.width = 320;
    cfg.height = 160;
    auto seq = generateSequence(cfg, 1, 99);
    const auto &gt = seq.frames[0].gtDisparity;

    Rng rng(55);
    double err_sum = 0;
    const int trials = 8;
    for (int i = 0; i < trials; ++i) {
        const auto pred = oracleInference(gt, model, rng);
        err_sum += stereo::badPixelRate(pred, gt, 3.0);
    }
    const double err = err_sum / trials;
    // Within 35% relative of the published network error rate.
    EXPECT_GT(err, 100.0 * model.outlierRate * 0.65);
    EXPECT_LT(err, 100.0 * model.outlierRate * 1.35);
}

INSTANTIATE_TEST_SUITE_P(FourNetworks, OracleCalibration,
                         ::testing::Values("DispNet", "FlowNetC",
                                           "GC-Net", "PSMNet"));

TEST(Oracle, PredictsEverywhereIncludingOcclusions)
{
    SceneConfig cfg;
    auto seq = generateSequence(cfg, 1, 14);
    Rng rng(3);
    const auto pred = oracleInference(
        seq.frames[0].gtDisparity,
        OracleModel::forNetwork("PSMNet"), rng);
    for (int64_t i = 0; i < pred.size(); ++i)
        EXPECT_TRUE(stereo::isValidDisparity(pred.data()[i]));
}

TEST(Oracle, UnknownNetworkThrows)
{
    testref::expectInvalid([] { (void)OracleModel::forNetwork("Nope"); },
                           "no oracle calibration");
}

} // namespace
