/**
 * @file
 * Tests for key-frame sequencing (Sec. 5.2): the static policy the
 * paper evaluates and the adaptive extension, including their
 * integration with the ISM pipeline and batched-layer semantics of
 * the IR (used by the GAN evaluation, Sec. 7.6).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "common/rng.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "data/scene.hh"
#include "deconv/transform.hh"
#include "dnn/zoo.hh"
#include "fn_matcher.hh"
#include "sched/optimizer.hh"

namespace
{

using namespace asv;
using namespace asv::core;

TEST(StaticSequencer, FiresEveryPwFrames)
{
    StaticSequencer seq(3);
    image::Image img(8, 8);
    EXPECT_TRUE(seq.isKeyFrame(img, 0));
    EXPECT_FALSE(seq.isKeyFrame(img, 1));
    EXPECT_FALSE(seq.isKeyFrame(img, 2));
    EXPECT_TRUE(seq.isKeyFrame(img, 3));
    EXPECT_TRUE(seq.isKeyFrame(img, 6));
}

TEST(Sequencers, BadConstructionThrowsInvalidArgument)
{
    EXPECT_THROW(StaticSequencer(0), std::invalid_argument);
    EXPECT_THROW(StaticSequencer(-2), std::invalid_argument);
    EXPECT_THROW(makeStaticSequencer(0), std::invalid_argument);
    EXPECT_THROW(AdaptiveSequencer(6.0, 0), std::invalid_argument);
    EXPECT_THROW(AdaptiveSequencer(0.0, 4), std::invalid_argument);
    EXPECT_THROW(AdaptiveSequencer(-1.0, 4), std::invalid_argument);
    EXPECT_THROW(AdaptiveSequencer(std::nan(""), 4),
                 std::invalid_argument);
    EXPECT_THROW(makeAdaptiveSequencer(6.0, -1), std::invalid_argument);
}

TEST(AdaptiveSequencer, StaticSceneStretchesWindow)
{
    AdaptiveSequencer seq(/*threshold=*/4.0, /*max_window=*/8);
    image::Image img(16, 16, 100.f);
    EXPECT_TRUE(seq.isKeyFrame(img, 0));
    // Identical frames: no key frame until the max window (a key
    // every 8 frames means frames 1..7 propagate).
    for (int t = 1; t < 8; ++t)
        EXPECT_FALSE(seq.isKeyFrame(img, t)) << "frame " << t;
    EXPECT_TRUE(seq.isKeyFrame(img, 8)); // max window bound
}

TEST(AdaptiveSequencer, SceneChangeTriggersKeyFrame)
{
    AdaptiveSequencer seq(4.0, 100);
    image::Image a(16, 16, 100.f);
    image::Image b(16, 16, 180.f); // large change
    EXPECT_TRUE(seq.isKeyFrame(a, 0));
    EXPECT_FALSE(seq.isKeyFrame(a, 1));
    EXPECT_TRUE(seq.isKeyFrame(b, 2));
    // After re-keying on b, staying at b is quiet again.
    EXPECT_FALSE(seq.isKeyFrame(b, 3));
}

TEST(AdaptiveSequencer, KeyFrameForcedResyncsReference)
{
    // When the pipeline promotes a frame the sequencer rejected
    // (e.g. after a resolution change or a failed key inference),
    // the notification must re-anchor change detection on the frame
    // that actually ran as the key.
    AdaptiveSequencer seq(4.0, 100);
    image::Image a(16, 16, 100.f);
    image::Image b(16, 16, 180.f);
    EXPECT_TRUE(seq.isKeyFrame(a, 0));
    EXPECT_FALSE(seq.isKeyFrame(a, 1));
    seq.keyFrameForced(b);
    EXPECT_EQ(seq.framesSinceKey(), 0);
    // b is the reference now: staying at b is quiet, a is a change.
    EXPECT_FALSE(seq.isKeyFrame(b, 2));
    EXPECT_TRUE(seq.isKeyFrame(a, 3));
}

TEST(StaticSequencer, KeyFrameForcedIsANoOp)
{
    // The paper's static policy is a pure function of the frame
    // index; forced key frames must not shift its cadence.
    StaticSequencer seq(3);
    image::Image img(8, 8);
    EXPECT_TRUE(seq.isKeyFrame(img, 0));
    EXPECT_FALSE(seq.isKeyFrame(img, 1));
    seq.keyFrameForced(img);
    EXPECT_FALSE(seq.isKeyFrame(img, 2));
    EXPECT_TRUE(seq.isKeyFrame(img, 3));
}

TEST(AdaptiveSequencer, ResetForgetsReference)
{
    AdaptiveSequencer seq(4.0, 100);
    image::Image a(16, 16, 100.f);
    EXPECT_TRUE(seq.isKeyFrame(a, 0));
    seq.reset();
    EXPECT_TRUE(seq.isKeyFrame(a, 0));
}

TEST(IsmWithAdaptiveSequencer, FewerKeysOnSlowScenes)
{
    // A nearly static scene should need fewer key frames under the
    // adaptive policy than PW-2 static, at comparable accuracy.
    data::SceneConfig cfg;
    cfg.width = 128;
    cfg.height = 64;
    cfg.maxSpeed = 0.3f; // slow scene
    auto seq = data::generateSequence(cfg, 10, 21);

    size_t idx = 0;
    const auto key_fn = testref::fnMatcher(
        [&](const image::Image &, const image::Image &) {
            return seq.frames[idx].gtDisparity;
        });

    IsmParams params;
    params.propagationWindow = 2;
    IsmPipeline static_ism(params, key_fn);
    IsmPipeline adaptive_ism(params, key_fn,
                             makeAdaptiveSequencer(6.0, 16));

    int static_keys = 0, adaptive_keys = 0;
    double adaptive_err = 0;
    for (idx = 0; idx < seq.frames.size(); ++idx) {
        const auto &f = seq.frames[idx];
        static_keys +=
            static_ism.processFrame(f.left, f.right).keyFrame;
        const auto r = adaptive_ism.processFrame(f.left, f.right);
        adaptive_keys += r.keyFrame;
        adaptive_err += stereo::badPixelRate(
                            r.disparity, f.gtDisparity, 3.0, 6) /
                        double(seq.frames.size());
    }
    EXPECT_LT(adaptive_keys, static_keys);
    EXPECT_LT(adaptive_err, 10.0);
}

TEST(IsmMotionEstimator, BlockMatchingWorksButCoarser)
{
    // The Sec. 3.3 design decision, measured: block-granular motion
    // still runs end to end, but dense Farnebäck propagation is at
    // least as accurate on scenes with several moving objects.
    data::SceneConfig cfg;
    cfg.width = 160;
    cfg.height = 80;
    cfg.numObjects = 5;
    auto seq = data::generateSequence(cfg, 6, 22);

    auto run = [&](MotionEstimator me) {
        Rng rng(5);
        size_t idx = 0;
        IsmParams params;
        params.propagationWindow = 6; // stress propagation
        params.motion = me;
        IsmPipeline ism(
            params,
            testref::fnMatcher([&](const image::Image &,
                                   const image::Image &) {
                return seq.frames[idx].gtDisparity;
            }));
        double err = 0;
        for (idx = 0; idx < seq.frames.size(); ++idx) {
            const auto &f = seq.frames[idx];
            const auto r = ism.processFrame(f.left, f.right);
            err += stereo::badPixelRate(r.disparity,
                                        f.gtDisparity, 3.0, 6) /
                   double(seq.frames.size());
        }
        return err;
    };

    const double farneback = run(MotionEstimator::Farneback);
    const double block = run(MotionEstimator::BlockMatching);
    EXPECT_LT(farneback, block + 2.0);
    EXPECT_LT(block, 40.0); // functional, just coarser
}

TEST(IsmPostprocess, MedianDoesNotHurt)
{
    data::SceneConfig cfg;
    cfg.width = 128;
    cfg.height = 64;
    auto seq = data::generateSequence(cfg, 6, 23);
    auto run = [&](bool median) {
        size_t idx = 0;
        IsmParams params;
        params.propagationWindow = 3;
        params.medianPostprocess = median;
        IsmPipeline ism(
            params,
            testref::fnMatcher([&](const image::Image &,
                                   const image::Image &) {
                return seq.frames[idx].gtDisparity;
            }));
        double err = 0;
        for (idx = 0; idx < seq.frames.size(); ++idx) {
            const auto &f = seq.frames[idx];
            err += stereo::badPixelRate(
                       ism.processFrame(f.left, f.right).disparity,
                       f.gtDisparity, 3.0, 6) /
                   double(seq.frames.size());
        }
        return err;
    };
    EXPECT_LE(run(true), run(false) + 0.5);
}

TEST(Batch, ScalesActivationsNotWeights)
{
    dnn::LayerDesc l;
    l.name = "b";
    l.kind = dnn::LayerKind::Deconv;
    l.inChannels = 8;
    l.outChannels = 4;
    l.inSpatial = {8, 8};
    l.kernel = {4, 4};
    l.stride = {2, 2};
    l.pad = {1, 1};
    const int64_t macs1 = l.macs();
    const int64_t act1 = l.outActivations();
    const int64_t params1 = l.paramCount();
    l.batch = 16;
    EXPECT_EQ(l.macs(), 16 * macs1);
    EXPECT_EQ(l.outActivations(), 16 * act1);
    EXPECT_EQ(l.paramCount(), params1);
    EXPECT_EQ(l.zeroMacs() * 4, l.macs() * 3); // ratio unchanged
}

TEST(Batch, AmortizesWeightTraffic)
{
    // Batched execution must not multiply weight DRAM traffic.
    dnn::LayerDesc l;
    l.name = "b";
    l.kind = dnn::LayerKind::Deconv;
    l.inChannels = 256;
    l.outChannels = 128;
    l.inSpatial = {8, 8};
    l.kernel = {4, 4};
    l.stride = {2, 2};
    l.pad = {1, 1};

    sched::HardwareConfig hw;
    const auto s1 = sched::scheduleTransformedLayer(
        deconv::transformLayer(l), hw, sched::OptMode::Ilar);
    l.batch = 16;
    const auto s16 = sched::scheduleTransformedLayer(
        deconv::transformLayer(l), hw, sched::OptMode::Ilar);
    EXPECT_EQ(s16.macs, 16 * s1.macs);
    EXPECT_LT(s16.traffic.weightBytes,
              4 * s1.traffic.weightBytes);
}

TEST(Batch, GanZooDefaultsToBatch16)
{
    const auto gans = dnn::zoo::ganNetworks();
    for (const auto &net : gans)
        for (const auto &l : net.layers())
            EXPECT_EQ(l.batch, 16) << net.name() << ":" << l.name;
    const auto single = dnn::zoo::buildDcgan(1);
    EXPECT_EQ(single.layers()[0].batch, 1);
}

} // namespace
