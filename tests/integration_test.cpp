/**
 * @file
 * Cross-module integration tests: conservation laws across the
 * transformation/scheduling stack, a fully self-contained stereo
 * system (SGM key frames, no oracle), end-to-end depth, and
 * hardware-model monotonicity.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "core/asv_system.hh"
#include "core/ism.hh"
#include "data/oracle.hh"
#include "data/scene.hh"
#include "deconv/transform.hh"
#include "dnn/zoo.hh"
#include "fn_matcher.hh"
#include "sched/optimizer.hh"
#include "sim/accelerator.hh"
#include "stereo/sgm.hh"

namespace
{

using namespace asv;

TEST(Conservation, TransformedMacsEqualUsefulMacsAcrossZoo)
{
    // For every deconvolution in every zoo network, the analytic
    // zero-MAC accounting (dnn::LayerDesc) and the decomposition
    // (deconv::transformLayer) must agree exactly.
    auto nets = dnn::zoo::stereoNetworks();
    for (const auto &gan : dnn::zoo::ganNetworks())
        nets.push_back(gan);
    int64_t checked = 0;
    for (const auto &net : nets) {
        for (const auto &l : net.layers()) {
            if (l.kind != dnn::LayerKind::Deconv)
                continue;
            const auto t = deconv::transformLayer(l);
            EXPECT_EQ(t.totalMacs(), l.macs() - l.zeroMacs())
                << net.name() << ":" << l.name;
            ++checked;
        }
    }
    EXPECT_GT(checked, 20); // the zoo is deconv-rich
}

TEST(Conservation, ScheduledMacsMatchAnalyticAcrossZoo)
{
    sched::HardwareConfig hw;
    for (const auto &net : dnn::zoo::ganNetworks()) {
        const auto cost =
            sim::simulateNetwork(net, hw, sim::Variant::Ilar);
        int64_t expect = 0;
        for (const auto &l : net.layers()) {
            if (l.kind == dnn::LayerKind::Deconv)
                expect += l.macs() - l.zeroMacs();
            else if (l.kind == dnn::LayerKind::Activation ||
                     l.kind == dnn::LayerKind::Pooling)
                expect += l.macs();
            else
                expect += l.macs();
        }
        EXPECT_EQ(cost.macs, expect) << net.name();
    }
}

TEST(Conservation, TrafficAtLeastCompulsory)
{
    // Any schedule must move at least the compulsory bytes: all
    // weights in, the ofmap out.
    sched::HardwareConfig hw;
    const auto net = dnn::zoo::buildDispNet();
    const auto cost =
        sim::simulateNetwork(net, hw, sim::Variant::Ilar);
    int64_t min_weight = 0, min_ofmap = 0;
    for (const auto &l : net.layers()) {
        if (l.kind == dnn::LayerKind::Activation ||
            l.kind == dnn::LayerKind::Pooling)
            continue;
        min_weight += l.paramCount() * hw.bytesPerElem;
        min_ofmap += l.outActivations() * hw.bytesPerElem;
    }
    EXPECT_GE(cost.traffic.weightBytes, min_weight);
    EXPECT_GE(cost.traffic.ofmapBytes, min_ofmap / 2);
}

TEST(SelfContained, SgmKeyFramesNoOracle)
{
    // The full system with zero ground-truth dependence: SGM
    // provides key-frame disparity, ISM propagates. Proves the
    // pipeline composes from purely classic components.
    data::SceneConfig cfg;
    cfg.width = 160;
    cfg.height = 80;
    cfg.numObjects = 3;
    cfg.maxDisparity = 24.f;
    auto seq = data::generateSequence(cfg, 6, 51);

    core::IsmParams params;
    params.propagationWindow = 3;
    params.maxDisparity = 32;
    core::IsmPipeline ism(
        params, testref::fnMatcher([&](const image::Image &l,
                                       const image::Image &r) {
            stereo::SgmParams sgm;
            sgm.maxDisparity = 32;
            return stereo::sgmCompute(l, r, sgm, ExecContext::global());
        }));

    for (size_t t = 0; t < seq.frames.size(); ++t) {
        const auto &f = seq.frames[t];
        const auto r = ism.processFrame(f.left, f.right);
        const double err = stereo::badPixelRate(
            r.disparity, f.gtDisparity, 3.0, 8);
        EXPECT_LT(err, 20.0) << "frame " << t;
    }
}

TEST(SelfContained, DepthMapFromIsmIsMetric)
{
    data::SceneConfig cfg;
    cfg.width = 128;
    cfg.height = 64;
    cfg.minDisparity = 8.f;
    cfg.maxDisparity = 32.f;
    auto seq = data::generateSequence(cfg, 2, 52);

    size_t idx = 0;
    core::IsmPipeline ism(
        core::IsmParams{},
        testref::fnMatcher([&](const image::Image &, const image::Image &) {
            return seq.frames[idx].gtDisparity;
        }));
    idx = 1;
    const auto r = ism.processFrame(seq.frames[1].left,
                                    seq.frames[1].right);

    // All depths must land in the range implied by the disparity
    // band (Bumblebee2 rig: d in [8, 32] px -> ~1.3-5.1 m).
    stereo::StereoRig rig;
    const double d_min = rig.depthFromDisparity(34.0);
    const double d_max = rig.depthFromDisparity(6.0);
    for (int64_t i = 0; i < r.disparity.size(); ++i) {
        const float d = r.disparity.data()[i];
        if (!stereo::isValidDisparity(d) || d < 1.f)
            continue;
        const double depth = rig.depthFromDisparity(d);
        EXPECT_GT(depth, d_min * 0.8);
        EXPECT_LT(depth, d_max * 1.2);
    }
}

TEST(Monotonicity, BandwidthHelpsMemoryBoundNetworks)
{
    sched::HardwareConfig slow, fast;
    slow.dramGbps = 6.4;
    fast.dramGbps = 51.2;
    const auto net = dnn::zoo::buildGcNet(); // traffic heavy
    const auto c_slow =
        sim::simulateNetwork(net, slow, sim::Variant::Ilar);
    const auto c_fast =
        sim::simulateNetwork(net, fast, sim::Variant::Ilar);
    EXPECT_LT(c_fast.cycles, c_slow.cycles);
}

TEST(Monotonicity, SpeedupBoundedByMacReduction)
{
    // DCO cannot beat the arithmetic it removes plus the memory
    // time it hides: speedup <= dense/useful MAC ratio x small
    // slack, for every stereo network.
    sched::HardwareConfig hw;
    for (const auto &net : dnn::zoo::stereoNetworks()) {
        const auto base =
            sim::simulateNetwork(net, hw, sim::Variant::Baseline);
        const auto ilar =
            sim::simulateNetwork(net, hw, sim::Variant::Ilar);
        const double speedup = double(base.cycles) / ilar.cycles;
        const double mac_ratio = double(base.macs) / ilar.macs;
        EXPECT_LE(speedup, mac_ratio * 1.5) << net.name();
    }
}

TEST(Monotonicity, Pw2SystemSlowerThanPw4)
{
    sched::HardwareConfig hw;
    const auto net = dnn::zoo::buildFlowNetC();
    core::SystemConfig pw2, pw4;
    pw2.ism.propagationWindow = 2;
    pw4.ism.propagationWindow = 4;
    const auto r2 = core::simulateSystem(
        net, hw, core::SystemVariant::IsmDco, pw2);
    const auto r4 = core::simulateSystem(
        net, hw, core::SystemVariant::IsmDco, pw4);
    EXPECT_GT(r2.average.seconds, r4.average.seconds);
    EXPECT_GT(r2.average.energyJ, r4.average.energyJ);
}

TEST(Linearity, ConvIsLinearInInput)
{
    Rng rng(61);
    tensor::Tensor a({2, 6, 6}), b({2, 6, 6}), w({3, 2, 3, 3});
    for (auto &v : a.flat())
        v = float(rng.uniformReal(-1, 1));
    for (auto &v : b.flat())
        v = float(rng.uniformReal(-1, 1));
    for (auto &v : w.flat())
        v = float(rng.uniformReal(-1, 1));

    tensor::Tensor sum({2, 6, 6});
    for (int64_t i = 0; i < sum.size(); ++i)
        sum.flat()[i] = a.flat()[i] + 2.f * b.flat()[i];

    const auto spec = tensor::ConvSpec::uniform(2, 1, 1);
    const auto ca = convNd(a, w, spec, ExecContext::global());
    const auto cb = convNd(b, w, spec, ExecContext::global());
    const auto cs = convNd(sum, w, spec, ExecContext::global());
    tensor::Tensor expect(ca.shape());
    for (int64_t i = 0; i < expect.size(); ++i)
        expect.flat()[i] = ca.flat()[i] + 2.f * cb.flat()[i];
    EXPECT_TRUE(cs.allClose(expect, 1e-4));
}

TEST(Linearity, TransformedDeconvIsLinearToo)
{
    Rng rng(62);
    tensor::Tensor a({1, 5, 5}), w({2, 1, 4, 4});
    for (auto &v : a.flat())
        v = float(rng.uniformReal(-1, 1));
    for (auto &v : w.flat())
        v = float(rng.uniformReal(-1, 1));
    tensor::Tensor a2 = a;
    for (auto &v : a2.flat())
        v *= 3.f;

    const auto spec = tensor::DeconvSpec::uniform(2, 2, 1);
    const auto y =
        deconv::transformedDeconv(a, w, spec, ExecContext::global());
    const auto y2 =
        deconv::transformedDeconv(a2, w, spec, ExecContext::global());
    tensor::Tensor expect(y.shape());
    for (int64_t i = 0; i < expect.size(); ++i)
        expect.flat()[i] = 3.f * y.flat()[i];
    EXPECT_TRUE(y2.allClose(expect, 1e-4));
}

TEST(Regression, QhdBufferFloorIsRespected)
{
    // Sec. 5.2: non-key frame state imposes a ~512 KB floor; the
    // default 1.5 MB configuration comfortably satisfies it.
    sched::HardwareConfig hw;
    const int64_t frame_bytes =
        int64_t(960) * 540 * hw.bytesPerElem;
    EXPECT_GE(hw.bufferBytes, frame_bytes / 2);
}

} // namespace
