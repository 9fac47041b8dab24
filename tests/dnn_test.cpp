/**
 * @file
 * Tests for the DNN IR and the network zoo: shape arithmetic, MAC
 * analytics (including the deconvolution zero-MAC accounting), and
 * the Fig. 3 structural properties of the four stereo DNNs and six
 * GANs.
 */

#include <gtest/gtest.h>

#include "dnn/layer.hh"
#include "dnn/network.hh"
#include "dnn/zoo.hh"
#include "expect_invalid.hh"

namespace
{

using namespace asv::dnn;

TEST(Layer, ConvOutputShape)
{
    LayerDesc l;
    l.name = "c";
    l.kind = LayerKind::Conv;
    l.inChannels = 3;
    l.outChannels = 8;
    l.inSpatial = {32, 64};
    l.kernel = {3, 3};
    l.stride = {2, 2};
    l.pad = {1, 1};
    EXPECT_EQ(l.outSpatial(), (Shape{16, 32}));
    EXPECT_EQ(l.macs(), int64_t(8) * 16 * 32 * 3 * 9);
    EXPECT_EQ(l.paramCount(), int64_t(3) * 8 * 9);
}

TEST(Layer, DeconvOutputShapeDoubles)
{
    LayerDesc l;
    l.name = "d";
    l.kind = LayerKind::Deconv;
    l.inChannels = 8;
    l.outChannels = 4;
    l.inSpatial = {16, 16};
    l.kernel = {4, 4};
    l.stride = {2, 2};
    l.pad = {1, 1};
    EXPECT_EQ(l.outSpatial(), (Shape{32, 32}));
    // Dense MACs count the zero-inserted convolution.
    EXPECT_EQ(l.macs(), int64_t(4) * 32 * 32 * 8 * 16);
    // k4 s2 p1: exactly 3/4 of taps hit inserted zeros.
    EXPECT_EQ(l.zeroMacs() * 4, l.macs() * 3);
}

TEST(Layer, ZeroMacsIsZeroForConv)
{
    LayerDesc l;
    l.name = "c";
    l.kind = LayerKind::Conv;
    l.inChannels = 1;
    l.outChannels = 1;
    l.inSpatial = {8, 8};
    l.kernel = {3, 3};
    l.stride = {1, 1};
    l.pad = {1, 1};
    EXPECT_EQ(l.zeroMacs(), 0);
}

TEST(Builder, TracksRunningShape)
{
    NetworkBuilder b("t", 3, {64, 64});
    b.conv("c1", 16, 3, 2, 1, Stage::FeatureExtraction);
    EXPECT_EQ(b.spatial(), (Shape{32, 32}));
    EXPECT_EQ(b.channels(), 16);
    b.deconv("d1", 8, 4, 2, 1, Stage::DisparityRefinement);
    EXPECT_EQ(b.spatial(), (Shape{64, 64}));
    EXPECT_EQ(b.channels(), 8);
    b.concatChannels(8);
    EXPECT_EQ(b.channels(), 16);
    Network net = b.build();
    EXPECT_EQ(net.numLayers(), 2u);
}

TEST(Builder, To3dWrapsCostVolume)
{
    NetworkBuilder b("t", 3, {64, 64});
    b.conv("c1", 32, 3, 2, 1, Stage::FeatureExtraction);
    b.to3d(64, 48);
    EXPECT_EQ(b.spatial(), (Shape{48, 32, 32}));
    b.conv("c3d", 32, 3, 1, 1, Stage::MatchingOptimization);
    Network net = b.build();
    EXPECT_EQ(net.layers()[1].spatialDims(), 3);
}

TEST(Stats, StageAndKindAccounting)
{
    NetworkBuilder b("t", 3, {32, 32});
    b.conv("c", 8, 3, 1, 1, Stage::FeatureExtraction);
    b.activation("relu");
    b.deconv("d", 4, 4, 2, 1, Stage::DisparityRefinement);
    Network net = b.build();
    const NetworkStats s = net.stats();
    EXPECT_GT(s.convMacs, 0);
    EXPECT_GT(s.deconvMacs, 0);
    EXPECT_GT(s.otherOps, 0);
    EXPECT_EQ(s.totalMacs, s.convMacs + s.deconvMacs);
    EXPECT_GT(s.macsByStage.at(Stage::FeatureExtraction), 0);
    EXPECT_GT(s.macsByStage.at(Stage::DisparityRefinement), 0);
}

class StereoZoo : public ::testing::TestWithParam<const char *>
{};

TEST_P(StereoZoo, StructuralInvariants)
{
    const Network net = zoo::buildByName(GetParam());
    const NetworkStats s = net.stats();

    // Every stereo DNN has all three stages and uses deconvolution
    // for disparity refinement (Sec. 2.2).
    EXPECT_GT(s.macsByStage.at(Stage::FeatureExtraction), 0);
    EXPECT_GT(s.macsByStage.at(Stage::MatchingOptimization), 0);
    EXPECT_GT(s.macsByStage.at(Stage::DisparityRefinement), 0);
    EXPECT_FALSE(net.layersOfKind(LayerKind::Deconv).empty());

    // Fig. 3: deconvolution is 38.2% of ops on average (max ~50%);
    // each network individually lands between 15% and 60%.
    EXPECT_GT(s.deconvFraction(), 0.15) << net.name();
    EXPECT_LT(s.deconvFraction(), 0.60) << net.name();

    // Conv+deconv dominate: "over 99% of execution" maps to ops.
    EXPECT_GT(double(s.totalMacs) / (s.totalMacs + s.otherOps),
              0.97);

    // Stereo DNNs at KITTI scale are tens of GMACs to TMACs.
    EXPECT_GT(s.totalMacs, int64_t(10) * 1000 * 1000 * 1000);
}

INSTANTIATE_TEST_SUITE_P(FourNetworks, StereoZoo,
                         ::testing::Values("DispNet", "FlowNetC",
                                           "GC-Net", "PSMNet"));

TEST(Zoo, AverageDeconvFractionMatchesFig3)
{
    double avg = 0;
    const auto nets = zoo::stereoNetworks();
    for (const auto &n : nets)
        avg += n.stats().deconvFraction() / nets.size();
    // Paper: 38.2% average; accept the reconstruction within a
    // reasonable band.
    EXPECT_GT(avg, 0.28);
    EXPECT_LT(avg, 0.50);
}

TEST(Zoo, ThreeDNetworksUse3dLayers)
{
    for (const char *name : {"GC-Net", "PSMNet"}) {
        const Network net = zoo::buildByName(name);
        bool has_3d_deconv = false;
        for (const auto &l : net.layers())
            if (l.kind == LayerKind::Deconv && l.spatialDims() == 3)
                has_3d_deconv = true;
        EXPECT_TRUE(has_3d_deconv) << name;
    }
    for (const char *name : {"DispNet", "FlowNetC"}) {
        const Network net = zoo::buildByName(name);
        for (const auto &l : net.layers())
            EXPECT_EQ(l.spatialDims(), 2) << name << ":" << l.name;
    }
}

TEST(Zoo, ThreeDDeconvWastesMoreThan2d)
{
    // Sec. 7.3: 8x zero padding in 3-D vs 4x in 2-D.
    const Network gc = zoo::buildGcNet();
    const Network disp = zoo::buildDispNet();
    const NetworkStats sg = gc.stats(), sd = disp.stats();
    const double waste_3d =
        double(sg.deconvZeroMacs) / sg.deconvMacs;
    const double waste_2d =
        double(sd.deconvZeroMacs) / sd.deconvMacs;
    EXPECT_GT(waste_3d, 0.85); // ~7/8
    EXPECT_NEAR(waste_2d, 0.75, 0.02);
}

TEST(Zoo, GansAreDeconvDominated)
{
    for (const auto &net : zoo::ganNetworks()) {
        const NetworkStats s = net.stats();
        EXPECT_FALSE(net.layersOfKind(LayerKind::Deconv).empty())
            << net.name();
        // GAN generators spend most arithmetic in deconvolution
        // (Sec. 7.6) - GP-GAN's big dense bottleneck is the one
        // exception, it still exceeds 25%.
        EXPECT_GT(s.deconvFraction(), 0.25) << net.name();
    }
}

TEST(Zoo, GanZooHasSixNetworksInFig14Order)
{
    const auto gans = zoo::ganNetworks();
    ASSERT_EQ(gans.size(), 6u);
    EXPECT_EQ(gans[0].name(), "DCGAN");
    EXPECT_EQ(gans[1].name(), "GP-GAN");
    EXPECT_EQ(gans[2].name(), "ArtGAN");
    EXPECT_EQ(gans[3].name(), "MAGAN");
    EXPECT_EQ(gans[4].name(), "3D-GAN");
    EXPECT_EQ(gans[5].name(), "DiscoGAN");
}

TEST(Zoo, UnknownNameThrows)
{
    asv::testref::expectInvalid(
        [] { (void)zoo::buildByName("NotANetwork"); }, "unknown network");
}

} // namespace
