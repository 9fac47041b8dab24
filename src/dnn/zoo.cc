#include "dnn/zoo.hh"

#include <stdexcept>

#include "common/logging.hh"

namespace asv::dnn::zoo
{

namespace
{
constexpr auto FE = Stage::FeatureExtraction;
constexpr auto MO = Stage::MatchingOptimization;
constexpr auto DR = Stage::DisparityRefinement;
} // namespace

/**
 * FlowNetC (Fischer et al., ICCV 2015), disparity variant.
 *
 * Siamese trunk conv1..conv3 runs once per image; expressed as chain
 * layers with doubled output channels (MAC-exact). The correlation
 * layer compares 441 displacement candidates (21 x 21 neighborhood)
 * of 256-channel features. The refinement stack interleaves 4 x 4
 * stride-2 deconvolutions with flow-prediction concats.
 */
Network
buildFlowNetC(const StereoInput &in)
{
    NetworkBuilder b("FlowNetC", 6, {in.height, in.width});
    // Siamese pair: 2 x (3->64, 64->128, 128->256).
    b.conv("conv1_pair", 128, 7, 2, 3, FE).activation("relu1");
    b.setChannels(64);
    b.conv("conv2_pair", 256, 5, 2, 2, FE).activation("relu2");
    b.setChannels(128);
    b.conv("conv3_pair", 512, 5, 2, 2, FE).activation("relu3");

    // Correlation over 21 x 21 displacement neighborhood.
    b.setChannels(256);
    b.costVolume("corr", 441);
    // conv_redir on one trunk's features.
    b.setChannels(256);
    b.conv("conv_redir", 32, 1, 1, 0, MO);

    b.setChannels(441 + 32);
    b.conv("conv3_1", 256, 3, 1, 1, MO).activation("relu3_1");
    b.conv("conv4", 512, 3, 2, 1, MO).activation("relu4");
    b.conv("conv4_1", 512, 3, 1, 1, MO).activation("relu4_1");
    b.conv("conv5", 512, 3, 2, 1, MO).activation("relu5");
    b.conv("conv5_1", 512, 3, 1, 1, MO).activation("relu5_1");
    b.conv("conv6", 1024, 3, 2, 1, MO).activation("relu6");

    // Refinement: deconv + concat(skip, upsampled prediction).
    b.conv("pr6", 1, 3, 1, 1, DR);
    b.setChannels(1024);
    b.deconv("deconv5", 512, 4, 2, 1, DR).activation("relu_d5");
    b.concatChannels(512 + 1); // conv5_1 skip + pr6 upsample
    b.deconv("deconv4", 256, 4, 2, 1, DR).activation("relu_d4");
    b.concatChannels(512 + 1); // conv4_1 skip + pr5 upsample
    b.deconv("deconv3", 128, 4, 2, 1, DR).activation("relu_d3");
    b.concatChannels(256 + 1); // conv3_1 skip + pr4 upsample
    b.deconv("deconv2", 64, 4, 2, 1, DR).activation("relu_d2");
    b.concatChannels(128 + 1); // conv2 skip + pr3 upsample
    b.conv("pr2", 1, 3, 1, 1, DR);
    return b.build();
}

/**
 * DispNet (DispNetS, Mayer et al., CVPR 2016).
 *
 * Contractive part conv1..conv6b on the stacked stereo pair, then an
 * expanding part of five 4 x 4 stride-2 deconvolutions, each followed
 * by an iconv on the concatenation of the upsampled features, the
 * matching-scale encoder skip, and the upsampled disparity
 * prediction. Intermediate prediction convs (<0.1% of MACs) are
 * folded into the +1 concat channels.
 */
Network
buildDispNet(const StereoInput &in)
{
    NetworkBuilder b("DispNet", 6, {in.height, in.width});
    b.conv("conv1", 64, 7, 2, 3, FE).activation("relu1");
    b.conv("conv2", 128, 5, 2, 2, FE).activation("relu2");
    b.conv("conv3a", 256, 5, 2, 2, MO).activation("relu3a");
    b.conv("conv3b", 256, 3, 1, 1, MO).activation("relu3b");
    b.conv("conv4a", 512, 3, 2, 1, MO).activation("relu4a");
    b.conv("conv4b", 512, 3, 1, 1, MO).activation("relu4b");
    b.conv("conv5a", 512, 3, 2, 1, MO).activation("relu5a");
    b.conv("conv5b", 512, 3, 1, 1, MO).activation("relu5b");
    b.conv("conv6a", 1024, 3, 2, 1, MO).activation("relu6a");
    b.conv("conv6b", 1024, 3, 1, 1, MO).activation("relu6b");

    b.deconv("upconv5", 512, 4, 2, 1, DR).activation("relu_u5");
    b.concatChannels(512 + 1); // conv5b skip + pr6 upsample
    b.conv("iconv5", 512, 3, 1, 1, DR);
    b.deconv("upconv4", 256, 4, 2, 1, DR).activation("relu_u4");
    b.concatChannels(512 + 1); // conv4b skip + pr5 upsample
    b.conv("iconv4", 256, 3, 1, 1, DR);
    b.deconv("upconv3", 128, 4, 2, 1, DR).activation("relu_u3");
    b.concatChannels(256 + 1); // conv3b skip + pr4 upsample
    b.conv("iconv3", 128, 3, 1, 1, DR);
    b.deconv("upconv2", 64, 4, 2, 1, DR).activation("relu_u2");
    b.concatChannels(128 + 1); // conv2 skip + pr3 upsample
    b.conv("iconv2", 64, 3, 1, 1, DR);
    b.deconv("upconv1", 32, 4, 2, 1, DR).activation("relu_u1");
    b.concatChannels(64 + 1); // conv1 skip + pr2 upsample
    b.conv("iconv1", 32, 3, 1, 1, DR);
    b.conv("pr1", 1, 3, 1, 1, DR);
    return b.build();
}

/**
 * GC-Net (Kendall et al., ICCV 2017).
 *
 * Siamese unary features (18 conv layers at half resolution, eight
 * residual blocks), a concatenation cost volume of 64 channels over
 * D/2 disparity planes (construction is data movement, charged as
 * zero arithmetic), a 4-scale 3-D convolution encoder, and five
 * 3 x 3 x 3 stride-2 3-D deconvolutions back to the full-resolution
 * volume. 3-D deconvolution wastes 8x on inserted zeros, which is why
 * GC-Net benefits most from the transformation (Sec. 7.3).
 */
Network
buildGcNet(const StereoInput &in)
{
    NetworkBuilder b("GC-Net", 3, {in.height, in.width});
    // Siamese unary trunk: 2 x (5x5 s2 3->32, then 16 convs 32->32,
    // then final 3x3 32->32).
    b.conv("unary_conv1_pair", 64, 5, 2, 2, FE).activation("relu_u1");
    for (int i = 0; i < 16; ++i) {
        b.setChannels(64);
        b.conv("unary_res" + std::to_string(i) + "_pair", 64, 3, 1, 1,
               FE);
        b.activation("relu_res" + std::to_string(i));
    }
    b.setChannels(64);
    b.conv("unary_out_pair", 64, 3, 1, 1, FE);

    // Cost volume: concat left/right unaries over D/2 planes.
    b.to3d(64, in.maxDisparity / 2);

    b.conv("3d_conv19", 32, 3, 1, 1, MO).activation("relu19");
    b.conv("3d_conv20", 32, 3, 1, 1, MO).activation("relu20");
    b.setChannels(64); // branch reads the raw cost volume
    b.conv("3d_conv21", 64, 3, 2, 1, MO).activation("relu21");
    b.conv("3d_conv22", 64, 3, 1, 1, MO).activation("relu22");
    b.conv("3d_conv23", 64, 3, 1, 1, MO).activation("relu23");
    b.conv("3d_conv24", 64, 3, 2, 1, MO).activation("relu24");
    b.conv("3d_conv25", 64, 3, 1, 1, MO).activation("relu25");
    b.conv("3d_conv26", 64, 3, 1, 1, MO).activation("relu26");
    b.conv("3d_conv27", 64, 3, 2, 1, MO).activation("relu27");
    b.conv("3d_conv28", 64, 3, 1, 1, MO).activation("relu28");
    b.conv("3d_conv29", 64, 3, 1, 1, MO).activation("relu29");
    b.conv("3d_conv30", 128, 3, 2, 1, MO).activation("relu30");
    b.conv("3d_conv31", 128, 3, 1, 1, MO).activation("relu31");
    b.conv("3d_conv32", 128, 3, 1, 1, MO).activation("relu32");

    b.deconv("3d_deconv33", 64, 3, 2, 1, DR).activation("relu33");
    b.deconv("3d_deconv34", 64, 3, 2, 1, DR).activation("relu34");
    b.deconv("3d_deconv35", 64, 3, 2, 1, DR).activation("relu35");
    b.deconv("3d_deconv36", 32, 3, 2, 1, DR).activation("relu36");
    b.deconv("3d_deconv37", 1, 3, 2, 1, DR);
    b.activation("soft_argmin");
    return b.build();
}

/**
 * PSMNet (Chang & Chen, CVPR 2018), stacked-hourglass variant.
 *
 * Quarter-resolution siamese feature extractor (CNN + SPP, expressed
 * chain-wise with doubled channels), a 64-channel concat cost volume
 * over D/4 planes, and three hourglass 3-D CNNs. Hourglass stride-2
 * 3-D deconvolutions are the DR stage; final trilinear upsampling is
 * charged as a point-wise op.
 */
Network
buildPsmNet(const StereoInput &in)
{
    NetworkBuilder b("PSMNet", 3, {in.height, in.width});
    // Siamese CNN trunk (x2 via doubled channels).
    b.conv("conv0_1_pair", 64, 3, 2, 1, FE).activation("relu0_1");
    b.setChannels(32);
    b.conv("conv0_2_pair", 64, 3, 1, 1, FE).activation("relu0_2");
    b.setChannels(32);
    b.conv("conv0_3_pair", 64, 3, 1, 1, FE).activation("relu0_3");
    // layer1: 3 basic blocks of 2 convs, 32 ch, half res.
    for (int i = 0; i < 6; ++i) {
        b.setChannels(32);
        b.conv("layer1_" + std::to_string(i) + "_pair", 64, 3, 1, 1,
               FE);
        b.activation("relu_l1_" + std::to_string(i));
    }
    // layer2: 16 basic blocks, 64 ch, stride 2 on the first.
    b.setChannels(32);
    b.conv("layer2_0_pair", 128, 3, 2, 1, FE).activation("relu_l2_0");
    for (int i = 1; i < 32; ++i) {
        b.setChannels(64);
        b.conv("layer2_" + std::to_string(i) + "_pair", 128, 3, 1, 1,
               FE);
        b.activation("relu_l2_" + std::to_string(i));
    }
    // layer3/layer4: 3 blocks each, 128 ch (dilated, same res).
    b.setChannels(64);
    b.conv("layer3_0_pair", 256, 3, 1, 1, FE).activation("relu_l3_0");
    for (int i = 1; i < 6; ++i) {
        b.setChannels(128);
        b.conv("layer3_" + std::to_string(i) + "_pair", 256, 3, 1, 1,
               FE);
        b.activation("relu_l3_" + std::to_string(i));
    }
    for (int i = 0; i < 6; ++i) {
        b.setChannels(128);
        b.conv("layer4_" + std::to_string(i) + "_pair", 256, 3, 1, 1,
               FE);
        b.activation("relu_l4_" + std::to_string(i));
    }
    // SPP: four pooled 1x1 conv branches + fusion.
    for (int branch = 0; branch < 4; ++branch) {
        b.setChannels(128);
        b.conv("spp_branch" + std::to_string(branch) + "_pair", 64, 1,
               1, 0, FE);
    }
    b.setChannels(320); // concat(conv2_16, conv4_3, 4 x 32)
    b.conv("spp_fusion_pair", 256, 3, 1, 1, FE);
    b.setChannels(128);
    b.conv("spp_lastconv_pair", 64, 1, 1, 0, FE);

    // Cost volume over D/4 planes, 64 = 2 x 32 channels.
    b.setChannels(32);
    b.to3d(64, in.maxDisparity / 4);

    b.conv("3dconv0_0", 32, 3, 1, 1, MO).activation("relu3d_0_0");
    b.conv("3dconv0_1", 32, 3, 1, 1, MO).activation("relu3d_0_1");
    b.conv("3dconv1_0", 32, 3, 1, 1, MO).activation("relu3d_1_0");
    b.conv("3dconv1_1", 32, 3, 1, 1, MO).activation("relu3d_1_1");

    for (int hg = 0; hg < 3; ++hg) {
        const std::string p = "hg" + std::to_string(hg) + "_";
        b.setChannels(32);
        b.conv(p + "conv1", 64, 3, 2, 1, MO).activation(p + "r1");
        b.conv(p + "conv2", 64, 3, 1, 1, MO).activation(p + "r2");
        b.conv(p + "conv3", 64, 3, 2, 1, MO).activation(p + "r3");
        b.conv(p + "conv4", 64, 3, 1, 1, MO).activation(p + "r4");
        b.deconv(p + "deconv5", 64, 4, 2, 1, DR)
            .activation(p + "r5");
        b.deconv(p + "deconv6", 32, 4, 2, 1, DR)
            .activation(p + "r6");
        // Classification branch of this hourglass.
        b.conv(p + "cls1", 32, 3, 1, 1, DR).activation(p + "rc");
        b.conv(p + "cls2", 1, 3, 1, 1, DR);
        b.setChannels(32);
    }
    b.activation("trilinear_upsample_softmax");
    return b.build();
}

/**
 * DCGAN generator (Radford et al. 2016): z=100 -> 4x4x1024 dense,
 * then four 4x4 stride-2 deconvolutions to a 64x64 RGB image.
 */
Network
buildDcgan(int64_t batch)
{
    NetworkBuilder b("DCGAN", 1024, {4, 4});
    b.withBatch(batch);
    b.deconv("deconv1", 512, 4, 2, 1, DR).activation("relu1");
    b.deconv("deconv2", 256, 4, 2, 1, DR).activation("relu2");
    b.deconv("deconv3", 128, 4, 2, 1, DR).activation("relu3");
    b.deconv("deconv4", 3, 4, 2, 1, DR).activation("tanh");
    return b.build();
}

/**
 * GP-GAN blending generator (Wu et al. 2017): encoder-decoder with a
 * dense bottleneck; four 4x4 stride-2 deconvolutions decode 64x64.
 */
Network
buildGpGan(int64_t batch)
{
    NetworkBuilder b("GP-GAN", 3, {64, 64});
    b.withBatch(batch);
    b.conv("enc1", 64, 4, 2, 1, FE).activation("lrelu1");
    b.conv("enc2", 128, 4, 2, 1, FE).activation("lrelu2");
    b.conv("enc3", 256, 4, 2, 1, FE).activation("lrelu3");
    b.conv("enc4", 512, 4, 2, 1, FE).activation("lrelu4");
    b.conv("bottleneck", 4000, 4, 1, 0, FE).activation("lrelu5");
    b.deconv("dec0", 512, 4, 1, 0, DR).activation("relu0");
    b.deconv("dec1", 256, 4, 2, 1, DR).activation("relu1");
    b.deconv("dec2", 128, 4, 2, 1, DR).activation("relu2");
    b.deconv("dec3", 64, 4, 2, 1, DR).activation("relu3");
    b.deconv("dec4", 3, 4, 2, 1, DR).activation("tanh");
    return b.build();
}

/**
 * ArtGAN generator (Tan et al. 2017): dense to 4x4x1024, four 4x4
 * stride-2 deconvolutions to 64x64.
 */
Network
buildArtGan(int64_t batch)
{
    NetworkBuilder b("ArtGAN", 1024, {4, 4});
    b.withBatch(batch);
    b.deconv("deconv1", 512, 4, 2, 1, DR).activation("relu1");
    b.deconv("deconv2", 256, 4, 2, 1, DR).activation("relu2");
    b.deconv("deconv3", 128, 4, 2, 1, DR).activation("relu3");
    b.deconv("deconv4", 64, 4, 2, 1, DR).activation("relu4");
    b.conv("out_conv", 3, 3, 1, 1, DR).activation("tanh");
    return b.build();
}

/**
 * MAGAN generator (Wang et al. 2017): DCGAN-shaped, 512-channel base.
 */
Network
buildMagan(int64_t batch)
{
    NetworkBuilder b("MAGAN", 512, {4, 4});
    b.withBatch(batch);
    b.deconv("deconv1", 256, 4, 2, 1, DR).activation("relu1");
    b.deconv("deconv2", 128, 4, 2, 1, DR).activation("relu2");
    b.deconv("deconv3", 64, 4, 2, 1, DR).activation("relu3");
    b.deconv("deconv4", 3, 4, 2, 1, DR).activation("tanh");
    return b.build();
}

/**
 * 3D-GAN generator (Wu et al. 2016): z=200 -> 4^3 x 512 volume, four
 * 4x4x4 stride-2 3-D deconvolutions to a 64^3 occupancy grid. The 3-D
 * deconvolutions expose 8 sub-kernels under the transformation.
 */
Network
build3dGan(int64_t batch)
{
    NetworkBuilder b("3D-GAN", 512, {4, 4, 4});
    b.withBatch(batch);
    b.deconv("deconv1", 256, 4, 2, 1, DR).activation("relu1");
    b.deconv("deconv2", 128, 4, 2, 1, DR).activation("relu2");
    b.deconv("deconv3", 64, 4, 2, 1, DR).activation("relu3");
    b.deconv("deconv4", 1, 4, 2, 1, DR).activation("sigmoid");
    return b.build();
}

/**
 * DiscoGAN generator (Kim et al. 2017): 64x64 image-to-image
 * encoder-decoder, four conv + four deconv layers.
 */
Network
buildDiscoGan(int64_t batch)
{
    NetworkBuilder b("DiscoGAN", 3, {64, 64});
    b.withBatch(batch);
    b.conv("enc1", 64, 4, 2, 1, FE).activation("lrelu1");
    b.conv("enc2", 128, 4, 2, 1, FE).activation("lrelu2");
    b.conv("enc3", 256, 4, 2, 1, FE).activation("lrelu3");
    b.conv("enc4", 512, 4, 2, 1, FE).activation("lrelu4");
    b.deconv("dec1", 256, 4, 2, 1, DR).activation("relu1");
    b.deconv("dec2", 128, 4, 2, 1, DR).activation("relu2");
    b.deconv("dec3", 64, 4, 2, 1, DR).activation("relu3");
    b.deconv("dec4", 3, 4, 2, 1, DR).activation("tanh");
    return b.build();
}

std::vector<Network>
stereoNetworks(const StereoInput &in)
{
    std::vector<Network> nets;
    nets.push_back(buildDispNet(in));
    nets.push_back(buildFlowNetC(in));
    nets.push_back(buildGcNet(in));
    nets.push_back(buildPsmNet(in));
    return nets;
}

std::vector<Network>
ganNetworks(int64_t batch)
{
    std::vector<Network> nets;
    nets.push_back(buildDcgan(batch));
    nets.push_back(buildGpGan(batch));
    nets.push_back(buildArtGan(batch));
    nets.push_back(buildMagan(batch));
    nets.push_back(build3dGan(batch));
    nets.push_back(buildDiscoGan(batch));
    return nets;
}

Network
buildByName(const std::string &name)
{
    if (name == "FlowNetC")
        return buildFlowNetC();
    if (name == "DispNet")
        return buildDispNet();
    if (name == "GC-Net")
        return buildGcNet();
    if (name == "PSMNet")
        return buildPsmNet();
    if (name == "DCGAN")
        return buildDcgan();
    if (name == "GP-GAN")
        return buildGpGan();
    if (name == "ArtGAN")
        return buildArtGan();
    if (name == "MAGAN")
        return buildMagan();
    if (name == "3D-GAN")
        return build3dGan();
    if (name == "DiscoGAN")
        return buildDiscoGan();
    throw std::invalid_argument("unknown network name: " + name);
}

} // namespace asv::dnn::zoo
