/**
 * @file
 * Network zoo: the ten workloads of the ASV evaluation.
 *
 * Stereo DNNs (Sec. 6.1): FlowNetC, DispNet, GC-Net, PSMNet, defined
 * at KITTI-scale input resolution (384 x 1248, max disparity 192).
 * GANs (Sec. 7.6, the GANNX comparison): DCGAN, GP-GAN, ArtGAN,
 * MAGAN, 3D-GAN, DiscoGAN, at each paper's native output size.
 *
 * Layer tables are reconstructed from the source papers. Exact
 * data-flow graphs contain siamese trunks and skip branches; the IR
 * is a chain, so those are expressed with MAC-exact channel algebra
 * (two siamese convs C_in -> C_out at the same resolution equal one
 * chain conv with doubled channels; concat joins adjust the running
 * channel count). Per-network doc comments in zoo.cc record each such
 * rewrite.
 */

#ifndef ASV_DNN_ZOO_HH
#define ASV_DNN_ZOO_HH

#include <string>
#include <vector>

#include "dnn/network.hh"

namespace asv::dnn::zoo
{

/** Stereo input geometry used across the evaluation. */
struct StereoInput
{
    int64_t height = 384;
    int64_t width = 1248;
    int64_t maxDisparity = 192;
};

Network buildFlowNetC(const StereoInput &in = {});
Network buildDispNet(const StereoInput &in = {});
Network buildGcNet(const StereoInput &in = {});
Network buildPsmNet(const StereoInput &in = {});

Network buildDcgan(int64_t batch = 1);
Network buildGpGan(int64_t batch = 1);
Network buildArtGan(int64_t batch = 1);
Network buildMagan(int64_t batch = 1);
Network build3dGan(int64_t batch = 1);
Network buildDiscoGan(int64_t batch = 1);

/** The four stereo DNNs in the paper's standard order. */
std::vector<Network> stereoNetworks(const StereoInput &in = {});

/**
 * The six GANs of the GANNX comparison in Fig. 14 order. GAN
 * generators are evaluated batched (weights amortize over the
 * batch, as in the GANNX evaluation).
 */
std::vector<Network> ganNetworks(int64_t batch = 16);

/** Build any zoo network by name; throws std::invalid_argument on
 *  unknown names. */
Network buildByName(const std::string &name);

} // namespace asv::dnn::zoo

#endif // ASV_DNN_ZOO_HH
