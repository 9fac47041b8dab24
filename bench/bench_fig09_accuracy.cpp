/**
 * @file
 * Fig. 9: accuracy of the ISM algorithm versus the DNN baselines on
 * SceneFlow-like and KITTI-like data, for propagation windows PW-2
 * and PW-4 (KITTI sequences are two frames, so only PW-2 applies,
 * as in the paper).
 *
 * The "DNN" row runs the calibrated oracle on every frame; ISM rows
 * run the full functional pipeline: oracle key frames, Farnebäck
 * propagation, guided block-matching refinement (see DESIGN.md
 * substitution #1).
 *
 * Paper reference points: PW-2 matches the DNNs on both datasets;
 * PW-4 loses only 0.02% on SceneFlow; in some cases ISM slightly
 * beats the DNN alone.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/ism.hh"
#include "data/oracle.hh"
#include "data/scene.hh"
#include "stereo/disparity.hh"

// The oracle key frames draw from one seeded noise stream in frame
// order, so they go through the test-only function adapter.
#include "../tests/fn_matcher.hh"

namespace
{

using namespace asv;

/** Mean 3-pixel error of plain DNN (oracle) inference per frame. */
double
dnnError(const std::vector<data::StereoSequence> &dataset,
         const data::OracleModel &oracle, uint64_t seed)
{
    Rng rng(seed);
    double sum = 0;
    int64_t n = 0;
    for (const auto &seq : dataset) {
        for (const auto &f : seq.frames) {
            const auto pred =
                data::oracleInference(f.gtDisparity, oracle, rng);
            sum += stereo::badPixelRate(pred, f.gtDisparity, 3.0,
                                        6);
            ++n;
        }
    }
    return sum / double(n);
}

/** Mean 3-pixel error of the functional ISM pipeline. */
double
ismError(const std::vector<data::StereoSequence> &dataset, int pw,
         const data::OracleModel &oracle, uint64_t seed)
{
    Rng rng(seed);
    double sum = 0;
    int64_t n = 0;
    for (const auto &seq : dataset) {
        size_t idx = 0;
        core::IsmParams params;
        params.propagationWindow = pw;
        core::IsmPipeline ism(
            params,
            testref::fnMatcher([&](const image::Image &,
                                   const image::Image &) {
                return data::oracleInference(
                    seq.frames[idx].gtDisparity, oracle, rng);
            }));
        for (idx = 0; idx < seq.frames.size(); ++idx) {
            const auto &f = seq.frames[idx];
            const auto r = ism.processFrame(f.left, f.right);
            sum += stereo::badPixelRate(r.disparity, f.gtDisparity,
                                        3.0, 6);
            ++n;
        }
    }
    return sum / double(n);
}

} // namespace

int
main(int argc, char **argv)
{
    // Optional scale factor for quick runs: fig09 accuracy --quick.
    bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    const int sf_seqs = quick ? 6 : 26;
    const int kitti_seqs = quick ? 20 : 200;

    auto sceneflow = asv::data::sceneFlowDataset(sf_seqs, 8);
    auto kitti = asv::data::kittiDataset(kitti_seqs);

    std::printf("=== Fig. 9: ISM accuracy vs DNN baselines "
                "(3-pixel error, %%) ===\n\n");
    std::printf("%-10s | %9s %9s %9s | %9s %9s\n", "",
                "SF-DNN", "SF-PW2", "SF-PW4", "KI-DNN", "KI-PW2");

    const char *names[4] = {"DispNet", "FlowNetC", "PSMNet",
                            "GC-Net"};
    double d_sf = 0, p2_sf = 0, p4_sf = 0, d_ki = 0, p2_ki = 0;
    for (int i = 0; i < 4; ++i) {
        const auto oracle =
            asv::data::OracleModel::forNetwork(names[i]);
        const double dnn_sf = dnnError(sceneflow, oracle, 100 + i);
        const double pw2_sf =
            ismError(sceneflow, 2, oracle, 200 + i);
        const double pw4_sf =
            ismError(sceneflow, 4, oracle, 300 + i);
        const double dnn_ki = dnnError(kitti, oracle, 400 + i);
        const double pw2_ki = ismError(kitti, 2, oracle, 500 + i);
        d_sf += dnn_sf / 4;
        p2_sf += pw2_sf / 4;
        p4_sf += pw4_sf / 4;
        d_ki += dnn_ki / 4;
        p2_ki += pw2_ki / 4;
        std::printf("%-10s | %8.2f%% %8.2f%% %8.2f%% | %8.2f%% "
                    "%8.2f%%\n",
                    names[i], dnn_sf, pw2_sf, pw4_sf, dnn_ki,
                    pw2_ki);
    }
    std::printf("%-10s | %8.2f%% %8.2f%% %8.2f%% | %8.2f%% "
                "%8.2f%%\n",
                "AVG", d_sf, p2_sf, p4_sf, d_ki, p2_ki);
    std::printf("\naccuracy deltas vs DNN: PW-2 SF %+0.2f%%, "
                "PW-4 SF %+0.2f%%, PW-2 KITTI %+0.2f%%\n",
                p2_sf - d_sf, p4_sf - d_sf, p2_ki - d_ki);
    std::printf("paper: PW-2 matches the DNNs; PW-4 loses 0.02%% "
                "on SceneFlow.\n");
    return 0;
}
