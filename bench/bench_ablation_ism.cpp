/**
 * @file
 * ISM ablation (Sec. 3.3 design decisions, beyond the paper's
 * figures):
 *
 *  (a) Propagation-window sweep: accuracy and modeled speedup for
 *      PW-1 ... PW-8 (the paper stops at PW-4; the sweep shows why
 *      — accuracy drifts as the invariant ages).
 *  (b) Refinement-window sweep, including radius 0 (pure
 *      propagation, no correspondence search): quantifies how much
 *      the step-4 search contributes.
 *
 *  (c) Motion-estimator choice: dense Farnebäck (the paper's pick)
 *      versus classic block matching, which Sec. 3.3 rules out for
 *      its block-granular vectors — here the argument is measured.
 *
 *  (d) Key-frame sequencing: the paper's static PW versus the
 *      adaptive scene-change policy it mentions as feasible
 *      (Sec. 5.2), on slow and fast scenes.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "core/asv_system.hh"
#include "core/ism.hh"
#include "data/oracle.hh"
#include "flow/lucas_kanade.hh"
#include "data/scene.hh"
#include "dnn/zoo.hh"
#include "stereo/disparity.hh"

// The oracle key frames draw from one seeded noise stream in frame
// order, so they go through the test-only function adapter.
#include "../tests/fn_matcher.hh"

namespace
{

using namespace asv;

double
runIsm(const std::vector<data::StereoSequence> &dataset,
       const core::IsmParams &params,
       const data::OracleModel &oracle, uint64_t seed)
{
    Rng rng(seed);
    double sum = 0;
    int64_t n = 0;
    for (const auto &seq : dataset) {
        size_t idx = 0;
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
            sum += stereo::badPixelRate(r.disparity,
                                        f.gtDisparity, 3.0, 6);
            ++n;
        }
    }
    return sum / double(n);
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = argc > 1 &&
                       std::string(argv[1]) == "--quick";
    const auto dataset =
        data::sceneFlowDataset(quick ? 4 : 10, 8);
    const auto oracle = data::OracleModel::forNetwork("DispNet");

    sched::HardwareConfig hw;
    const auto net = dnn::zoo::buildDispNet();
    const auto base =
        core::simulateSystem(net, hw, core::SystemVariant::Baseline);

    std::printf("=== ISM ablation ===\n\n");
    std::printf("(a) propagation window sweep (DispNet oracle, "
                "SceneFlow-like)\n");
    std::printf("%6s %14s %16s\n", "PW", "3px-error(%)",
                "modeled-speedup");
    for (int pw : {1, 2, 3, 4, 6, 8}) {
        core::IsmParams p;
        p.propagationWindow = pw;
        const double err = runIsm(dataset, p, oracle, 40 + pw);
        core::SystemConfig cfg;
        cfg.ism.propagationWindow = pw;
        const auto sys = core::simulateSystem(
            net, hw, core::SystemVariant::IsmOnly, cfg);
        std::printf("%6d %13.2f%% %15.2fx\n", pw, err,
                    base.average.seconds / sys.average.seconds);
    }

    std::printf("\n(b) refinement window sweep at PW-4 "
                "(radius 0 = pure propagation)\n");
    std::printf("%8s %14s\n", "radius", "3px-error(%)");
    for (int r : {0, 1, 2, 3, 4}) {
        core::IsmParams p;
        p.propagationWindow = 4;
        p.refineRadius = r;
        const double err = runIsm(dataset, p, oracle, 60 + r);
        std::printf("%8d %13.2f%%\n", r, err);
    }
    std::printf("\n(c) motion estimator at PW-4 (Sec. 3.3 design "
                "decision)\n");
    std::printf("%-16s %14s\n", "estimator", "3px-error(%)");
    for (auto me : {core::MotionEstimator::Farneback,
                    core::MotionEstimator::BlockMatching}) {
        core::IsmParams p;
        p.propagationWindow = 4;
        p.motion = me;
        const double err = runIsm(dataset, p, oracle, 80);
        std::printf("%-16s %13.2f%%\n",
                    me == core::MotionEstimator::Farneback
                        ? "Farneback"
                        : "BlockMatching",
                    err);
    }
    // Sparse Lucas-Kanade: measure the coverage objection directly
    // (per-pixel motion exists only near tracked corners).
    {
        double cov = 0;
        int frames = 0;
        BufferPool buffers;
        const ExecContext ctx(ThreadPool::global(), buffers);
        for (const auto &seq : dataset) {
            const auto &f = seq.frames[0];
            auto pts = flow::detectCorners(f.left, {}, ctx);
            flow::trackLucasKanade(f.left, seq.frames[1].left,
                                   pts, {}, ctx);
            cov += flow::sparseCoverage(pts, f.left.width(),
                                        f.left.height(), 4);
            ++frames;
            if (frames >= 4)
                break;
        }
        std::printf("%-16s %13s   (pixel coverage only %.0f%%: "
                    "cannot seed all pixels)\n",
                    "LucasKanade", "n/a", 100.0 * cov / frames);
    }

    std::printf("\n(d) key-frame sequencing: static PW-4 vs "
                "adaptive (threshold 5 gray levels, max 8)\n");
    std::printf("%-8s %-10s %14s %12s\n", "scene", "policy",
                "3px-error(%)", "key-frames");
    for (float speed : {0.4f, 3.0f}) {
        data::SceneConfig cfg;
        cfg.width = 192;
        cfg.height = 96;
        cfg.maxSpeed = speed;
        auto seq = data::generateSequence(cfg, 12, 70);
        for (bool adaptive : {false, true}) {
            Rng rng(81);
            size_t idx = 0;
            core::IsmParams p;
            p.propagationWindow = 4;
            const auto key_fn = testref::fnMatcher(
                [&](const image::Image &, const image::Image &) {
                    return data::oracleInference(
                        seq.frames[idx].gtDisparity, oracle, rng);
                });
            core::IsmPipeline ism =
                adaptive
                    ? core::IsmPipeline(
                          p, key_fn,
                          core::makeAdaptiveSequencer(5.0, 8))
                    : core::IsmPipeline(p, key_fn);
            double err = 0;
            int keys = 0;
            for (idx = 0; idx < seq.frames.size(); ++idx) {
                const auto &f = seq.frames[idx];
                const auto r = ism.processFrame(f.left, f.right);
                keys += r.keyFrame;
                err += stereo::badPixelRate(r.disparity,
                                            f.gtDisparity, 3.0,
                                            6) /
                       double(seq.frames.size());
            }
            std::printf("%-8s %-10s %13.2f%% %9d/%zu\n",
                        speed < 1.f ? "slow" : "fast",
                        adaptive ? "adaptive" : "static", err,
                        keys, seq.frames.size());
        }
    }

    std::printf("\nthe paper picks PW-4 with a small refinement "
                "window: accuracy holds while\nnon-key cost stays "
                "~1e-2 of DNN inference (Sec. 3.3); the adaptive "
                "sequencer spends\nkey frames where the scene "
                "actually changes.\n");
    return 0;
}
