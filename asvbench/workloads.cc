#include "workloads.hh"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "data/oracle.hh"
#include "data/scene.hh"
#include "dnn/network.hh"
#include "dnn/runtime.hh"
#include "serve/server.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"
#include "tensor/tensor.hh"

namespace asvbench
{

using namespace asv;
using stereo::DisparityMap;

namespace
{

// Every workload runs its compute on explicitly sized pools; nothing
// reads ASV_THREADS or hardware_concurrency().
constexpr int kThreads = 2;
constexpr int kPw = 4;          //!< propagation window (ISM workloads)
constexpr int kWarmupFrames = 4; //!< per camera; one window for ISM
constexpr int kSetupReps = 3;   //!< setup_s is their median
constexpr double kP95 = 0.95;

// A camera cycles through a clip of independent scenes, each a short
// data::generateSequence. bad3_pct varies with scene content, so the
// scene counts are set for its seed-to-seed spread to stay small
// (about 3 % IQR over ten seeds). Each ISM scene is one propagation
// window, so every scene starts with a key frame, the pipeline resets
// there, and every pass over the clip is identical: a delivered map
// is checked against the map of its clip position.
constexpr int kAsvScenes = 12;
constexpr int kSgmScenes = 12;  //!< one frame each
constexpr int kServeScenes = 8; //!< per camera
constexpr int kAsvClip = kAsvScenes * kPw;
constexpr int kSgmClip = kSgmScenes;
constexpr int kServeClip = kServeScenes * kPw;
constexpr int kServeCameras = 8;

// Program constants (not the workload seed): DNN weights and the
// oracle's error stream.
constexpr uint64_t kWeightSeed = 13;
constexpr uint64_t kOracleSeed = 9;

using Clip = std::vector<data::StereoFrame>;

/** @p scenes independent scenes of @p frames frames, scene k seeded
 *  with @p seed + k. Ground-truth flow is dropped (unused). */
Clip
makeClip(const data::SceneConfig &cfg, int scenes, int frames,
         uint64_t seed)
{
    Clip clip;
    for (int k = 0; k < scenes; ++k) {
        data::StereoSequence seq =
            data::generateSequence(cfg, frames, seed + uint64_t(k));
        for (data::StereoFrame &f : seq.frames) {
            f.gtFlowLeft = flow::FlowField();
            clip.push_back(std::move(f));
        }
    }
    return clip;
}

/**
 * Build (construct + warm up) a rig kSetupReps times, destroying all
 * but the last, and record each duration in @p setup_s. Memory a
 * destroyed rig freed is handed back to the OS before the next build,
 * so peak_rss_mb does not depend on how the allocator happened to
 * reuse it.
 */
template <typename Build>
auto
timedSetup(Build build, std::vector<double> &setup_s)
{
    std::optional<decltype(build())> rig;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        rig.reset();
        malloc_trim(0);
        const auto t0 = Clock::now();
        rig.emplace(build());
        setup_s.push_back(msBetween(t0, Clock::now()) / 1e3);
    }
    return std::move(*rig);
}

/**
 * A traced run splits --seconds into an untraced half (for the
 * tracing overhead) and a traced half; neither reports percentiles.
 */
double
untracedSeconds(const Options &opt)
{
    return opt.trace ? opt.seconds / 2 : opt.seconds;
}

/** Latency samples the untraced phase must collect: enough for ten
 *  beyond p95 when it reports percentiles. */
size_t
samplesNeeded(const Options &opt)
{
    return opt.trace ? 0 : minSamplesFor(kP95);
}

/** Frames of one closed-loop timed phase. */
struct Phase
{
    explicit Phase(size_t fps_window) : fpsWindow(fps_window) {}

    std::vector<double> latencyMs;
    /** Completion time of each frame inside the throughput window, in
     *  seconds on the phase clock, which runs only while some frame
     *  is in flight; and whether that frame was verified. */
    std::vector<double> doneS;
    std::vector<bool> doneOk;
    size_t fpsWindow; //!< completions per throughput window
    int64_t submitted = 0;
    int64_t verified = 0; //!< delivered Ok and matching its check
    int64_t keyFrames = 0;
    int64_t nonKeyFrames = 0;

    int64_t failed() const { return submitted - verified; }

    /** Verified maps per second in each run of fpsWindow consecutive
     *  completions. */
    std::vector<double>
    windowFps() const
    {
        std::vector<double> out;
        double from = 0.0;
        for (size_t end = fpsWindow; end <= doneS.size(); end += fpsWindow) {
            const double to = doneS[end - 1];
            const auto ok = std::count(doneOk.begin() + long(end - fpsWindow),
                                       doneOk.begin() + long(end), true);
            if (to > from)
                out.push_back(double(ok) / (to - from));
            from = to;
        }
        return out;
    }

    /** Median windowed throughput: robust to the host's short stalls,
     *  which a whole-phase mean would fold in. */
    double fps() const { return median(windowFps()); }
};

/**
 * One camera, one frame outstanding: run @p step on frame i = 0, 1,
 * ... for @p seconds, or longer until @p need latency samples exist.
 * @p check runs between frames, outside the timed intervals.
 */
template <typename Step, typename Check>
Phase
singleCameraLoop(double seconds, size_t need, Step step, Check check)
{
    Phase ph(kPw);
    double clock_s = 0.0;
    const auto start = Clock::now();
    for (int64_t i = 0; msBetween(start, Clock::now()) < seconds * 1e3 ||
                        ph.latencyMs.size() < need;
         ++i) {
        bool key = false;
        const auto t0 = Clock::now();
        const DisparityMap d = step(i, key);
        const double ms = msBetween(t0, Clock::now());
        ph.latencyMs.push_back(ms);
        clock_s += ms / 1e3;
        ++ph.submitted;
        ++(key ? ph.keyFrames : ph.nonKeyFrames);
        const bool ok = check(i, d);
        ph.verified += ok ? 1 : 0;
        ph.doneS.push_back(clock_s);
        ph.doneOk.push_back(ok);
    }
    return ph;
}

/** Mean share (%) of valid-ground-truth pixels off by >= 3 px. */
double
bad3Pct(const std::vector<DisparityMap> &maps,
        const std::vector<const DisparityMap *> &gts)
{
    std::vector<double> rates;
    for (size_t i = 0; i < maps.size(); ++i)
        rates.push_back(stereo::badPixelRate(maps[i], *gts[i], 3.0));
    return mean(rates);
}

/** Mean share (%) of pixels holding a valid disparity. */
double
densityPct(const std::vector<DisparityMap> &maps)
{
    int64_t valid = 0, total = 0;
    for (const DisparityMap &m : maps) {
        for (float v : m.flat())
            valid += stereo::isValidDisparity(v) ? 1 : 0;
        total += m.size();
    }
    return total ? 100.0 * double(valid) / double(total) : 0.0;
}

/** The seven end-to-end metrics of an untraced run. */
void
addEndToEnd(RunResult &r, const Phase &ph, double bad3, size_t scored,
            const std::vector<double> &setup_s)
{
    const size_t n = ph.latencyMs.size();
    r.metrics = {
        {"fps", ph.fps(), "1/s", ph.windowFps().size()},
        {"latency_p50_ms", percentile(ph.latencyMs, 0.5, 0), "ms", n},
        {"latency_p95_ms", percentile(ph.latencyMs, kP95), "ms", n},
        {"bad3_pct", bad3, "%", scored},
        {"served_pct",
         ph.submitted ? 100.0 * double(ph.verified) / double(ph.submitted)
                      : 0.0,
         "%", size_t(ph.submitted)},
        {"peak_rss_mb", peakRssMb(), "MB", 1},
        {"setup_s", median(setup_s), "s", setup_s.size()},
    };
}

/** Per-layer quantities of a traced run; layers a workload does not
 *  exercise stay 0 (with n = 0). */
struct LayerReport
{
    std::vector<double> forwardMs, oracleMs, flowMs, propagateMs,
        keyMs, sgmMs, submitUs, utilization;
    double forwardFlop = 0.0; //!< 2 * totalMacs of one forward()
    double sgmCells = 0.0;    //!< W * H * D of one SGM solve
    int64_t keyFrames = 0, nonKeyFrames = 0;
    double densityPct = 0.0;
    double poolHitRate = 0.0, poolResidentMb = 0.0;
    double ringDepthMax = 0.0, shed = 0.0, failed = 0.0, rejected = 0.0;
    double overheadPct = 0.0;
};

std::vector<Metric>
perLayerMetrics(const LayerReport &l)
{
    const double fwd = median(l.forwardMs);
    const double sgm = median(l.sgmMs);
    return {
        {"dnn.forward_ms", fwd, "ms", l.forwardMs.size()},
        {"dnn.gflops", fwd > 0 ? l.forwardFlop / (fwd * 1e6) : 0.0,
         "GFLOP/s", l.forwardMs.size()},
        {"data.oracle_ms", median(l.oracleMs), "ms", l.oracleMs.size()},
        {"flow.ism_flow_ms", median(l.flowMs), "ms", l.flowMs.size()},
        {"core.propagate_ms", median(l.propagateMs), "ms",
         l.propagateMs.size()},
        {"core.key_frames", double(l.keyFrames), "count", 1},
        {"core.nonkey_frames", double(l.nonKeyFrames), "count", 1},
        {"stereo.key_ms", median(l.keyMs), "ms", l.keyMs.size()},
        {"stereo.sgm_ms", sgm, "ms", l.sgmMs.size()},
        {"stereo.sgm_mcups", sgm > 0 ? l.sgmCells / (sgm * 1e3) : 0.0,
         "cells/us", l.sgmMs.size()},
        {"stereo.density_pct", l.densityPct, "%", 1},
        {"common.pool_hit_rate", l.poolHitRate, "ratio", 1},
        {"common.pool_resident_mb", l.poolResidentMb, "MB", 1},
        {"serve.submit_us", median(l.submitUs), "us", l.submitUs.size()},
        {"serve.utilization", mean(l.utilization), "ratio",
         l.utilization.size()},
        {"serve.ring_depth_max", l.ringDepthMax, "count", 1},
        {"serve.shed", l.shed, "count", 1},
        {"serve.failed", l.failed, "count", 1},
        {"serve.rejected", l.rejected, "count", 1},
        {"trace.overhead_pct", l.overheadPct, "%", 1},
    };
}

double
overheadPct(double fps_untraced, double fps_traced)
{
    return fps_untraced > 0.0
               ? 100.0 * (fps_untraced - fps_traced) / fps_untraced
               : 0.0;
}

void
fillPoolStats(LayerReport &l, const BufferPool::Stats &s)
{
    const uint64_t acquires = s.hits + s.misses;
    l.poolHitRate = acquires ? double(s.hits) / double(acquires) : 0.0;
    l.poolResidentMb = double(s.residentBytes) / double(1 << 20);
}

/**
 * Write the Chrome trace and print per-span-name totals: count, wall
 * time and self time (wall minus the part covered by child spans).
 */
void
emitTrace(const Tracer &tracer, const Options &opt)
{
    if (!opt.traceOut.empty()) {
        std::ofstream f(opt.traceOut);
        tracer.writeChromeJson(f);
        if (!f)
            throw std::runtime_error("cannot write " + opt.traceOut);
        std::cout << opt.workload << "  trace written to " << opt.traceOut
                  << "\n";
    }
    const std::vector<Span> spans = tracer.spans();
    const std::vector<int64_t> self = selfTimesNs(spans);
    struct Totals
    {
        int64_t count = 0;
        double wallMs = 0.0, selfMs = 0.0;
    };
    std::map<std::string, Totals> by_name;
    for (size_t i = 0; i < spans.size(); ++i) {
        Totals &t = by_name[spans[i].name];
        ++t.count;
        t.wallMs += double(spans[i].endNs - spans[i].startNs) / 1e6;
        t.selfMs += double(self[i]) / 1e6;
    }
    for (const auto &[name, t] : by_name) {
        std::cout << opt.workload << "  span " << name
                  << "  count=" << t.count << " wall_ms=" << t.wallMs
                  << " self_ms=" << t.selfMs << "\n";
    }
}

// ======================================================== asv_camera

/** Left-image hash -> ground truth, for the oracle error model. */
class GroundTruthIndex
{
  public:
    explicit GroundTruthIndex(const Clip &clip)
    {
        for (const data::StereoFrame &f : clip)
            byLeft_[fnv1a(f.left)] = &f.gtDisparity;
    }

    const DisparityMap &
    lookup(const image::Image &left) const
    {
        const auto it = byLeft_.find(fnv1a(left));
        if (it == byLeft_.end())
            throw std::runtime_error("no ground truth for key frame");
        return *it->second;
    }

  private:
    std::unordered_map<uint64_t, const DisparityMap *> byLeft_;
};

// The Fig. 13 DispNet-style refinement stack: the last two 4x4
// stride-2 up-convolutions, from 1/4 resolution back to full.
constexpr int kNetInChannels = 64;
constexpr int kNetMidChannels = 32;
constexpr int kNetOutChannels = 16;
constexpr int kNetDown = 4; //!< input resolution divisor
constexpr int kCropH = 6, kCropW = 8; //!< reference-check window

/**
 * forward() against referenceForward() within a relative tolerance
 * of k * 1e-5 (docs/KERNELS.md), k being the accumulation length
 * summed over the layers.
 */
bool
matchesReference(dnn::NetworkRuntime &rt, const tensor::Tensor &input,
                 const ExecContext &ctx, double &max_diff,
                 double &tolerance)
{
    const tensor::Tensor got = rt.forward(input, ctx);
    const tensor::Tensor ref = rt.referenceForward(input, ctx);
    if (got.shape() != ref.shape())
        return false;
    double scale = 1.0;
    for (int64_t i = 0; i < ref.size(); ++i)
        scale = std::max(scale, double(std::abs(ref.data()[i])));
    // Sub-kernels of a 4x4 stride-2 deconvolution have 2x2 taps.
    const double k = 4.0 * (kNetInChannels + kNetMidChannels);
    tolerance = k * 1e-5 * scale;
    max_diff = got.maxAbsDiff(ref);
    return max_diff <= tolerance;
}

dnn::Network
refinementNet(int width, int height)
{
    dnn::NetworkBuilder nb("dispnet-refine", kNetInChannels,
                           {height / kNetDown, width / kNetDown});
    nb.deconv("upconv1", kNetMidChannels, 4, 2, 1,
              dnn::Stage::DisparityRefinement);
    nb.activation("relu_u1");
    nb.deconv("upconv0", kNetOutChannels, 4, 2, 1,
              dnn::Stage::DisparityRefinement);
    return nb.build();
}

/**
 * Key-frame matcher of asv_camera: pays for a real NetworkRuntime
 * forward() of the refinement stack on a cost volume built from the
 * pair, and returns the calibrated DispNet error model applied to
 * the ground truth (data::oracleInference, the paper's Fig. 9
 * method; the repository has no trained weights). Deterministic per
 * pair, so the pipeline and the stage-by-stage replay agree bitwise.
 */
class DnnKeyMatcher final : public stereo::Matcher
{
  public:
    DnnKeyMatcher(const GroundTruthIndex &gt, int width, int height)
        : gt_(gt), net_(refinementNet(width, height)),
          rt_(net_, kWeightSeed), input_(rt_.inputShape()),
          model_(data::OracleModel::forNetwork("DispNet"))
    {
    }

    std::string name() const override { return "dnn-refine-oracle"; }

    DisparityMap
    compute(const image::Image &left, const image::Image &right,
            const ExecContext &ctx) const override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buildInput(left, right);
        {
            ScopedSpan s(tracer_, "dnn.forward");
            rt_.forward(input_, ctx);
        }
        ScopedSpan s(tracer_, "data.oracle");
        const DisparityMap &gt = gt_.lookup(left);
        Rng rng(data::OracleMatcher::perCallSeed(kOracleSeed, gt));
        return data::oracleInference(gt, model_, rng);
    }

    int64_t
    ops(int width, int height) const override
    {
        (void)width;
        (void)height;
        return 2 * net_.stats().totalMacs;
    }

    /** Record spans into @p tracer (null stops). Call between
     *  frames. */
    void setTracer(Tracer *tracer) { tracer_ = tracer; }

    const dnn::Network &network() const { return net_; }

    /**
     * forward() against referenceForward() (double accumulation,
     * zero-insertion deconvolution) on this pair's input, within the
     * docs/KERNELS.md tolerance. With @p full_frame false the check
     * runs on a kCropH x kCropW window of the input through a runtime
     * compiled for that size: weights depend only on layer shapes
     * and the seed, so it is the same network and kernels at 1 % of
     * the reference's cost.
     */
    bool
    forwardMatchesReference(const image::Image &left,
                            const image::Image &right,
                            const ExecContext &ctx, bool full_frame,
                            double &max_diff, double &tolerance) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        buildInput(left, right);
        if (full_frame)
            return matchesReference(rt_, input_, ctx, max_diff, tolerance);
        dnn::NetworkRuntime crop_rt(
            refinementNet(kCropW * kNetDown, kCropH * kNetDown),
            kWeightSeed);
        tensor::Tensor crop(crop_rt.inputShape());
        const int64_t h = input_.dim(1), w = input_.dim(2);
        const int64_t y0 = (h - kCropH) / 2, x0 = (w - kCropW) / 2;
        float *out = crop.data();
        for (int64_t c = 0; c < kNetInChannels; ++c)
            for (int64_t y = 0; y < kCropH; ++y)
                for (int64_t x = 0; x < kCropW; ++x)
                    *out++ = input_.data()[(c * h + y0 + y) * w + x0 + x];
        return matchesReference(crop_rt, crop, ctx, max_diff, tolerance);
    }

  private:
    /** 64-candidate absolute-difference cost volume at 1/4
     *  resolution: channel c holds |L(x, y) - R(x - c, y)|. */
    void
    buildInput(const image::Image &left, const image::Image &right) const
    {
        const int w = int(input_.dim(2)), h = int(input_.dim(1));
        const auto box = [&](const image::Image &img, int qx, int qy) {
            float s = 0.f;
            for (int y = 0; y < kNetDown; ++y)
                for (int x = 0; x < kNetDown; ++x)
                    s += img.at(qx * kNetDown + x, qy * kNetDown + y);
            return s / float(kNetDown * kNetDown);
        };
        lq_.resize(size_t(w) * h);
        rq_.resize(size_t(w) * h);
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                lq_[size_t(y) * w + x] = box(left, x, y);
                rq_[size_t(y) * w + x] = box(right, x, y);
            }
        }
        float *out = input_.data();
        for (int c = 0; c < kNetInChannels; ++c) {
            for (int y = 0; y < h; ++y) {
                const float *lrow = &lq_[size_t(y) * w];
                const float *rrow = &rq_[size_t(y) * w];
                for (int x = 0; x < w; ++x)
                    *out++ = std::abs(lrow[x] - rrow[std::max(x - c, 0)]);
            }
        }
    }

    const GroundTruthIndex &gt_;
    const dnn::Network net_;
    mutable std::mutex mutex_; //!< forward() mutates the runtime
    mutable dnn::NetworkRuntime rt_;
    mutable tensor::Tensor input_;
    mutable std::vector<float> lq_, rq_;
    const data::OracleModel model_;
    Tracer *tracer_ = nullptr;
};

/**
 * The stages IsmPipeline::processFrame is built from, called one by
 * one so each gets its own span: ismDecideKeyFrame, the key matcher,
 * ismFlow once per camera, ismPropagate. Same inputs, same code, so
 * its maps equal the pipeline's bit for bit.
 */
class StageReplay
{
  public:
    StageReplay(const core::IsmParams &params, const stereo::Matcher &key,
                ThreadPool &pool)
        : params_(params), key_(key), pool_(pool),
          sequencer_(core::makeStaticSequencer(params.propagationWindow))
    {
    }

    void
    reset()
    {
        index_ = 0;
        prevLeft_ = image::Image();
        prevRight_ = image::Image();
        prevDisparity_ = DisparityMap();
        sequencer_->reset();
    }

    DisparityMap
    step(const image::Image &left, const image::Image &right,
         Tracer *tracer, int64_t frame, bool &key)
    {
        ScopedSpan frame_span(tracer, "frame", frame);
        key = core::ismDecideKeyFrame(*sequencer_, left, index_,
                                      !prevDisparity_.empty());
        ++index_;
        const ExecContext ctx(pool_, buffers_);
        DisparityMap d;
        if (key) {
            ScopedSpan s(tracer, "stereo.key");
            d = key_.compute(left, right, ctx);
        } else {
            flow::FlowField flow_l, flow_r;
            {
                ScopedSpan s(tracer, "flow.ism_flow");
                flow_l = core::ismFlow(prevLeft_, left, params_, ctx);
            }
            {
                ScopedSpan s(tracer, "flow.ism_flow");
                flow_r = core::ismFlow(prevRight_, right, params_, ctx);
            }
            ScopedSpan s(tracer, "core.propagate");
            d = core::ismPropagate(left, right, prevDisparity_, flow_l,
                                   flow_r, params_, ctx);
        }
        prevLeft_ = left;
        prevRight_ = right;
        prevDisparity_ = d;
        return d;
    }

    BufferPool &buffers() { return buffers_; }

  private:
    core::IsmParams params_;
    const stereo::Matcher &key_;
    ThreadPool &pool_;
    BufferPool buffers_;
    std::unique_ptr<core::KeyFrameSequencer> sequencer_;
    int64_t index_ = 0;
    image::Image prevLeft_, prevRight_;
    DisparityMap prevDisparity_;
};

} // namespace

RunResult
runAsvCamera(const Options &opt)
{
    data::SceneConfig cfg;
    cfg.width = 320;
    cfg.height = 240;
    const Clip clip = makeClip(cfg, kAsvScenes, kPw, opt.seed * 1000);
    const GroundTruthIndex gt(clip);
    core::IsmParams params;
    params.propagationWindow = kPw;
    const auto frame = [&](int64_t i) -> const data::StereoFrame & {
        return clip[size_t(i % kAsvClip)];
    };

    struct Rig
    {
        std::shared_ptr<ThreadPool> pool;
        std::shared_ptr<DnnKeyMatcher> matcher;
        std::unique_ptr<core::IsmPipeline> pipeline;
    };
    std::vector<double> setup_s;
    Rig rig = timedSetup(
        [&] {
            Rig r;
            r.pool = std::make_shared<ThreadPool>(kThreads);
            r.matcher =
                std::make_shared<DnnKeyMatcher>(gt, cfg.width, cfg.height);
            r.pipeline = std::make_unique<core::IsmPipeline>(
                params, r.matcher, core::makeStaticSequencer(kPw), r.pool);
            for (int i = 0; i < kWarmupFrames; ++i)
                r.pipeline->processFrame(frame(i).left, frame(i).right);
            return r;
        },
        setup_s);

    // Reference pass: the stage-by-stage replay over the clip.
    RunResult result;
    StageReplay reference(params, *rig.matcher, *rig.pool);
    std::vector<DisparityMap> ref_maps;
    std::vector<uint64_t> ref_hash;
    std::vector<const DisparityMap *> gts;
    for (int i = 0; i < kAsvClip; ++i) {
        bool key = false;
        ref_maps.push_back(
            reference.step(frame(i).left, frame(i).right, nullptr, i, key));
        ref_hash.push_back(fnv1a(ref_maps.back()));
        gts.push_back(&frame(i).gtDisparity);
    }
    {
        BufferPool scratch;
        const ExecContext ctx(*rig.pool, scratch);
        double max_diff = 0.0, tolerance = 0.0;
        // The full-frame reference costs about a minute; the traced
        // run pays it, untraced runs check the same network on a crop.
        if (!rig.matcher->forwardMatchesReference(
                frame(0).left, frame(0).right, ctx, opt.trace, max_diff,
                tolerance)) {
            std::cerr << "asv_camera: forward() differs from "
                         "referenceForward() by "
                      << max_diff << " (tolerance " << tolerance << ")\n";
            result.correct = false;
        }
    }
    const auto check = [&](int64_t i, const DisparityMap &d) {
        return fnv1a(d) == ref_hash[size_t(i % kAsvClip)];
    };

    core::IsmPipeline &pipeline = *rig.pipeline;
    const auto pipeline_step = [&](int64_t i, bool &key) {
        if (i % kPw == 0)
            pipeline.reset();
        core::IsmFrameResult fr =
            pipeline.processFrame(frame(i).left, frame(i).right);
        key = fr.keyFrame;
        return std::move(fr.disparity);
    };
    const Phase ph = singleCameraLoop(untracedSeconds(opt), samplesNeeded(opt),
                                      pipeline_step, check);
    result.attempted = ph.submitted;
    result.failed = ph.failed();
    if (!opt.trace) {
        addEndToEnd(result, ph, bad3Pct(ref_maps, gts), ref_maps.size(),
                    setup_s);
        result.correct = result.correct && result.failed == 0;
        return result;
    }

    // Traced run: the same frames through the stage replay, warmed
    // up over one window before its phase starts.
    Tracer tracer;
    StageReplay replay(params, *rig.matcher, *rig.pool);
    for (int i = 0; i < kWarmupFrames; ++i) {
        bool key = false;
        replay.step(frame(i).left, frame(i).right, nullptr, i, key);
    }
    rig.matcher->setTracer(&tracer);
    const Phase tph = singleCameraLoop(
        opt.seconds / 2, 0,
        [&](int64_t i, bool &key) {
            if (i % kPw == 0)
                replay.reset();
            return replay.step(frame(i).left, frame(i).right, &tracer, i,
                               key);
        },
        check);
    rig.matcher->setTracer(nullptr);
    result.attempted += tph.submitted;
    result.failed += tph.failed();
    result.correct = result.correct && result.failed == 0;

    const std::vector<Span> spans = tracer.spans();
    LayerReport l;
    l.forwardMs = spanMs(spans, "dnn.forward");
    l.forwardFlop = 2.0 * double(rig.matcher->network().stats().totalMacs);
    l.oracleMs = spanMs(spans, "data.oracle");
    l.flowMs = spanMs(spans, "flow.ism_flow");
    l.propagateMs = spanMs(spans, "core.propagate");
    l.keyMs = spanMs(spans, "stereo.key");
    l.keyFrames = tph.keyFrames;
    l.nonKeyFrames = tph.nonKeyFrames;
    l.densityPct = densityPct(ref_maps);
    fillPoolStats(l, pipeline.buffers().stats());
    l.overheadPct = overheadPct(ph.fps(), tph.fps());
    emitTrace(tracer, opt);
    result.metrics = perLayerMetrics(l);
    return result;
}

// ======================================================== sgm_camera

RunResult
runSgmCamera(const Options &opt)
{
    constexpr int kMaxDisparity = 64;
    data::SceneConfig cfg;
    cfg.width = 640;
    cfg.height = 480;
    const Clip clip = makeClip(cfg, kSgmScenes, 1, opt.seed * 1000);
    const auto frame = [&](int64_t i) -> const data::StereoFrame & {
        return clip[size_t(i % kSgmClip)];
    };

    struct Rig
    {
        std::unique_ptr<ThreadPool> pool;
        std::unique_ptr<BufferPool> buffers;
        std::shared_ptr<stereo::Matcher> sgm;
    };
    std::vector<double> setup_s;
    Rig rig = timedSetup(
        [&] {
            Rig r;
            r.pool = std::make_unique<ThreadPool>(kThreads);
            r.buffers = std::make_unique<BufferPool>();
            r.sgm = stereo::makeMatcher(
                "sgm", "maxDisparity=" + std::to_string(kMaxDisparity));
            const ExecContext ctx(*r.pool, *r.buffers);
            for (int i = 0; i < kWarmupFrames; ++i)
                r.sgm->compute(frame(i).left, frame(i).right, ctx);
            return r;
        },
        setup_s);

    // Reference: the same engine on a 1-thread context.
    std::vector<DisparityMap> ref_maps;
    std::vector<const DisparityMap *> gts;
    {
        ThreadPool one(1);
        BufferPool buffers;
        const ExecContext ctx(one, buffers);
        for (int i = 0; i < kSgmClip; ++i) {
            ref_maps.push_back(
                rig.sgm->compute(frame(i).left, frame(i).right, ctx));
            gts.push_back(&frame(i).gtDisparity);
        }
    }
    const auto check = [&](int64_t i, const DisparityMap &d) {
        return bitEqual(d, ref_maps[size_t(i % kSgmClip)]);
    };

    const ExecContext ctx(*rig.pool, *rig.buffers);
    Tracer tracer;
    const auto sgm_step = [&](Tracer *t) {
        return [&, t](int64_t i, bool &key) {
            key = false;
            ScopedSpan s(t, "stereo.sgm", i);
            return rig.sgm->compute(frame(i).left, frame(i).right, ctx);
        };
    };
    RunResult result;
    const Phase ph = singleCameraLoop(untracedSeconds(opt), samplesNeeded(opt),
                                      sgm_step(nullptr), check);
    result.attempted = ph.submitted;
    result.failed = ph.failed();
    if (!opt.trace) {
        addEndToEnd(result, ph, bad3Pct(ref_maps, gts), ref_maps.size(),
                    setup_s);
        result.correct = ph.failed() == 0;
        return result;
    }

    const Phase tph =
        singleCameraLoop(opt.seconds / 2, 0, sgm_step(&tracer), check);
    result.attempted += tph.submitted;
    result.failed += tph.failed();
    result.correct = result.failed == 0;

    LayerReport l;
    l.sgmMs = spanMs(tracer.spans(), "stereo.sgm");
    l.sgmCells = double(cfg.width) * cfg.height * kMaxDisparity;
    l.densityPct = densityPct(ref_maps);
    fillPoolStats(l, rig.buffers->stats());
    l.overheadPct = overheadPct(ph.fps(), tph.fps());
    emitTrace(tracer, opt);
    result.metrics = perLayerMetrics(l);
    return result;
}

// ======================================================= serve_fleet

namespace
{

/** Wraps the key-frame engine in a "stereo.key" span. */
class TimedMatcher final : public stereo::Matcher
{
  public:
    explicit TimedMatcher(std::shared_ptr<const stereo::Matcher> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }

    DisparityMap
    compute(const image::Image &left, const image::Image &right,
            const ExecContext &ctx) const override
    {
        ScopedSpan s(tracer_.load(), "stereo.key");
        return inner_->compute(left, right, ctx);
    }

    int64_t
    ops(int width, int height) const override
    {
        return inner_->ops(width, height);
    }

    void setTracer(Tracer *tracer) { tracer_.store(tracer); }

  private:
    std::shared_ptr<const stereo::Matcher> inner_;
    std::atomic<Tracer *> tracer_{nullptr};
};

/** Results handed from the dispatcher thread to the client thread. */
class Mailbox
{
  public:
    struct Delivery
    {
        serve::ServeResult result;
        Clock::time_point at;
    };

    void
    push(serve::ServeResult &&r)
    {
        const auto at = Clock::now();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.push_back({std::move(r), at});
        }
        cv_.notify_one();
    }

    Delivery
    pop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (!cv_.wait_for(lock, std::chrono::seconds(60),
                          [&] { return !queue_.empty(); }))
            throw std::runtime_error("no result delivered within 60 s");
        Delivery d = std::move(queue_.front());
        queue_.pop_front();
        return d;
    }

  private:
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<Delivery> queue_; //!< guarded by mutex_
};

int64_t
fleetFrameId(int camera, int64_t ticket)
{
    return int64_t(camera) * 1000000 + ticket;
}

struct FleetRig
{
    Mailbox mailbox;
    std::atomic<Tracer *> tracer{nullptr};
    std::shared_ptr<TimedMatcher> key;
    std::vector<int64_t> nextTicket =
        std::vector<int64_t>(kServeCameras, 0);
    std::vector<int64_t> expectTicket =
        std::vector<int64_t>(kServeCameras, 0);
    std::unique_ptr<serve::Server> server; //!< last: stops first
};

struct FleetPhase : Phase
{
    FleetPhase() : Phase(kServeCameras * kPw) {}

    bool ordered = true; //!< every stream delivered in ticket order
    std::vector<double> submitUs, utilization;
    int ringDepthMax = 0;
};

/**
 * The client thread: every camera keeps exactly one frame in the
 * server, submitting its next frame when the previous result
 * arrives. Submits for @p seconds (longer until @p need latency
 * samples exist), then drains. @p check runs on each delivered map.
 */
template <typename Check>
FleetPhase
runFleet(FleetRig &rig, const std::vector<Clip> &clips,
         double seconds, size_t need, Tracer *tracer, Check check)
{
    FleetPhase ph;
    std::vector<Clock::time_point> sent(kServeCameras);
    int outstanding = 0;
    const auto submit = [&](int c) {
        const int64_t t = rig.nextTicket[size_t(c)]++;
        const data::StereoFrame &f =
            clips[size_t(c)][size_t(t % kServeClip)];
        serve::SubmitStatus st;
        {
            ScopedSpan s(tracer, "serve.submit", fleetFrameId(c, t));
            sent[size_t(c)] = Clock::now();
            st = rig.server->submit(c, f.left, f.right);
            if (tracer)
                ph.submitUs.push_back(
                    msBetween(sent[size_t(c)], Clock::now()) * 1e3);
        }
        ++ph.submitted;
        if (st == serve::SubmitStatus::Accepted)
            ++outstanding;
        else
            ph.ordered = false; // the ticket sequence now has a hole
    };

    const auto start = Clock::now();
    auto last_poll = start;
    std::optional<Clock::time_point> stopped;
    for (int c = 0; c < kServeCameras; ++c)
        submit(c);
    while (outstanding > 0) {
        Mailbox::Delivery d = rig.mailbox.pop();
        --outstanding;
        const int c = d.result.stream;
        const int64_t ticket = d.result.ticket;
        ph.latencyMs.push_back(msBetween(sent[size_t(c)], d.at));
        const auto now = Clock::now();
        if (!stopped && (msBetween(start, now) < seconds * 1e3 ||
                         ph.latencyMs.size() + size_t(outstanding) < need))
            submit(c);
        else if (!stopped)
            stopped = now;

        ph.ordered = ph.ordered && ticket == rig.expectTicket[size_t(c)];
        rig.expectTicket[size_t(c)] = ticket + 1;
        ++(d.result.keyFrame ? ph.keyFrames : ph.nonKeyFrames);
        const bool ok = d.result.status == serve::ResultStatus::Ok &&
                        check(c, ticket, d.result.disparity);
        ph.verified += ok ? 1 : 0;
        // Until the stop every camera has a frame in flight; the
        // drain tail after it counts in served_pct and latency but
        // not in throughput.
        if (!stopped) {
            ph.doneS.push_back(msBetween(start, d.at) / 1e3);
            ph.doneOk.push_back(ok);
        }

        if (tracer && msBetween(last_poll, now) >= 20.0) {
            last_poll = now;
            const serve::ServerStats s = rig.server->stats();
            ph.utilization.push_back(s.utilization);
            ph.ringDepthMax = std::max(ph.ringDepthMax, s.ringDepth);
        }
    }
    return ph;
}

} // namespace

RunResult
runServeFleet(const Options &opt)
{
    constexpr int kMaxDisparity = 32;
    data::SceneConfig cfg;
    cfg.width = 160;
    cfg.height = 120;
    cfg.numObjects = 4;
    cfg.minDisparity = 2.f;
    cfg.maxDisparity = 24.f;
    std::vector<Clip> clips;
    for (int c = 0; c < kServeCameras; ++c)
        clips.push_back(makeClip(cfg, kServeScenes, kPw,
                                 opt.seed * 1000 + uint64_t(c) * kServeScenes));
    core::IsmParams params;
    params.propagationWindow = kPw;
    params.maxDisparity = kMaxDisparity;
    const std::string sgm_options =
        "maxDisparity=" + std::to_string(kMaxDisparity);

    // Reference: a serial IsmPipeline per camera over its clip (the
    // static cadence makes each scene start a key frame, as the
    // server's ticket cadence does).
    std::vector<std::vector<DisparityMap>> ref(kServeCameras);
    std::vector<DisparityMap> all_refs;
    std::vector<const DisparityMap *> gts;
    {
        auto pool = std::make_shared<ThreadPool>(kThreads);
        const auto sgm = stereo::makeMatcher("sgm", sgm_options);
        for (int c = 0; c < kServeCameras; ++c) {
            core::IsmPipeline serial(params, sgm,
                                     core::makeStaticSequencer(kPw), pool);
            for (const data::StereoFrame &f : clips[size_t(c)]) {
                ref[size_t(c)].push_back(
                    serial.processFrame(f.left, f.right).disparity);
                all_refs.push_back(ref[size_t(c)].back());
                gts.push_back(&f.gtDisparity);
            }
        }
    }
    const auto check = [&](int c, int64_t ticket, const DisparityMap &d) {
        return bitEqual(d, ref[size_t(c)][size_t(ticket % kServeClip)]);
    };

    std::vector<double> setup_s;
    std::unique_ptr<FleetRig> rig = timedSetup(
        [&] {
            auto r = std::make_unique<FleetRig>();
            r->key = std::make_shared<TimedMatcher>(
                stereo::makeMatcher("sgm", sgm_options));
            serve::ServerConfig sc;
            sc.workers = kThreads;
            sc.queueCapacity = 64;
            r->server = std::make_unique<serve::Server>(sc);
            for (int c = 0; c < kServeCameras; ++c) {
                serve::StreamConfig s;
                s.params = params;
                s.matcher = r->key;
                s.maxQueued = 8; // > the one frame a camera has queued
                FleetRig *raw = r.get();
                s.onResult = [raw](serve::ServeResult &&res) {
                    ScopedSpan span(raw->tracer.load(), "serve.deliver",
                                    fleetFrameId(res.stream, res.ticket));
                    raw->mailbox.push(std::move(res));
                };
                r->server->openStream(std::move(s));
            }
            // Warm-up: one propagation window per camera.
            for (int i = 0; i < kWarmupFrames; ++i)
                runFleet(*r, clips, 0.0, 0, nullptr, check);
            return r;
        },
        setup_s);

    RunResult result;
    const FleetPhase ph = runFleet(*rig, clips, untracedSeconds(opt),
                                   samplesNeeded(opt), nullptr, check);
    result.attempted = ph.submitted;
    result.failed = ph.failed();
    if (!opt.trace) {
        addEndToEnd(result, ph, bad3Pct(all_refs, gts), all_refs.size(),
                    setup_s);
        result.correct = ph.failed() == 0 && ph.ordered;
        return result;
    }

    Tracer tracer;
    rig->tracer.store(&tracer);
    rig->key->setTracer(&tracer);
    const FleetPhase tph = runFleet(*rig, clips, opt.seconds / 2, 0,
                                    &tracer, check);
    rig->key->setTracer(nullptr);
    rig->tracer.store(nullptr);
    result.attempted += tph.submitted;
    result.failed += tph.failed();
    result.correct = result.failed == 0 && ph.ordered && tph.ordered;

    const serve::ServerStats s = rig->server->stats();
    LayerReport l;
    l.keyMs = spanMs(tracer.spans(), "stereo.key");
    l.sgmMs = l.keyMs; // the key-frame engine is SGM
    l.sgmCells = double(cfg.width) * cfg.height * kMaxDisparity;
    l.keyFrames = tph.keyFrames;
    l.nonKeyFrames = tph.nonKeyFrames;
    l.densityPct = densityPct(all_refs);
    l.poolHitRate = s.poolHitRate;
    l.poolResidentMb = double(s.poolResidentBytes) / double(1 << 20);
    l.submitUs = tph.submitUs;
    l.utilization = tph.utilization;
    l.ringDepthMax = tph.ringDepthMax;
    for (const serve::StreamStats &st : s.streams) {
        l.shed += double(st.shed);
        l.failed += double(st.failed);
        l.rejected += double(st.rejected);
    }
    l.overheadPct = overheadPct(ph.fps(), tph.fps());
    emitTrace(tracer, opt);
    result.metrics = perLayerMetrics(l);
    return result;
}

} // namespace asvbench
