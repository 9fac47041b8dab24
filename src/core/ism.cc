#include "core/ism.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "image/ops.hh"

namespace asv::core
{

IsmSequence::IsmSequence(
    IsmParams params,
    std::shared_ptr<const stereo::Matcher> key_frame_matcher,
    std::unique_ptr<KeyFrameSequencer> sequencer)
    : params_(std::move(params)),
      matcher_(std::move(key_frame_matcher)),
      sequencer_(std::move(sequencer))
{
    require(params_.propagationWindow >= 1,
            "propagation window must be >= 1");
    require(matcher_ != nullptr, "key-frame matcher is required");
    require(sequencer_ != nullptr, "key-frame sequencer is required");
}

IsmAdmission
IsmSequence::admit(const image::Image &left, const image::Image &right,
                   bool has_prev_disparity)
{
    require(image::sameSize(left, right), "stereo pair size mismatch");

    IsmAdmission a;
    a.resized = width_ != 0 &&
                (width_ != left.width() || height_ != left.height());
    if (a.resized)
        buffers_->trim();
    width_ = left.width();
    height_ = left.height();

    a.keyFrame = ismDecideKeyFrame(*sequencer_, left, frameIndex_,
                                   has_prev_disparity && !a.resized);
    ++frameIndex_;
    // Classical engines report their real op count; the oracle
    // reports 0 (charged to the DNN accelerator models).
    a.arithmeticOps =
        a.keyFrame ? matcher_->ops(left.width(), left.height())
                   : nonKeyFrameOps(left.width(), left.height(), params_);
    return a;
}

stereo::DisparityMap
IsmSequence::computeKeyFrame(const image::Image &left,
                             const image::Image &right,
                             const ExecContext &ctx,
                             bool allow_empty) const
{
    stereo::DisparityMap d = matcher_->compute(left, right, ctx);
    if (d.empty() ? !allow_empty
                  : d.width() != left.width() ||
                        d.height() != left.height())
        throw std::runtime_error(
            "key-frame matcher '" + matcher_->name() + "' returned a " +
            std::to_string(d.width()) + "x" +
            std::to_string(d.height()) + " disparity map for a " +
            std::to_string(left.width()) + "x" +
            std::to_string(left.height()) + " pair");
    return d;
}

void
IsmSequence::reset()
{
    frameIndex_ = 0;
    width_ = 0;
    height_ = 0;
    sequencer_->reset();
}

// params is passed by copy, not moved: arguments are indeterminately
// sequenced, so reading propagationWindow here must not race a move
// of the same object.
IsmPipeline::IsmPipeline(
    IsmParams params,
    std::shared_ptr<const stereo::Matcher> key_frame_matcher)
    : IsmPipeline(params, std::move(key_frame_matcher),
                  makeStaticSequencer(params.propagationWindow))
{
}

IsmPipeline::IsmPipeline(
    IsmParams params,
    std::shared_ptr<const stereo::Matcher> key_frame_matcher,
    std::unique_ptr<KeyFrameSequencer> sequencer,
    std::shared_ptr<ThreadPool> pool)
    : sequence_(std::move(params), std::move(key_frame_matcher),
                std::move(sequencer)),
      pool_(pool ? std::move(pool)
                 : std::make_shared<ThreadPool>(0))
{
}

void
IsmPipeline::reset()
{
    sequence_.reset();
    prevLeft_ = image::Image();
    prevRight_ = image::Image();
    prevDisparity_ = stereo::DisparityMap();
}

bool
ismDecideKeyFrame(KeyFrameSequencer &sequencer,
                  const image::Image &left, int64_t frame_index,
                  bool has_prev_disparity)
{
    const bool sequencer_key =
        sequencer.isKeyFrame(left, frame_index);
    const bool is_key = sequencer_key || !has_prev_disparity;
    // Keep stateful sequencers in sync with forced key frames they
    // did not request (first frame after reset, resolution change,
    // or a key-frame source that produced no disparity).
    if (is_key && !sequencer_key)
        sequencer.keyFrameForced(left);
    return is_key;
}

flow::FlowField
ismFlow(const image::Image &from, const image::Image &to,
        const IsmParams &p, const ExecContext &ctx)
{
    const int s = std::max(1, p.flowScale);
    if (p.motion == MotionEstimator::BlockMatching)
        return flow::blockMotion(from, to);
    if (s == 1)
        return flow::farnebackFlow(from, to, p.flowParams, nullptr,
                                   ctx);

    // Motion at reduced resolution, upsampled and rescaled.
    const int sw = std::max(16, from.width() / s);
    const int sh = std::max(16, from.height() / s);
    const image::Image f0 = image::resizeBilinear(from, sw, sh, ctx);
    const image::Image f1 = image::resizeBilinear(to, sw, sh, ctx);
    flow::FlowField small =
        flow::farnebackFlow(f0, f1, p.flowParams, nullptr, ctx);

    flow::FlowField full;
    full.u = image::resizeBilinear(small.u, from.width(),
                                   from.height(), ctx);
    full.v = image::resizeBilinear(small.v, from.width(),
                                   from.height(), ctx);
    const float kx = float(from.width()) / sw;
    const float ky = float(from.height()) / sh;
    for (int64_t i = 0; i < full.u.size(); ++i) {
        full.u.data()[i] *= kx;
        full.v.data()[i] *= ky;
    }
    return full;
}

stereo::DisparityMap
ismSeed(const stereo::DisparityMap &prev_disparity,
        const flow::FlowField &flow_l, const flow::FlowField &flow_r,
        const IsmParams &p, const ExecContext &ctx)
{
    const int w = prev_disparity.width(), h = prev_disparity.height();
    panic_if(flow_l.width() != w || flow_l.height() != h ||
                 flow_r.width() != w || flow_r.height() != h,
             "flow field size mismatch");
    const size_t pixels = size_t(w) * size_t(h);
    constexpr uint32_t kNoTarget = ~uint32_t(0);

    // Step 2 + 3, phase 1, row-parallel: reconstruct each source
    // pixel's correspondence pair, move both endpoints, and record
    // where its disparity lands (or that it lands nowhere). The seed
    // map's rows are cleared in the same pass.
    stereo::DisparityMap init =
        image::acquireImageUninit(ctx.buffers(), w, h);
    auto target = ctx.buffers().acquire<uint32_t>(pixels);
    auto moved = ctx.buffers().acquire<float>(pixels);
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            const size_t row = size_t(y) * size_t(w);
            std::fill(init.data() + row, init.data() + row + w,
                      stereo::kInvalidDisparity);
            // Rectified pairs stay on the same row, so the right
            // endpoint's motion is sampled at row y (its y axis is
            // shared by the whole row) and only along x.
            const image::BilinearAxis ay =
                image::BilinearAxis::at(float(y), h);
            const float *prev = prev_disparity.data() + row;
            const float *ul = flow_l.u.data() + row;
            const float *vl = flow_l.v.data() + row;
            for (int x = 0; x < w; ++x) {
                target[row + x] = kNoTarget;
                const float d = prev[x];
                if (!stereo::isValidDisparity(d))
                    continue;
                const float xr = float(x) - d;
                if (xr < 0)
                    continue;

                const float xl1 = x + ul[x];
                const float yl1 = y + vl[x];
                const float xr1 =
                    xr + image::BilinearSample(
                             w, image::BilinearAxis::at(xr, w), ay)
                             .apply(flow_r.u);

                const float d1 = xl1 - xr1;
                const int tx = roundToInt(xl1);
                const int ty = roundToInt(yl1);
                if (tx < 0 || tx >= w || ty < 0 || ty >= h)
                    continue;
                if (d1 < 0 || d1 > float(p.maxDisparity))
                    continue;
                target[row + x] =
                    uint32_t(ty) * uint32_t(w) + uint32_t(tx);
                moved[row + x] = d1;
            }
        }
    });

    // Phase 2, serial in source order: the nearest surface wins a
    // collision (occlusion), and equal disparities keep the first.
    float *seed = init.data();
    for (size_t i = 0; i < pixels; ++i) {
        const uint32_t t = target[i];
        if (t != kNoTarget &&
            (!stereo::isValidDisparity(seed[t]) || moved[i] > seed[t]))
            seed[t] = moved[i];
    }

    // Fill scatter holes from row neighbors so that the guided
    // search has a seed everywhere possible: rightward, then
    // leftward for a row's leading run. Rows are independent.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            float *row = seed + size_t(y) * size_t(w);
            for (int x = 1; x < w; ++x) {
                if (!stereo::isValidDisparity(row[x]) &&
                    stereo::isValidDisparity(row[x - 1]))
                    row[x] = row[x - 1];
            }
            for (int x = w - 2; x >= 0; --x) {
                if (!stereo::isValidDisparity(row[x]) &&
                    stereo::isValidDisparity(row[x + 1]))
                    row[x] = row[x + 1];
            }
        }
    });
    return init;
}

stereo::DisparityMap
ismPropagate(const image::Image &left, const image::Image &right,
             const stereo::DisparityMap &prev_disparity,
             const flow::FlowField &flow_l,
             const flow::FlowField &flow_r, const IsmParams &p,
             const ExecContext &ctx)
{
    panic_if(prev_disparity.width() != left.width() ||
                 prev_disparity.height() != left.height(),
             "previous disparity size mismatch");
    const stereo::DisparityMap init =
        ismSeed(prev_disparity, flow_l, flow_r, p, ctx);

    // Step 4: refine around the propagated estimate with the guided
    // 1-D SAD search.
    stereo::BlockMatchingParams bm;
    bm.blockRadius = p.blockRadius;
    bm.maxDisparity = p.maxDisparity;
    return stereo::refineDisparity(left, right, init, p.refineRadius,
                                   bm, ctx);
}

IsmFrameResult
IsmPipeline::processFrame(const image::Image &left,
                          const image::Image &right)
{
    const IsmAdmission admitted =
        sequence_.admit(left, right, !prevDisparity_.empty());
    // The old grid's disparity goes first, so a key frame that throws
    // below still leaves the next frame a forced key frame.
    if (admitted.resized)
        prevDisparity_ = stereo::DisparityMap();

    IsmFrameResult result;
    result.keyFrame = admitted.keyFrame;
    result.arithmeticOps = admitted.arithmeticOps;
    const ExecContext ctx(*pool_, sequence_.buffers());
    if (result.keyFrame) {
        // Step 1: "DNN inference" — the key-frame engine.
        result.disparity = sequence_.computeKeyFrame(
            left, right, ctx, /*allow_empty=*/true);
    } else {
        // Step 3: propagate both sides by dense optical flow, then
        // steps 2-4: move the correspondences and refine.
        const IsmParams &p = sequence_.params();
        const flow::FlowField flow_l = ismFlow(prevLeft_, left, p, ctx);
        const flow::FlowField flow_r =
            ismFlow(prevRight_, right, p, ctx);
        result.disparity = ismPropagate(left, right, prevDisparity_,
                                        flow_l, flow_r, p, ctx);
    }

    prevLeft_ = left;
    prevRight_ = right;
    prevDisparity_ = result.disparity;
    return result;
}

int64_t
nonKeyFrameOps(int width, int height, const IsmParams &p)
{
    const int s = std::max(1, p.flowScale);
    const int fw = std::max(16, width / s);
    const int fh = std::max(16, height / s);

    // Two optical flows (left-left and right-right).
    const flow::FarnebackCost fc =
        flow::farnebackCost(fw, fh, p.flowParams);
    int64_t ops = 2 * fc.total();

    // Correspondence reconstruction + propagation scatter: ~10
    // point ops per pixel (Sec. 3.3 calls this negligible).
    ops += int64_t(10) * width * height;

    // Guided refinement: (2r+1) candidates per pixel.
    ops += stereo::blockMatchingOps(width, height, p.blockRadius,
                                    2 * p.refineRadius + 1);
    return ops;
}

} // namespace asv::core
