#include "core/ism.hh"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "image/ops.hh"
#include "stereo/postprocess.hh"

namespace asv::core
{

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
    : params_(std::move(params)),
      keyFrameSource_(std::move(key_frame_matcher)),
      sequencer_(std::move(sequencer)),
      pool_(pool ? std::move(pool)
                 : std::make_shared<ThreadPool>(0))
{
    fatal_if(params_.propagationWindow < 1,
             "propagation window must be >= 1");
    fatal_if(!keyFrameSource_, "key-frame matcher is required");
    fatal_if(!sequencer_, "key-frame sequencer is required");
}

void
IsmPipeline::reset()
{
    frameIndex_ = 0;
    prevLeft_ = image::Image();
    prevRight_ = image::Image();
    prevDisparity_ = stereo::DisparityMap();
    sequencer_->reset();
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
ismPropagate(const image::Image &left, const image::Image &right,
             const stereo::DisparityMap &prev_disparity,
             const flow::FlowField &flow_l,
             const flow::FlowField &flow_r, const IsmParams &p,
             const ExecContext &ctx)
{
    const int w = left.width(), h = left.height();
    panic_if(prev_disparity.width() != w ||
                 prev_disparity.height() != h,
             "previous disparity size mismatch");
    panic_if(flow_l.width() != w || flow_l.height() != h ||
                 flow_r.width() != w || flow_r.height() != h,
             "flow field size mismatch");

    // Step 2 + 3: reconstruct correspondence pairs from the previous
    // disparity map and move both endpoints.
    stereo::DisparityMap init =
        image::acquireImageUninit(ctx.buffers(), w, h);
    init.fill(stereo::kInvalidDisparity);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float d = prev_disparity.at(x, y);
            if (!stereo::isValidDisparity(d))
                continue;
            const float xr = float(x) - d;
            if (xr < 0)
                continue;

            const float xl1 = x + flow_l.u.at(x, y);
            const float yl1 = y + flow_l.v.at(x, y);
            const float xr1 = xr + flow_r.u.sample(xr, float(y));
            const float yr1 =
                float(y) + flow_r.v.sample(xr, float(y));
            (void)yr1; // rectified pairs stay on the same row

            const float d1 = xl1 - xr1;
            const int tx = int(std::lround(xl1));
            const int ty = int(std::lround(yl1));
            if (tx < 0 || tx >= w || ty < 0 || ty >= h)
                continue;
            if (d1 < 0 || d1 > float(p.maxDisparity))
                continue;
            // Nearest surface wins on collisions (occlusion).
            if (!stereo::isValidDisparity(init.at(tx, ty)) ||
                d1 > init.at(tx, ty)) {
                init.at(tx, ty) = d1;
            }
        }
    }

    // Fill scatter holes from row neighbors so that the guided
    // search has a seed everywhere possible.
    for (int pass = 0; pass < 2; ++pass) {
        for (int y = 0; y < h; ++y) {
            for (int xi = 0; xi < w; ++xi) {
                const int x = pass == 0 ? xi : w - 1 - xi;
                if (stereo::isValidDisparity(init.at(x, y)))
                    continue;
                const int nx = pass == 0 ? x - 1 : x + 1;
                if (nx >= 0 && nx < w &&
                    stereo::isValidDisparity(init.at(nx, y)))
                    init.at(x, y) = init.at(nx, y);
            }
        }
    }

    // Step 4: refine around the propagated estimate with the guided
    // 1-D SAD search.
    stereo::BlockMatchingParams bm;
    bm.blockRadius = p.blockRadius;
    bm.maxDisparity = p.maxDisparity;
    stereo::DisparityMap disparity = stereo::refineDisparity(
        left, right, init, p.refineRadius, bm, ctx);
    if (p.medianPostprocess)
        disparity = stereo::medianFilter3x3(disparity);
    return disparity;
}

IsmFrameResult
IsmPipeline::processFrame(const image::Image &left,
                          const image::Image &right)
{
    panic_if(left.width() != right.width() ||
                 left.height() != right.height(),
             "stereo pair size mismatch");

    // A mid-stream resolution change invalidates all temporal state:
    // the stored frames can no longer feed the flow estimator (which
    // panics on a size mismatch) and the previous disparity refers to
    // a different grid. Drop it and restart from a key frame.
    if (!prevLeft_.empty() && (prevLeft_.width() != left.width() ||
                               prevLeft_.height() != left.height())) {
        prevLeft_ = image::Image();
        prevRight_ = image::Image();
        prevDisparity_ = stereo::DisparityMap();
        // The shelved buffers are keyed to the old resolution and
        // will never be reused; drop them so cycling resolutions
        // keeps resident bytes bounded by one resolution's working
        // set instead of accumulating every size ever seen.
        buffers_->trim(0);
    }

    IsmFrameResult result;
    const bool is_key = ismDecideKeyFrame(
        *sequencer_, left, frameIndex_, !prevDisparity_.empty());
    ++frameIndex_;

    const ExecContext ctx(*pool_, *buffers_);
    if (is_key) {
        // Step 1: "DNN inference" — the key-frame engine. Classical
        // engines report their real op count; the oracle reports 0
        // (charged to the DNN accelerator models).
        result.disparity = keyFrameSource_->compute(left, right, ctx);
        // Enforce the matcher output contract here (mirroring
        // StreamPipeline) so a misbehaving engine fails loudly at
        // the key frame instead of corrupting the propagation chain.
        // An *empty* map stays tolerated: the next frame is forced
        // to be a key frame (see ismDecideKeyFrame).
        if (!result.disparity.empty() &&
            (result.disparity.width() != left.width() ||
             result.disparity.height() != left.height()))
            throw std::runtime_error(
                "key-frame matcher '" + keyFrameSource_->name() +
                "' returned a " +
                std::to_string(result.disparity.width()) + "x" +
                std::to_string(result.disparity.height()) +
                " disparity map for a " +
                std::to_string(left.width()) + "x" +
                std::to_string(left.height()) + " pair");
        result.keyFrame = true;
        result.arithmeticOps =
            keyFrameSource_->ops(left.width(), left.height());
    } else {
        // Step 3: propagate both sides by dense optical flow, then
        // steps 2-4: move the correspondences and refine.
        const flow::FlowField flow_l =
            ismFlow(prevLeft_, left, params_, ctx);
        const flow::FlowField flow_r =
            ismFlow(prevRight_, right, params_, ctx);
        result.disparity =
            ismPropagate(left, right, prevDisparity_, flow_l, flow_r,
                         params_, ctx);
        result.keyFrame = false;
        result.arithmeticOps =
            nonKeyFrameOps(left.width(), left.height(), params_);
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
