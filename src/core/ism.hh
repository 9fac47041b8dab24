/**
 * @file
 * The invariant-based stereo matching (ISM) algorithm (Sec. 3).
 *
 * ISM exploits the correspondence invariant: two pixels that are
 * projections of the same scene point remain a matched pair in every
 * frame, wherever they move. The pipeline (Fig. 5):
 *
 *  1. DNN inference on key frames produces a disparity map (here a
 *     pluggable key-frame source — data::oracleInference in the
 *     experiments, or any user-supplied stereo matcher).
 *  2. Reconstruct correspondences: every left pixel (x, y) with
 *     disparity d pairs with right pixel (x - d, y).
 *  3. Propagate correspondences to the next frame with dense optical
 *     flow on the left and right videos independently (Farnebäck;
 *     per-pixel motion, Sec. 3.3).
 *  4. Refine: the propagated pair seeds a short 1-D block-matching
 *     search (SAD) around the predicted disparity.
 *
 * Non-key frames therefore cost two (down-scaled) optical flows plus
 * a tiny guided search instead of a full DNN inference — about 87 M
 * arithmetic ops at qHD with the default parameters (Sec. 3.3),
 * 10^2-10^4 x cheaper than stereo DNN inference.
 */

#ifndef ASV_CORE_ISM_HH
#define ASV_CORE_ISM_HH

#include <cstdint>
#include <memory>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/thread_pool.hh"
#include "core/sequencer.hh"
#include "flow/block_motion.hh"
#include "flow/farneback.hh"
#include "image/image.hh"
#include "stereo/block_matching.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"

namespace asv::core
{

/**
 * Motion-estimation algorithm used for correspondence propagation.
 * The paper selects dense Farnebäck flow and rules out block
 * matching for its block-granular vectors (Sec. 3.3); both are
 * available so the choice can be measured (bench_ablation_ism).
 */
enum class MotionEstimator
{
    Farneback,     //!< dense per-pixel optical flow (the paper's)
    BlockMatching, //!< classic block-granular motion
};

/** ISM algorithm parameters (Sec. 3.3 design decisions). */
struct IsmParams
{
    int propagationWindow = 4; //!< PW: key frame every PW frames
    int refineRadius = 2;      //!< 1-D search window half-width
    int blockRadius = 2;       //!< SAD block half-width (5x5)
    int maxDisparity = 64;
    int flowScale = 2;         //!< motion estimated at 1/flowScale
    flow::FarnebackParams flowParams{2, 2, 3, 1.2, 5};
    MotionEstimator motion = MotionEstimator::Farneback;
    bool medianPostprocess = false; //!< 3x3 median on non-key output
};

/** Per-frame output of the ISM pipeline. */
struct IsmFrameResult
{
    stereo::DisparityMap disparity;
    bool keyFrame = false;
    int64_t arithmeticOps = 0; //!< cost charged for this frame
};

/**
 * The key/non-key decision: consults the sequencer, promotes the
 * frame to a key frame when no previous disparity exists, and
 * reports forced promotions back through
 * KeyFrameSequencer::keyFrameForced(). Callers advance their frame
 * index afterwards. IsmSequence::admit() is its one caller in the
 * library; it is public for drivers that replay the stages of a
 * frame one by one.
 */
bool ismDecideKeyFrame(KeyFrameSequencer &sequencer,
                       const image::Image &left, int64_t frame_index,
                       bool has_prev_disparity);

/**
 * Stage 1 of a non-key frame: dense motion estimation between
 * consecutive frames of one camera, at 1/flowScale resolution,
 * upsampled and rescaled back (Sec. 3.3). Depends only on the two
 * input frames — never on a previous frame's *result* — which is
 * what lets StreamPipeline run it eagerly while the predecessor
 * frame is still in flight. The resize pre-stages and every
 * Farnebäck stage fan out on @p ctx's pool; a warm call allocates
 * nothing (its buffers come from @p ctx's BufferPool).
 */
flow::FlowField ismFlow(const image::Image &from,
                        const image::Image &to, const IsmParams &p,
                        const ExecContext &ctx);

/**
 * Stages 2-3 of a non-key frame: the seeds of the guided search.
 * Reconstructs correspondence pairs from the predecessor's disparity
 * map, moves both endpoints by the per-camera flows and scatters each
 * moved disparity to its new left pixel (the nearest surface wins a
 * collision; ties keep the first in raster order of the source
 * pixels), then fills scatter holes from row neighbors. A pixel stays
 * kInvalidDisparity only when its whole row received no seed. The
 * per-pixel moves and the row fills fan out on @p ctx's pool; the
 * collision pass runs in source order, so the map is bit-identical
 * for any worker count.
 *
 * @param prev_disparity disparity of the previous frame; must match
 *                       the flows' dimensions
 */
stereo::DisparityMap ismSeed(const stereo::DisparityMap &prev_disparity,
                             const flow::FlowField &flow_l,
                             const flow::FlowField &flow_r,
                             const IsmParams &p, const ExecContext &ctx);

/**
 * Stages 2-4 of a non-key frame: ismSeed, then the guided 1-D SAD
 * search around the seeds (plus the optional median). This is the
 * only part of a non-key frame that depends on the predecessor's
 * output.
 *
 * @param prev_disparity disparity of the previous frame; must be
 *                       non-empty and match the pair's dimensions
 */
stereo::DisparityMap ismPropagate(const image::Image &left,
                                  const image::Image &right,
                                  const stereo::DisparityMap &prev_disparity,
                                  const flow::FlowField &flow_l,
                                  const flow::FlowField &flow_r,
                                  const IsmParams &p,
                                  const ExecContext &ctx);

/** What IsmSequence::admit() decided for one stereo pair. */
struct IsmAdmission
{
    bool keyFrame = false;
    bool resized = false; //!< the caller's previous frame is stale
    int64_t arithmeticOps = 0; //!< cost charged for this frame
};

/**
 * The per-stream ISM rule (Sec. 3, Fig. 5), held once for both
 * pipelines: which frame is a key frame, what a resolution change
 * resets, and what a key-frame engine must return. Both pipelines
 * admit every pair here on their driver thread, so they decide the
 * same key frames and stay bit-identical by construction; each keeps
 * its previous pair and disparity in the form its stages consume.
 */
class IsmSequence
{
  public:
    /** @throws std::invalid_argument on a propagation window < 1, a
     *  null matcher or a null sequencer */
    IsmSequence(IsmParams params,
                std::shared_ptr<const stereo::Matcher> key_frame_matcher,
                std::unique_ptr<KeyFrameSequencer> sequencer);

    /**
     * Decide key/non-key (ismDecideKeyFrame), step the frame index
     * and price the frame. A resolution change forces a key frame and
     * empties the arena, whose shelves are keyed to the old size.
     * @throws std::invalid_argument, changing nothing, when the left
     *         and right images differ in size
     */
    IsmAdmission admit(const image::Image &left,
                       const image::Image &right,
                       bool has_prev_disparity);

    /**
     * Run the engine on an admitted key frame; a map not of the
     * pair's size throws std::runtime_error, so a misbehaving engine
     * fails here instead of corrupting the frames propagated from it.
     * @p allow_empty accepts an empty map: IsmPipeline then forces
     * the next frame to be a key frame, while StreamPipeline rejects
     * it because it decides the next frame's kind at submit(), before
     * this map exists.
     */
    stereo::DisparityMap computeKeyFrame(const image::Image &left,
                                         const image::Image &right,
                                         const ExecContext &ctx,
                                         bool allow_empty) const;

    /** Restart at frame 0. The arena stays warm for drivers that
     *  reset every window; only StreamPipeline::reset() trims it. */
    void reset();

    const IsmParams &params() const { return params_; }
    const stereo::Matcher &matcher() const { return *matcher_; }
    BufferPool &buffers() const { return *buffers_; }

  private:
    IsmParams params_;
    std::shared_ptr<const stereo::Matcher> matcher_;
    std::unique_ptr<KeyFrameSequencer> sequencer_;
    std::shared_ptr<BufferPool> buffers_ =
        std::make_shared<BufferPool>();
    int64_t frameIndex_ = 0;
    int width_ = 0; //!< last admitted pair's size; 0 after reset
    int height_ = 0;
};

/**
 * Stateful ISM pipeline over a stereo video. Feed frames in order;
 * every propagationWindow-th frame (starting with the first) runs
 * the key-frame source, the rest are propagated and refined, inline
 * on the calling thread and its pool, under IsmSequence's rule.
 */
class IsmPipeline
{
  public:
    /**
     * Key frames run @p key_frame_matcher (any registered engine —
     * see stereo::makeMatcher). Static cadence from
     * params.propagationWindow. Throws as IsmSequence does.
     */
    IsmPipeline(IsmParams params,
                std::shared_ptr<const stereo::Matcher> key_frame_matcher);

    /**
     * Matcher key-frame source with a custom sequencing policy and
     * optionally an injected pool. A null @p pool creates a private
     * one sized by ASV_THREADS/hardware_concurrency; pass a shared
     * pool to cap total thread count across many pipelines (the
     * per-request serving pattern) or to control sizing explicitly.
     * Throws as IsmSequence does, before the pool is built.
     */
    IsmPipeline(IsmParams params,
                std::shared_ptr<const stereo::Matcher> key_frame_matcher,
                std::unique_ptr<KeyFrameSequencer> sequencer,
                std::shared_ptr<ThreadPool> pool = nullptr);

    /** Process the next frame of the stereo video. Throws as
     *  IsmSequence::admit() and computeKeyFrame() do. */
    IsmFrameResult processFrame(const image::Image &left,
                                const image::Image &right);

    /** Forget all temporal state (start of a new sequence). */
    void reset();

    const IsmParams &params() const { return sequence_.params(); }

    /** The key-frame engine. */
    const stereo::Matcher &matcher() const { return sequence_.matcher(); }

    /**
     * The pool this instance's kernels fan out on, and nowhere else
     * — private by default (sized by ASV_THREADS at construction),
     * or the one injected at construction. Never
     * ThreadPool::global().
     */
    ThreadPool &pool() const { return *pool_; }

    /**
     * The buffer arena every frame's kernels recycle through —
     * private to this instance, so concurrent pipelines never
     * contend on shelves. Its stats() expose the steady-state
     * contract: after the warm-up frame, hits dominate and misses
     * stay flat.
     */
    BufferPool &buffers() const { return sequence_.buffers(); }

  private:
    IsmSequence sequence_; //!< first: its checks run before pool_
    std::shared_ptr<ThreadPool> pool_;
    image::Image prevLeft_;
    image::Image prevRight_;
    stereo::DisparityMap prevDisparity_;
};

/**
 * Arithmetic-op count of one non-key frame at the given resolution
 * (Sec. 3.3's "about 87 million operations" at qHD with defaults of
 * flowScale = 4): two optical flows at reduced resolution, the
 * correspondence scatter, and the guided block-matching refinement.
 */
int64_t nonKeyFrameOps(int width, int height, const IsmParams &p);

} // namespace asv::core

#endif // ASV_CORE_ISM_HH
