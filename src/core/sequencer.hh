/**
 * @file
 * Key-frame sequencing policies (Sec. 5.2).
 *
 * The paper's micro-sequencer statically selects every PW-th frame
 * as a key frame and notes that "complex adaptive schemes are
 * feasible [14, 78]" but that the static strategy suffices. Both are
 * provided: the static policy used throughout the evaluation, and an
 * adaptive policy that triggers a key frame when the accumulated
 * scene change since the last key frame crosses a threshold —
 * letting slow scenes stretch the window (more savings) and fast
 * scenes shrink it (accuracy protection). bench_ablation_ism
 * measures the trade-off.
 */

#ifndef ASV_CORE_SEQUENCER_HH
#define ASV_CORE_SEQUENCER_HH

#include <cstdint>
#include <memory>

#include "image/image.hh"

namespace asv::core
{

/** Decides which frames run full DNN inference. */
class KeyFrameSequencer
{
  public:
    virtual ~KeyFrameSequencer() = default;

    /**
     * Called once per frame in order; returns true if this frame
     * must be a key frame. Implementations may inspect the frame.
     */
    virtual bool isKeyFrame(const image::Image &left,
                            int64_t frame_index) = 0;

    /**
     * Notification that the pipeline promoted a frame to a key frame
     * that this sequencer did not request (e.g. the very first frame
     * after a reset, or a mid-stream resolution change). Stateful
     * policies must re-anchor their change detection on @p left or
     * their notion of "frames since the last key frame" drifts from
     * what actually ran. Called after isKeyFrame() returned false
     * for the same frame. Default: no-op (stateless policies).
     */
    virtual void keyFrameForced(const image::Image &left)
    {
        (void)left;
    }

    /** Forget all state (new sequence). */
    virtual void reset() = 0;
};

/** The paper's static policy: every PW-th frame is a key frame. */
class StaticSequencer : public KeyFrameSequencer
{
  public:
    /** @throws std::invalid_argument on a window < 1 */
    explicit StaticSequencer(int propagation_window);

    bool isKeyFrame(const image::Image &left,
                    int64_t frame_index) override;
    void reset() override {}

  private:
    int window_;
};

/**
 * Adaptive policy: a key frame fires when the mean absolute
 * difference between the current frame and the last key frame
 * exceeds @p change_threshold (gray levels), or after @p max_window
 * frames regardless. The first frame is always a key frame.
 */
class AdaptiveSequencer : public KeyFrameSequencer
{
  public:
    /** @throws std::invalid_argument on a threshold that is not
     *  positive or a max window < 1 */
    AdaptiveSequencer(double change_threshold, int max_window);

    bool isKeyFrame(const image::Image &left,
                    int64_t frame_index) override;
    void keyFrameForced(const image::Image &left) override;
    void reset() override;

    /** Frames since the last key frame (diagnostics). */
    int framesSinceKey() const { return sinceKey_; }

  private:
    double threshold_;
    int maxWindow_;
    int sinceKey_ = 0;
    image::Image lastKey_;
};

/** Factory helpers. */
std::unique_ptr<KeyFrameSequencer> makeStaticSequencer(int pw);
std::unique_ptr<KeyFrameSequencer>
makeAdaptiveSequencer(double change_threshold, int max_window);

} // namespace asv::core

#endif // ASV_CORE_SEQUENCER_HH
