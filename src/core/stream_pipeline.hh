/**
 * @file
 * Streaming execution layer for the ISM pipeline: multiple frames in
 * flight over a bounded, ordered queue.
 *
 * ASV's premise is a continuous stereo *stream* (Sec. 5.2). The
 * serial IsmPipeline retires one frame completely before starting
 * the next, leaving the worker pool idle between frames.
 * StreamPipeline overlaps stages across frames, the way real-time
 * stereo systems (SceneScan, Fan et al. 2018) earn their throughput.
 *
 * Shared state: both pipelines hold one core::IsmSequence, the
 * per-stream rule of which frame is a key frame, what a resolution
 * change resets and what a key-frame engine must return. submit()
 * admits each pair through it on the driver thread, so the sequencer
 * sees the frames in order and decides what the serial loop decides.
 * Every stage then runs the serial pipeline's code (ismFlow,
 * ismPropagate, IsmSequence::computeKeyFrame) on equal inputs, so
 * the results are bit-identical to the serial processFrame() loop
 * for any maxInFlight and worker count — provided the key-frame
 * source is a pure function of its inputs. This layer only schedules
 * the admitted frame's stages:
 *
 *  - Key-frame inference depends only on the submitted pair and is
 *    dispatched immediately.
 *  - For non-key frames, the two optical flows — the dominant
 *    non-key cost — depend only on the previous and current *input*
 *    frames, so they also start immediately, in parallel with
 *    whatever the predecessor is still computing.
 *  - Only the propagate+refine stage needs the predecessor's
 *    disparity; it is chained on the predecessor's future.
 *
 * Delivery is a ticketed reorder buffer: next() returns results in
 * exact submission order regardless of completion order. submit()
 * applies backpressure once maxInFlight frames are undelivered by
 * the workers.
 *
 * The key-frame matcher may be invoked concurrently from worker
 * threads (the Matcher thread-safety contract). A map that breaks
 * IsmSequence::computeKeyFrame's contract, including an empty one,
 * surfaces from next()/drain() as a std::runtime_error.
 *
 * Threading: submit()/next()/drain()/reset() must be called from a
 * single driver thread. The pipeline owns its executor threads and
 * never blocks a worker on a dependency that was not submitted
 * before it (FIFO execution order makes the chain deadlock-free).
 * All stage kernels take their ExecContext from the pipeline's own
 * pool — a StreamPipeline never touches ThreadPool::global(), so
 * co-resident pipelines (multi-tenant serving) are fully isolated.
 * Inside a worker a nested parallelFor on the same pool runs
 * serially; with frames in flight the workers *are* the
 * parallelism.
 */

#ifndef ASV_CORE_STREAM_PIPELINE_HH
#define ASV_CORE_STREAM_PIPELINE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "image/image.hh"
#include "stereo/disparity.hh"

namespace asv::core
{

/** Streaming execution parameters. */
struct StreamParams
{
    /**
     * Maximum number of submitted-but-uncomputed frames; submit()
     * blocks once the bound is reached. 1 degenerates to the serial
     * pipeline (each submit waits for the previous frame).
     *
     * Note this bounds *compute*, not retained memory: a computed
     * result stays in the reorder buffer until next()/drain()
     * collects it, so a driver that submits a long video without
     * ever delivering accumulates one disparity map per frame.
     * Interleave submit() with next() to bound memory too. (Bounding
     * on undelivered frames instead would deadlock the natural
     * submit-all-then-drain pattern.)
     */
    int maxInFlight = 4;

    /**
     * Dedicated executor threads running the frame stages.
     * 0 = ThreadPool::defaultThreads() (honours ASV_THREADS).
     * Ignored when sharedPool is set.
     */
    int workers = 0;

    /**
     * Run the frame stages on this pool instead of a private one —
     * the asv::serve pattern: one worker pool multiplexed across
     * many co-resident pipelines, so N streams cost W threads, not
     * N * W. The FIFO dependency-safety argument still holds across
     * pipelines sharing a pool as long as every pipeline's stages
     * are submitted from a single thread in dependency order (each
     * pipeline's own single-driver contract): a stage only ever
     * waits on futures of tasks enqueued before it, and FIFO
     * execution pops those first. The pool must have at least one
     * worker thread (size >= 2); a ThreadPool of N gives the
     * pipelines N - 1 stage executors.
     */
    std::shared_ptr<ThreadPool> sharedPool;
};

/**
 * Bounded, ordered, multi-frame-in-flight execution of the ISM
 * pipeline. See the file comment for the execution model and the
 * determinism contract.
 */
class StreamPipeline
{
  public:
    /**
     * Key frames run @p key_frame_matcher (any registered engine —
     * see stereo::makeMatcher); static cadence from
     * params.propagationWindow. Throws std::invalid_argument, before
     * any thread starts, as IsmSequence does or on a maxInFlight < 1,
     * workers < 0 or a shared pool of fewer than 2 threads.
     */
    StreamPipeline(IsmParams params,
                   std::shared_ptr<const stereo::Matcher> key_frame_matcher,
                   StreamParams stream = {});

    /** Matcher key-frame source with a custom sequencing policy. */
    StreamPipeline(IsmParams params,
                   std::shared_ptr<const stereo::Matcher> key_frame_matcher,
                   std::unique_ptr<KeyFrameSequencer> sequencer,
                   StreamParams stream = {});

    /** Waits for all in-flight frames, then releases the executor
     *  pool (joining it when this pipeline owns it privately). */
    ~StreamPipeline();

    StreamPipeline(const StreamPipeline &) = delete;
    StreamPipeline &operator=(const StreamPipeline &) = delete;

    /**
     * Submit the next frame of the stereo video. Decides key/non-key
     * (updating the sequencer), dispatches the frame's stages, and
     * returns its ticket (0-based submission index, the order next()
     * delivers in). Blocks while maxInFlight frames are in flight.
     * Throws as IsmSequence::admit() does.
     */
    int64_t submit(const image::Image &left,
                   const image::Image &right);

    /**
     * Deliver the oldest undelivered frame's result, blocking until
     * it is computed. Results come back in exact submission order.
     * Rethrows any exception the frame's stages raised (a poisoned
     * stream is cleared with reset()). Throws std::logic_error, and
     * changes nothing, if nothing is pending.
     */
    IsmFrameResult next();

    /**
     * Deliver every outstanding frame, in order. If a frame's stages
     * threw, drain() rethrows at that frame and the results already
     * collected (frames before it) are lost — when per-frame error
     * handling matters, consume with next() instead.
     */
    std::vector<IsmFrameResult> drain();

    /**
     * Wait for all in-flight work, discard undelivered results, and
     * forget all temporal state (start of a new sequence). Never
     * throws away the executors; the pipeline is reusable. Unlike
     * IsmPipeline::reset(), it also empties the arena.
     */
    void reset();

    /** Frames submitted but not yet delivered. */
    bool pending() const { return !slots_.empty(); }

    /** Frames submitted but whose disparity is not yet computed.
     *  Safe from any thread (the serving dispatcher's backpressure
     *  check and heartbeat read it; see asv::serve). */
    int inFlight() const;

    /**
     * True when the oldest undelivered frame's result is already
     * computed, i.e. next() would return without blocking. Driver
     * thread only (like next()); false when nothing is pending.
     * This is what lets a multi-stream driver (asv::serve's
     * dispatcher) collect results from many pipelines without ever
     * parking on one of them.
     */
    bool frontReady() const;

    int maxInFlight() const { return maxInFlight_; }
    int workers() const { return workers_; }
    const IsmParams &params() const { return sequence_.params(); }

    /** The key-frame engine. */
    const stereo::Matcher &matcher() const { return sequence_.matcher(); }

    /**
     * The buffer arena every stage of every in-flight frame recycles
     * through — private to this pipeline. BufferPool is internally
     * synchronized, so concurrent stages share it safely.
     */
    BufferPool &buffers() const { return sequence_.buffers(); }

  private:
    /** Reorder-buffer entry for one submitted frame. */
    struct Slot
    {
        std::shared_future<stereo::DisparityMap> disparity;
        bool keyFrame = false;
        int64_t arithmeticOps = 0;
    };

    /** RAII completion marker run at the end of a frame's final
     *  stage (even on exception): releases backpressure. */
    struct FrameCompletion;

    void markFrameComplete();

    ExecContext context() const { return ExecContext(*pool_, buffers()); }

    // Driver-thread-only by the single-driver API contract (workers
    // read only the parameters, the engine and the arena, fixed at
    // construction), so none of it is mutex-protected — mutex_ below
    // guards exactly the state the workers write. The previous
    // frame is kept as the stages consume it: shared input snapshots
    // and a disparity future (!valid() when there is none).
    IsmSequence sequence_; //!< first: its checks run before pool_
    int maxInFlight_ = 1;
    int workers_ = 1;
    std::shared_ptr<ThreadPool> pool_; //!< private or injected shared
    std::shared_ptr<const image::Image> prevLeft_;
    std::shared_ptr<const image::Image> prevRight_;
    std::shared_future<stereo::DisparityMap> prevDisparity_;

    // Reorder buffer (driver thread only); front = oldest ticket.
    std::deque<Slot> slots_;

    // Shared with workers: completion accounting for backpressure.
    // submitted_ - completed_ = frames in flight; submit() waits on
    // backpressure_ until it drops below maxInFlight_.
    mutable Mutex mutex_;
    std::condition_variable backpressure_;
    int64_t submitted_ ASV_GUARDED_BY(mutex_) = 0;
    int64_t completed_ ASV_GUARDED_BY(mutex_) = 0;
};

} // namespace asv::core

#endif // ASV_CORE_STREAM_PIPELINE_HH
