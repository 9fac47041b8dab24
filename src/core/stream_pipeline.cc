#include "core/stream_pipeline.hh"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hh"

namespace asv::core
{

struct StreamPipeline::FrameCompletion
{
    explicit FrameCompletion(StreamPipeline *p) : pipeline(p) {}
    ~FrameCompletion() { pipeline->markFrameComplete(); }
    FrameCompletion(const FrameCompletion &) = delete;
    FrameCompletion &operator=(const FrameCompletion &) = delete;

    StreamPipeline *pipeline;
};

StreamPipeline::StreamPipeline(
    IsmParams params,
    std::shared_ptr<const stereo::Matcher> key_frame_matcher,
    StreamParams stream)
    // params is passed by copy, not moved: arguments are
    // indeterminately sequenced, so reading propagationWindow here
    // must not race a move of the same object.
    : StreamPipeline(params, std::move(key_frame_matcher),
                     makeStaticSequencer(params.propagationWindow),
                     stream)
{
}

StreamPipeline::StreamPipeline(
    IsmParams params,
    std::shared_ptr<const stereo::Matcher> key_frame_matcher,
    std::unique_ptr<KeyFrameSequencer> sequencer,
    StreamParams stream)
    : params_(std::move(params)),
      keyFrameSource_(std::move(key_frame_matcher)),
      sequencer_(std::move(sequencer))
{
    fatal_if(params_.propagationWindow < 1,
             "propagation window must be >= 1");
    fatal_if(!keyFrameSource_, "key-frame matcher is required");
    fatal_if(!sequencer_, "key-frame sequencer is required");
    fatal_if(stream.maxInFlight < 1, "maxInFlight must be >= 1");
    fatal_if(stream.workers < 0, "workers must be >= 0");

    maxInFlight_ = stream.maxInFlight;
    if (stream.sharedPool) {
        // Multiplexed serving: many pipelines on one injected pool.
        // The pool needs at least one worker thread — a pool of 1
        // runs submit() tasks inline, which would make a blocking
        // propagate stage deadlock the dispatcher.
        fatal_if(stream.sharedPool->numThreads() < 2,
                 "a shared StreamPipeline pool needs >= 2 threads "
                 "(N - 1 stage executors)");
        pool_ = stream.sharedPool;
        workers_ = pool_->numThreads() - 1;
    } else {
        workers_ = stream.workers > 0 ? stream.workers
                                      : ThreadPool::defaultThreads();
        // A pool of N owns N - 1 OS threads because parallelFor()
        // callers execute one chunk themselves; submit() callers do
        // not, so +1 yields exactly workers_ executor threads for
        // the stages.
        pool_ = std::make_shared<ThreadPool>(workers_ + 1);
    }
}

StreamPipeline::~StreamPipeline()
{
    // Every stage lambda captures `this`, so all of them must have
    // retired before the members go away. The completion counter
    // covers exactly that: a frame's final stage bumps completed_,
    // and its completion implies its flow-stage futures were
    // consumed. Waiting here (instead of relying on the pool join)
    // is what makes an injected shared pool safe — other pipelines'
    // stages keep running on it after this one is gone.
    {
        MutexLock lock(mutex_);
        while (completed_ < submitted_)
            lock.wait(backpressure_);
    }
    // Private pool: last owner, joins the executors. Shared pool:
    // just drops the reference.
    pool_.reset();
}

void
StreamPipeline::markFrameComplete()
{
    // Notify under the lock: the destructor may be waiting on
    // backpressure_, and with a shared executor pool nothing else
    // keeps this object alive until an unlocked notify finishes —
    // the waiter must not be able to wake, destroy the pipeline,
    // and leave this thread touching a dead condition variable.
    MutexLock lock(mutex_);
    ++completed_;
    backpressure_.notify_all();
}

int
StreamPipeline::inFlight() const
{
    MutexLock lock(mutex_);
    return static_cast<int>(submitted_ - completed_);
}

bool
StreamPipeline::frontReady() const
{
    if (slots_.empty())
        return false;
    return slots_.front().disparity.wait_for(
               std::chrono::seconds(0)) == std::future_status::ready;
}

int64_t
StreamPipeline::submit(const image::Image &left,
                       const image::Image &right)
{
    panic_if(left.width() != right.width() ||
                 left.height() != right.height(),
             "stereo pair size mismatch");

    // Backpressure: wait until fewer than maxInFlight frames are
    // submitted but uncomputed. Workers make progress independently
    // of this thread, so the wait always terminates.
    int64_t ticket;
    {
        MutexLock lock(mutex_);
        while (submitted_ - completed_ >= maxInFlight_)
            lock.wait(backpressure_);
        ticket = submitted_++;
    }

    // Mirror IsmPipeline::processFrame: drop temporal state on a
    // resolution change, then make the shared key/non-key decision
    // (ismDecideKeyFrame — the same code the serial loop runs, which
    // is what keeps the key-frame pattern and every downstream
    // result bit-identical). A default-constructed prevDisparity_
    // future is !valid(), standing in for the serial pipeline's
    // prevDisparity_.empty().
    if (prevLeft_ && (prevLeft_->width() != left.width() ||
                      prevLeft_->height() != left.height())) {
        prevLeft_.reset();
        prevRight_.reset();
        prevDisparity_ = {};
        // Shelved buffers are keyed to the old resolution and will
        // never be recycled again; drop them so cycling resolutions
        // keeps resident bytes bounded. Frames still in flight at
        // the old size simply re-shelve on retirement and are
        // trimmed at the next flip (or by setHighWaterBytes).
        buffers_->trim(0);
    }
    const bool is_key = ismDecideKeyFrame(
        *sequencer_, left, frameIndex_, prevDisparity_.valid());
    ++frameIndex_;

    // One snapshot per image (the caller may mutate its buffers
    // after submit returns); the stage lambdas share the snapshot
    // instead of deep-copying the frame per stage.
    auto left_ptr = std::make_shared<const image::Image>(left);
    auto right_ptr = std::make_shared<const image::Image>(right);

    Slot slot;
    slot.keyFrame = is_key;
    slot.arithmeticOps =
        is_key ? keyFrameSource_->ops(left.width(), left.height())
               : nonKeyFrameOps(left.width(), left.height(), params_);

    if (is_key) {
        // Key-frame inference depends only on the submitted pair.
        // The matcher contract (non-empty, pair-sized output) is
        // enforced here, at stage completion, so a misbehaving
        // engine fails this frame loudly instead of corrupting the
        // frames propagating from it.
        slot.disparity =
            pool_->submit([this, l = left_ptr, r = right_ptr]() {
                     FrameCompletion done(this);
                     stereo::DisparityMap d = keyFrameSource_->compute(
                         *l, *r, ExecContext(*pool_, *buffers_));
                     if (d.empty())
                         throw std::runtime_error(
                             "streaming key-frame matcher '" +
                             keyFrameSource_->name() +
                             "' returned an empty disparity map");
                     if (d.width() != l->width() ||
                         d.height() != l->height())
                         throw std::runtime_error(
                             "streaming key-frame matcher '" +
                             keyFrameSource_->name() + "' returned a " +
                             std::to_string(d.width()) + "x" +
                             std::to_string(d.height()) +
                             " disparity map for a " +
                             std::to_string(l->width()) + "x" +
                             std::to_string(l->height()) + " pair");
                     return d;
                 })
                .share();
    } else {
        // Flow estimation — the dominant non-key cost — needs only
        // the two input frames: dispatch both sides eagerly, in
        // parallel with the predecessor still in flight.
        auto flow_l =
            pool_->submit([this, from = prevLeft_, to = left_ptr]() {
                     return ismFlow(*from, *to, params_,
                                    ExecContext(*pool_, *buffers_));
                 })
                .share();
        auto flow_r =
            pool_->submit(
                     [this, from = prevRight_, to = right_ptr]() {
                         return ismFlow(*from, *to, params_,
                                        ExecContext(*pool_, *buffers_));
                     })
                .share();
        // Propagation chains on the predecessor's disparity future.
        // Safe to block in a worker: FIFO execution means every
        // future waited on here belongs to a task popped from the
        // queue earlier, so the dependency chain always bottoms out
        // at a running, non-blocking stage.
        auto prev = prevDisparity_;
        slot.disparity =
            pool_->submit([this, l = left_ptr, r = right_ptr,
                           flow_l, flow_r, prev]() {
                     FrameCompletion done(this);
                     return ismPropagate(*l, *r, prev.get(),
                                         flow_l.get(), flow_r.get(),
                                         params_,
                                         ExecContext(*pool_, *buffers_));
                 })
                .share();
    }

    prevLeft_ = std::move(left_ptr);
    prevRight_ = std::move(right_ptr);
    prevDisparity_ = slot.disparity;
    slots_.push_back(std::move(slot));
    return ticket;
}

IsmFrameResult
StreamPipeline::next()
{
    fatal_if(slots_.empty(), "next() called with no frame pending");
    Slot slot = std::move(slots_.front());
    slots_.pop_front();

    IsmFrameResult result;
    result.keyFrame = slot.keyFrame;
    result.arithmeticOps = slot.arithmeticOps;
    result.disparity = slot.disparity.get(); // blocks; may rethrow
    return result;
}

std::vector<IsmFrameResult>
StreamPipeline::drain()
{
    std::vector<IsmFrameResult> results;
    results.reserve(slots_.size());
    while (!slots_.empty())
        results.push_back(next());
    return results;
}

void
StreamPipeline::reset()
{
    // wait() never throws, so a poisoned stream is discarded
    // silently (unlike next()/drain(), which rethrow).
    for (const Slot &slot : slots_)
        slot.disparity.wait();
    slots_.clear();

    {
        MutexLock lock(mutex_);
        // Every frame's final stage has retired (its future is
        // ready), so the counters are quiescent.
        submitted_ = 0;
        completed_ = 0;
    }
    frameIndex_ = 0;
    prevLeft_.reset();
    prevRight_.reset();
    prevDisparity_ = {};
    sequencer_->reset();
    // All in-flight work has retired (every future above is ready),
    // so this empties the arena completely for the next sequence.
    buffers_->trim(0);
}

} // namespace asv::core
