#include "core/stream_pipeline.hh"

#include <chrono>
#include <stdexcept>
#include <utility>

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
    : sequence_(std::move(params), std::move(key_frame_matcher),
                std::move(sequencer))
{
    if (stream.maxInFlight < 1)
        throw std::invalid_argument("maxInFlight must be >= 1");
    if (stream.workers < 0)
        throw std::invalid_argument("workers must be >= 0");
    // A shared pool needs at least one worker thread — a pool of 1
    // runs submit() tasks inline, which would make a blocking
    // propagate stage deadlock the dispatcher.
    if (stream.sharedPool && stream.sharedPool->numThreads() < 2)
        throw std::invalid_argument(
            "a shared StreamPipeline pool needs >= 2 threads "
            "(N - 1 stage executors)");

    maxInFlight_ = stream.maxInFlight;
    if (stream.sharedPool) {
        // Multiplexed serving: many pipelines on one injected pool.
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
    // A key frame replaces all of the previous frame below, so a
    // resized pair needs nothing dropped here.
    const IsmAdmission admitted =
        sequence_.admit(left, right, prevDisparity_.valid());

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

    // One snapshot per image (the caller may mutate its buffers
    // after submit returns); the stage lambdas share the snapshot
    // instead of deep-copying the frame per stage.
    auto left_ptr = std::make_shared<const image::Image>(left);
    auto right_ptr = std::make_shared<const image::Image>(right);

    Slot slot;
    slot.keyFrame = admitted.keyFrame;
    slot.arithmeticOps = admitted.arithmeticOps;

    if (admitted.keyFrame) {
        // Key-frame inference depends only on the submitted pair.
        slot.disparity =
            pool_->submit([this, l = left_ptr, r = right_ptr]() {
                     FrameCompletion done(this);
                     return sequence_.computeKeyFrame(
                         *l, *r, context(), /*allow_empty=*/false);
                 })
                .share();
    } else {
        // Flow estimation — the dominant non-key cost — needs only
        // the two input frames: dispatch both sides eagerly, in
        // parallel with the predecessor still in flight.
        auto flow_l =
            pool_->submit([this, from = prevLeft_, to = left_ptr]() {
                     return ismFlow(*from, *to, params(), context());
                 })
                .share();
        auto flow_r =
            pool_->submit([this, from = prevRight_, to = right_ptr]() {
                     return ismFlow(*from, *to, params(), context());
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
                                         params(), context());
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
    if (slots_.empty())
        throw std::logic_error("next() called with no frame pending");
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
    sequence_.reset();
    prevLeft_.reset();
    prevRight_.reset();
    prevDisparity_ = {};
    // All in-flight work has retired (every future above is ready),
    // so this empties the arena completely for the next sequence.
    buffers().trim(0);
}

} // namespace asv::core
