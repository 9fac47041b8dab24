/**
 * @file
 * Server implementation: the dispatcher loop and its bookkeeping.
 *
 * Everything the dispatcher owns — per-stream pending queues and the
 * ticket FIFOs mirroring each pipeline's reorder buffer — lives in
 * fixed-capacity rings whose elements are never destroyed, only
 * swapped, so the steady-state pass allocates nothing (the contract
 * in server.hh). The delivery-order invariant maintained throughout:
 * per stream, every result (Ok, Shed, Failed) is handed to the
 * callback in strictly increasing ticket order.
 *
 * Shed notifications are *synthesized*, not stored. Tickets are
 * issued densely, the pending ring holds strictly increasing
 * tickets, and dispatch always takes pending.front(), so pipeline
 * tickets are all older than pending tickets. Hence every ticket
 * below the stream's smallest outstanding ticket (front of the
 * pipeline FIFO, else front of the pending queue, else nextTicket)
 * that has not been delivered yet is — by elimination — shed. A
 * single per-stream cursor (nextDeliver) therefore reconstructs the
 * exact shed set in order, with no backlog structure that a
 * flooding client could overflow: the count of undelivered sheds is
 * unbounded (client rate x compute latency) but their *storage* is
 * one integer.
 */

#include "serve/server.hh"

#include <algorithm>
#include <climits>
#include <cstddef>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/logging.hh"
#include "core/sequencer.hh"
#include "core/stream_pipeline.hh"

namespace asv::serve
{

namespace
{

/**
 * Key-frame policy that replays the dispatcher's decision. The
 * server tags frames key/non-key when it tickets them (ticket %
 * propagationWindow == 0 — the StaticSequencer cadence over
 * *accepted* frames, which is what keeps served results
 * bit-identical to a serial loop over the same frames). The
 * pipeline's own sequencer must then agree with the tag, so this
 * one just echoes it: the dispatcher calls setNext() immediately
 * before StreamPipeline::submit() on the same thread. A forced key
 * frame only happens on a stream's first frame, which the cadence
 * already tags as key, so keyFrameForced() keeps its no-op default.
 */
class ServeSequencer : public core::KeyFrameSequencer
{
  public:
    void setNext(bool key) { next_ = key; }

    bool
    isKeyFrame(const image::Image &left, int64_t frame_index) override
    {
        (void)left;
        (void)frame_index;
        return next_;
    }

    void reset() override { next_ = true; }

  private:
    bool next_ = true;
};

/**
 * Fixed-capacity FIFO whose elements are constructed once and only
 * ever swapped — pop/remove rotate storage, never destroy it, so
 * element payloads (image buffers) keep circulating allocation-free.
 * Dispatcher-thread-only; not synchronized.
 */
template <typename T>
class BoundedRing
{
  public:
    explicit BoundedRing(int capacity) : slots_(capacity)
    {
        panic_if(capacity < 1, "BoundedRing capacity must be >= 1");
    }

    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == static_cast<int>(slots_.size()); }
    int size() const { return size_; }

    T &at(int i) { return slots_[(head_ + i) % slots_.size()]; }
    T &front() { return at(0); }

    /** Claim the next slot (caller fills it, typically by swap). */
    T &
    pushSlot()
    {
        panic_if(full(), "BoundedRing overflow");
        T &slot = at(size_);
        ++size_;
        return slot;
    }

    /** Retire the front slot; its storage stays for the next lap. */
    void
    popFront()
    {
        panic_if(empty(), "BoundedRing underflow");
        head_ = (head_ + 1) % static_cast<int>(slots_.size());
        --size_;
    }

    /** Remove element @p i preserving the order of the rest (the
     *  removed element's storage rotates to the spare back slot). */
    void
    removeAt(int i)
    {
        panic_if(i < 0 || i >= size_, "BoundedRing bad removeAt");
        for (int j = i; j + 1 < size_; ++j)
            std::swap(at(j), at(j + 1));
        --size_;
    }

  private:
    std::vector<T> slots_;
    int head_ = 0;
    int size_ = 0;
};

/** A bad client configuration: std::invalid_argument naming it. */
void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::invalid_argument(what);
}

/** @p config, or std::invalid_argument naming its bad field: runs
 *  before the server builds its pool or ring, so a bad config
 *  starts no thread. */
const ServerConfig &
checkedConfig(const ServerConfig &config)
{
    require(config.workers >= 0, "ServerConfig workers must be >= 0");
    require(config.queueCapacity >= 1,
            "ServerConfig queueCapacity must be >= 1");
    require(config.maxStreams >= 1, "ServerConfig maxStreams must be >= 1");
    return config;
}

} // namespace

/** All dispatcher- and client-side state of one open stream. */
struct Server::StreamState
{
    /** One accepted-but-undispatched frame (storage persists). */
    struct Pending
    {
        int64_t ticket = -1;
        bool key = false;
        image::Image left;
        image::Image right;
    };

    StreamState(StreamId sid, StreamConfig cfg)
        : id(sid), config(std::move(cfg)), pending(config.maxQueued),
          pipelineTickets(config.maxQueued + 2 * config.maxInFlight +
                          8)
    {
        paused.store(config.paused, std::memory_order_relaxed);
    }

    StreamId id;
    StreamConfig config;
    std::unique_ptr<core::StreamPipeline> pipeline;
    ServeSequencer *sequencer = nullptr; //!< owned by the pipeline

    // --- dispatcher-thread-only ---
    BoundedRing<Pending> pending;
    //! Tickets of frames inside the pipeline, in submission order
    //! (the pipeline delivers FIFO, so front() names next()'s frame).
    BoundedRing<int64_t> pipelineTickets;
    int64_t nextTicket = 0;
    //! Next ticket to deliver; tickets in [nextDeliver, smallest
    //! outstanding) are shed by elimination (see file comment).
    int64_t nextDeliver = 0;

    // --- shared counters (relaxed: stats/heartbeat only) ---
    std::atomic<int64_t> submitted{0};
    std::atomic<int64_t> rejected{0};
    std::atomic<int64_t> accepted{0};
    std::atomic<int64_t> shed{0};
    std::atomic<int64_t> completed{0};
    std::atomic<int64_t> failed{0};
    std::atomic<int64_t> keyFrames{0};
    std::atomic<int> queueDepth{0};
    std::atomic<bool> paused{false};
};

Server::Server(ServerConfig config)
    : config_(checkedConfig(config)),
      pool_(std::make_shared<ThreadPool>(
          (config.workers > 0 ? config.workers
                              : ThreadPool::defaultThreads()) +
          1)),
      ring_(config.queueCapacity)
{
    // Preallocated so openStream() never moves live StreamStates
    // under the dispatcher's feet (publication is the numStreams_
    // release store).
    streams_.reserve(static_cast<size_t>(config_.maxStreams));
    {
        MutexLock lock(fpsMutex_);
        fpsStamp_ = std::chrono::steady_clock::now();
    }
    dispatcher_ = std::thread(&Server::dispatcherMain, this);
    if (config_.heartbeatPeriod.count() > 0)
        heartbeat_ = std::thread(&Server::heartbeatMain, this);
}

Server::~Server()
{
    stop();
}

StreamId
Server::openStream(StreamConfig config)
{
    // A bad client request is the client's error, not the server's:
    // reject it before touching any state.
    require(config.onResult != nullptr,
            "StreamConfig needs a result callback");
    require(config.maxQueued >= 1, "StreamConfig maxQueued must be >= 1");
    // The pipeline checks the rest (matcher, maxInFlight, propagation
    // window) and throws std::invalid_argument. It is built before
    // anything sized from the config, such as the ticket ring.
    auto sequencer = std::make_unique<ServeSequencer>();
    ServeSequencer *serve_sequencer = sequencer.get();
    core::StreamParams sp;
    sp.maxInFlight = config.maxInFlight;
    sp.sharedPool = pool_;
    auto pipeline = std::make_unique<core::StreamPipeline>(
        config.params, config.matcher, std::move(sequencer), sp);

    MutexLock lock(streamsMutex_);
    const int id = numStreams_.load(std::memory_order_relaxed);
    if (id >= config_.maxStreams)
        throw std::length_error(
            "Server stream table full (maxStreams = " +
            std::to_string(config_.maxStreams) + ")");

    auto state = std::make_unique<StreamState>(
        static_cast<StreamId>(id), std::move(config));
    state->sequencer = serve_sequencer;
    state->pipeline = std::move(pipeline);

    streams_.push_back(std::move(state));
    numStreams_.store(id + 1, std::memory_order_release);
    return static_cast<StreamId>(id);
}

void
Server::setPaused(StreamId stream, bool paused)
{
    if (stream < 0 ||
        stream >= numStreams_.load(std::memory_order_acquire))
        throw std::invalid_argument("setPaused on unknown stream " +
                                    std::to_string(stream));
    streams_[static_cast<size_t>(stream)]->paused.store(
        paused, std::memory_order_relaxed);
    if (!paused)
        wakeDispatcher();
}

SubmitStatus
Server::submit(StreamId stream, const image::Image &left,
               const image::Image &right)
{
    return submitImpl(stream, left, right, /*blocking=*/true);
}

SubmitStatus
Server::trySubmit(StreamId stream, const image::Image &left,
                  const image::Image &right)
{
    return submitImpl(stream, left, right, /*blocking=*/false);
}

SubmitStatus
Server::submitImpl(StreamId stream, const image::Image &left,
                   const image::Image &right, bool blocking)
{
    if (stream < 0 ||
        stream >= numStreams_.load(std::memory_order_acquire))
        return SubmitStatus::UnknownStream;
    StreamState &s = *streams_[static_cast<size_t>(stream)];
    s.submitted.fetch_add(1, std::memory_order_relaxed);

    while (!stopping_.load(std::memory_order_acquire)) {
        if (ring_.tryEnqueue(stream, left, right)) {
            acceptedTotal_.fetch_add(1, std::memory_order_relaxed);
            wakeDispatcher();
            return SubmitStatus::Accepted;
        }
        if (!blocking) {
            s.rejected.fetch_add(1, std::memory_order_relaxed);
            return SubmitStatus::QueueFull;
        }
        // Global backpressure: park until the dispatcher frees ring
        // slots. The timed wait covers the benign race where the
        // dispatcher notifies between our enqueue attempt and the
        // wait (no slot is ever lost, only up to 200us of latency).
        submitWaiters_.fetch_add(1, std::memory_order_relaxed);
        {
            MutexLock lock(waitMutex_);
            spaceCv_.wait_for(lock.native(),
                              std::chrono::microseconds(200));
        }
        submitWaiters_.fetch_sub(1, std::memory_order_relaxed);
    }
    s.rejected.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::Closed;
}

void
Server::wakeDispatcher()
{
    // Uncontended fast path: the doorbell is only rung when the
    // dispatcher flagged itself idle.
    if (!dispatcherIdle_.load(std::memory_order_acquire))
        return;
    MutexLock lock(wakeMutex_);
    wakeCv_.notify_all();
}

bool
Server::allWorkDelivered() const
{
    // Acquire so a drain()er returning observes every callback's
    // side effects (deliveredTotal_ is bumped after each callback).
    return deliveredTotal_.load(std::memory_order_acquire) ==
               acceptedTotal_.load(std::memory_order_acquire) &&
           ring_.approxSize() == 0;
}

void
Server::drain()
{
    drainWaiters_.fetch_add(1, std::memory_order_relaxed);
    {
        MutexLock lock(waitMutex_);
        while (!allWorkDelivered())
            drainCv_.wait_for(lock.native(),
                              std::chrono::microseconds(500));
    }
    drainWaiters_.fetch_sub(1, std::memory_order_relaxed);
}

void
Server::stop()
{
    stopping_.store(true);
    {
        MutexLock lock(wakeMutex_);
        wakeCv_.notify_all();
    }
    {
        MutexLock lock(waitMutex_);
        spaceCv_.notify_all();
        drainCv_.notify_all();
        hbCv_.notify_all();
    }
    if (dispatcher_.joinable())
        dispatcher_.join();
    if (heartbeat_.joinable())
        heartbeat_.join();
}

bool
Server::pumpOnce()
{
    bool progress = false;

    // 1. Drain the global ring into per-stream queues (shedding on
    //    per-stream overflow).
    int drained = 0;
    while (ring_.tryDequeue(scratch_)) {
        routeFrame(scratch_);
        ++drained;
    }
    if (drained > 0) {
        progress = true;
        if (submitWaiters_.load(std::memory_order_relaxed) > 0) {
            MutexLock lock(waitMutex_);
            spaceCv_.notify_all();
        }
    }

    // 2. Deliver every result that is already computed (never
    //    blocks: frontReady() gates next()).
    if (collectCompletions())
        progress = true;

    // 3. Feed pipelines from the pending queues, highest priority
    //    first.
    if (dispatchPending())
        progress = true;

    // 4. Shed notifications that became deliverable above.
    flushIdleShed();

    if (drainWaiters_.load(std::memory_order_relaxed) > 0) {
        MutexLock lock(waitMutex_);
        drainCv_.notify_all();
    }
    return progress;
}

void
Server::routeFrame(FrameQueue::Item &item)
{
    StreamState &s = *streams_[static_cast<size_t>(item.stream)];
    const int64_t ticket = s.nextTicket++;
    const bool key =
        ticket % s.config.params.propagationWindow == 0;
    s.accepted.fetch_add(1, std::memory_order_relaxed);

    if (s.pending.full()) {
        // Load shedding: evict the oldest *non-key* frame — a key
        // frame anchors the propagation of a whole window behind
        // it, a non-key frame only costs itself.
        int victim = -1;
        for (int i = 0; i < s.pending.size(); ++i) {
            if (!s.pending.at(i).key) {
                victim = i;
                break;
            }
        }
        if (victim < 0) {
            // Every queued frame is a key frame: shed the incoming
            // frame instead (queued keys are never evicted). The
            // ticket never enters pending, so gap synthesis will
            // deliver its Shed notification in order.
            s.shed.fetch_add(1, std::memory_order_relaxed);
            return; // item keeps its buffers for the next dequeue
        }
        s.shed.fetch_add(1, std::memory_order_relaxed);
        s.pending.removeAt(victim);
    }

    StreamState::Pending &slot = s.pending.pushSlot();
    slot.ticket = ticket;
    slot.key = key;
    std::swap(slot.left, item.left);
    std::swap(slot.right, item.right);
    s.queueDepth.store(s.pending.size(), std::memory_order_relaxed);
}

void
Server::deliverShedGaps(StreamState &s, int64_t bound)
{
    // Every undelivered ticket below the smallest outstanding one is
    // shed by elimination (file comment); emit them in order.
    while (s.nextDeliver < bound) {
        ServeResult res;
        res.stream = s.id;
        res.ticket = s.nextDeliver++;
        res.status = ResultStatus::Shed;
        res.keyFrame =
            res.ticket % s.config.params.propagationWindow == 0;
        s.config.onResult(std::move(res));
        deliveredTotal_.fetch_add(1, std::memory_order_release);
    }
}

bool
Server::collectCompletions()
{
    bool progress = false;
    const int n = numStreams_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
        StreamState &s = *streams_[static_cast<size_t>(i)];
        while (!s.pipelineTickets.empty() &&
               s.pipeline->frontReady()) {
            const int64_t ticket = s.pipelineTickets.front();
            s.pipelineTickets.popFront();
            // Shed notifications older than this result go first —
            // that is what makes delivery strictly ticket-ordered.
            deliverShedGaps(s, ticket);
            panic_if(s.nextDeliver != ticket,
                     "stream ", s.id, ": delivery-order invariant "
                     "broken (nextDeliver ", s.nextDeliver,
                     ", completing ticket ", ticket, ")");
            s.nextDeliver = ticket + 1;

            ServeResult res;
            res.stream = s.id;
            res.ticket = ticket;
            try {
                core::IsmFrameResult frame = s.pipeline->next();
                res.status = ResultStatus::Ok;
                res.keyFrame = frame.keyFrame;
                res.disparity = std::move(frame.disparity);
                s.completed.fetch_add(1, std::memory_order_relaxed);
                if (res.keyFrame)
                    s.keyFrames.fetch_add(1,
                                          std::memory_order_relaxed);
            } catch (const std::exception &e) {
                res.status = ResultStatus::Failed;
                res.error = e.what();
                s.failed.fetch_add(1, std::memory_order_relaxed);
            }
            s.config.onResult(std::move(res));
            deliveredTotal_.fetch_add(1, std::memory_order_release);
            progress = true;
        }
    }
    return progress;
}

bool
Server::dispatchPending()
{
    const int n = numStreams_.load(std::memory_order_acquire);
    if (n == 0)
        return false;
    bool any = false;
    for (;;) {
        // Highest priority wins; the rotating cursor breaks ties
        // round-robin so equal-priority streams share the workers.
        int best = -1;
        int best_priority = INT_MIN;
        for (int k = 0; k < n; ++k) {
            const int i = (rrCursor_ + k) % n;
            StreamState &s = *streams_[static_cast<size_t>(i)];
            if (s.pending.empty() ||
                s.paused.load(std::memory_order_relaxed) ||
                s.pipelineTickets.full())
                continue;
            if (s.pipeline->inFlight() >= s.config.maxInFlight)
                continue;
            if (s.config.priority > best_priority) {
                best_priority = s.config.priority;
                best = i;
            }
        }
        if (best < 0)
            break;

        StreamState &s = *streams_[static_cast<size_t>(best)];
        StreamState::Pending &p = s.pending.front();
        // Same thread, synchronously consumed inside submit():
        // the sequencer replays the routing-time key decision.
        s.sequencer->setNext(p.key);
        // Never blocks: inFlight < maxInFlight was checked above
        // and only ever decreases under us (workers completing).
        s.pipeline->submit(p.left, p.right);
        s.pipelineTickets.pushSlot() = p.ticket;
        s.pending.popFront();
        s.queueDepth.store(s.pending.size(),
                           std::memory_order_relaxed);
        rrCursor_ = (best + 1) % n;
        any = true;
    }
    return any;
}

void
Server::flushIdleShed()
{
    const int n = numStreams_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
        StreamState &s = *streams_[static_cast<size_t>(i)];
        // Smallest ticket that could still produce a non-shed
        // result; every gap below it is safe to deliver as Shed.
        int64_t bound;
        if (!s.pipelineTickets.empty())
            bound = s.pipelineTickets.front();
        else if (!s.pending.empty())
            bound = s.pending.front().ticket;
        else
            bound = s.nextTicket;
        deliverShedGaps(s, bound);
    }
}

bool
Server::finalizeStop()
{
    bool done = true;
    const int n = numStreams_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
        StreamState &s = *streams_[static_cast<size_t>(i)];
        if (s.paused.load(std::memory_order_relaxed)) {
            // A paused stream will never dispatch again: shed its
            // queued frames. Their tickets become gaps, delivered in
            // ticket order behind whatever is still in its pipeline
            // (pending tickets are all newer).
            s.shed.fetch_add(s.pending.size(), std::memory_order_relaxed);
            while (!s.pending.empty())
                s.pending.popFront();
            s.queueDepth.store(0, std::memory_order_relaxed);
            deliverShedGaps(s, s.pipelineTickets.empty()
                                   ? s.nextTicket
                                   : s.pipelineTickets.front());
        }
        if (!s.pending.empty() || !s.pipelineTickets.empty() ||
            s.nextDeliver != s.nextTicket)
            done = false;
    }
    return done && ring_.approxSize() == 0;
}

void
Server::dispatcherMain()
{
    while (!stopping_.load(std::memory_order_acquire)) {
        if (!pumpOnce()) {
            // Park briefly. The timed wait (rather than an
            // indefinite one) covers both the completion-polling
            // role of this loop (pipelines have no completion
            // doorbell) and the benign race where a producer checks
            // the idle flag just before we set it.
            dispatcherIdle_.store(true, std::memory_order_release);
            {
                MutexLock lock(wakeMutex_);
                wakeCv_.wait_for(lock.native(),
                                 std::chrono::microseconds(200));
            }
            dispatcherIdle_.store(false, std::memory_order_release);
        }
    }
    // Stopping: deliver every accepted frame before exiting.
    for (;;) {
        const bool progress = pumpOnce();
        if (finalizeStop() && !progress)
            break;
        if (!progress)
            std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    MutexLock lock(waitMutex_);
    drainCv_.notify_all();
    spaceCv_.notify_all();
}

void
Server::heartbeatMain()
{
    for (;;) {
        {
            const auto deadline =
                std::chrono::steady_clock::now() +
                config_.heartbeatPeriod;
            MutexLock lock(waitMutex_);
            while (!stopping_.load(std::memory_order_acquire) &&
                   std::chrono::steady_clock::now() < deadline)
                hbCv_.wait_until(lock.native(), deadline);
        }
        if (stopping_.load(std::memory_order_acquire))
            return;
        const ServerStats snapshot = buildStats();
        std::vector<std::pair<int, HeartbeatFn>> subscribers;
        {
            MutexLock lock(hbMutex_);
            subscribers = subscribers_;
        }
        for (const auto &[token, fn] : subscribers)
            fn(snapshot);
    }
}

int
Server::subscribe(HeartbeatFn fn)
{
    if (!fn)
        throw std::invalid_argument("subscribe() needs a callback");
    MutexLock lock(hbMutex_);
    const int token = nextToken_++;
    subscribers_.emplace_back(token, std::move(fn));
    return token;
}

void
Server::unsubscribe(int token)
{
    MutexLock lock(hbMutex_);
    for (size_t i = 0; i < subscribers_.size(); ++i) {
        if (subscribers_[i].first == token) {
            subscribers_.erase(subscribers_.begin() +
                               static_cast<ptrdiff_t>(i));
            return;
        }
    }
}

ServerStats
Server::stats() const
{
    return buildStats();
}

ServerStats
Server::buildStats() const
{
    ServerStats out;
    const int n = numStreams_.load(std::memory_order_acquire);
    out.streams.reserve(static_cast<size_t>(n));
    out.ringCapacity = ring_.capacity();
    out.ringDepth = ring_.approxSize();
    out.workers = pool_->numThreads() - 1;
    out.accepted = acceptedTotal_.load(std::memory_order_acquire);
    out.delivered = deliveredTotal_.load(std::memory_order_acquire);

    int total_in_flight = 0;
    for (int i = 0; i < n; ++i) {
        const StreamState &s = *streams_[static_cast<size_t>(i)];
        StreamStats st;
        st.id = s.id;
        st.priority = s.config.priority;
        st.paused = s.paused.load(std::memory_order_relaxed);
        st.submitted = s.submitted.load(std::memory_order_relaxed);
        st.rejected = s.rejected.load(std::memory_order_relaxed);
        st.accepted = s.accepted.load(std::memory_order_relaxed);
        st.shed = s.shed.load(std::memory_order_relaxed);
        st.completed = s.completed.load(std::memory_order_relaxed);
        st.failed = s.failed.load(std::memory_order_relaxed);
        st.keyFrames = s.keyFrames.load(std::memory_order_relaxed);
        st.queueDepth = s.queueDepth.load(std::memory_order_relaxed);
        st.inFlight = s.pipeline->inFlight();
        total_in_flight += st.inFlight;
        const BufferPool::Stats bp = s.pipeline->buffers().stats();
        out.poolHits += bp.hits;
        out.poolMisses += bp.misses;
        out.poolResidentBytes += bp.residentBytes;
        out.streams.push_back(std::move(st));
    }
    const uint64_t acquires = out.poolHits + out.poolMisses;
    out.poolHitRate =
        acquires ? static_cast<double>(out.poolHits) /
                       static_cast<double>(acquires)
                 : 0.0;
    out.utilization = std::min(
        1.0, static_cast<double>(total_in_flight) /
                 static_cast<double>(std::max(1, out.workers)));

    // fps: completed-per-second since the last snapshot at least
    // 50ms old (closer calls reuse the previous rate so two nearby
    // pollers don't read fps = 0 from a tiny dt).
    {
        MutexLock lock(fpsMutex_);
        if (fpsCompleted_.size() < static_cast<size_t>(n)) {
            fpsCompleted_.resize(static_cast<size_t>(n), 0);
            fpsValue_.resize(static_cast<size_t>(n), 0.0);
        }
        const auto now = std::chrono::steady_clock::now();
        const double dt =
            std::chrono::duration<double>(now - fpsStamp_).count();
        if (dt >= 0.05) {
            for (int i = 0; i < n; ++i) {
                const int64_t done = out.streams[static_cast<size_t>(
                                                     i)]
                                         .completed;
                fpsValue_[static_cast<size_t>(i)] =
                    static_cast<double>(
                        done - fpsCompleted_[static_cast<size_t>(i)]) /
                    dt;
                fpsCompleted_[static_cast<size_t>(i)] = done;
            }
            fpsStamp_ = now;
        }
        for (int i = 0; i < n; ++i)
            out.streams[static_cast<size_t>(i)].fps =
                fpsValue_[static_cast<size_t>(i)];
    }
    return out;
}

ShmIngestResult
ingestShmFrames(const ShmFrameReader &reader, Server &server,
                StreamId stream, uint64_t &next_frame_id)
{
    ShmIngestResult result;
    ShmFrame frame;
    const uint64_t newest = reader.nextFrameId();
    while (next_frame_id < newest) {
        switch (reader.tryRead(next_frame_id, frame)) {
          case ShmReadStatus::Ok:
            server.submit(stream, frame.left, frame.right);
            ++result.submitted;
            ++next_frame_id;
            break;
          case ShmReadStatus::Overwritten:
            // Fell a full ring lap behind the writer; the frame is
            // gone but the loss is accounted, never silent.
            ++result.skipped;
            ++next_frame_id;
            break;
          case ShmReadStatus::Corrupt:
            warn("SHM frame ", next_frame_id,
                 " failed its checksum; skipping");
            ++result.corrupt;
            ++next_frame_id;
            break;
          case ShmReadStatus::NotReady:
            // Writer mid-publish (or crashed mid-write): retry on
            // the caller's next poll.
            return result;
        }
    }
    return result;
}

} // namespace asv::serve
