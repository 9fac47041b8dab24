/**
 * @file
 * asv::serve::Server — the multi-stream serving frontend.
 *
 * The single-stream layers below (IsmPipeline, StreamPipeline) answer
 * "how fast can one camera go?". A deployment (ASV Sec. 6's
 * multi-camera rigs; any robot with more than one stereo head) asks
 * the dual question: how many *streams* fit on one machine? Running
 * one StreamPipeline per camera with private worker pools answers it
 * badly — N streams oversubscribe the machine with N * W threads and
 * nothing arbitrates between cameras. The Server multiplexes instead:
 *
 *   clients --> FrameQueue (lock-free MPSC) --> dispatcher thread
 *     --> per-stream StreamPipeline's, all sharing ONE ThreadPool
 *     --> per-stream ResultFn callbacks (exact submission order)
 *
 *  - **Submission** is wait-free for clients: one CAS plus two
 *    buffer-reusing image copies (see frame_queue.hh). submit()
 *    blocks only when the global ring is full (global backpressure);
 *    trySubmit() returns QueueFull instead and never blocks.
 *  - **Per-stream FIFO**: every frame gets a per-stream ticket in
 *    ring order, and results — computed, shed, or failed — are
 *    delivered to the stream's callback in exact ticket order.
 *  - **Load shedding**: each stream has a bounded pending queue
 *    (StreamConfig::maxQueued — per-stream backpressure). When it
 *    overflows, the oldest *non-key* pending frame is dropped — key
 *    frames anchor the propagation chain of every frame after them,
 *    so shedding one costs quality for a whole window, while a
 *    non-key frame only costs itself (the ASV asymmetry). Every
 *    shed frame is reported to the callback with ResultStatus::Shed
 *    at its ordered position — never silently lost. Streams compete
 *    for workers by priority (higher first, round-robin within).
 *  - **Stats/heartbeat**: stats() snapshots per-stream fps, queue
 *    depth, shed/rejected counts, pool hit-rate and worker
 *    utilization at any time from any thread; subscribe() registers
 *    a callback the heartbeat thread invokes every
 *    ServerConfig::heartbeatPeriod.
 *
 * Allocation contract: the serve-layer steady state — submit,
 * ring transfer, routing, shedding, shed delivery — allocates
 * nothing once warm; frame payloads circulate by std::swap between
 * the ring cells, the per-stream pending slots, and the dispatcher
 * scratch (tests/serve_test.cpp pins this with AllocTracker).
 * StreamPipeline's internal stage dispatch (one input snapshot and
 * a few control blocks per frame) is outside the contract; its
 * pixel buffers already recycle through each pipeline's BufferPool.
 *
 * Threading: openStream()/submit()/trySubmit() are safe from any
 * thread. stop()/drain() are driver-thread operations. The
 * dispatcher thread is the single driver of every pipeline (their
 * single-driver contract) and the single consumer of the ring; with
 * ServerConfig::manualDispatch the caller takes the dispatcher's
 * role by calling pump() (single-threaded serving — what the
 * alloc-guard test uses).
 */

#ifndef ASV_SERVE_SERVER_HH
#define ASV_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "serve/frame_queue.hh"
#include "serve/shm_transport.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"

namespace asv::serve
{

/** Outcome of submit()/trySubmit(). */
enum class SubmitStatus
{
    Accepted,      //!< frame is in the ring; a result will follow
    QueueFull,     //!< global ring full (trySubmit only — submit blocks)
    Closed,        //!< server stopping; frame not accepted
    UnknownStream, //!< no such stream id
};

/** How one frame's service ended. */
enum class ResultStatus
{
    Ok,     //!< disparity computed
    Shed,   //!< dropped by load shedding (disparity empty)
    Failed, //!< a stage threw; error carries the message
};

/** One delivered result. Delivered in ticket order per stream. */
struct ServeResult
{
    StreamId stream = -1;
    int64_t ticket = -1;         //!< per-stream submission index
    ResultStatus status = ResultStatus::Ok;
    bool keyFrame = false;
    stereo::DisparityMap disparity; //!< empty unless status == Ok
    std::string error;              //!< set when status == Failed
};

/** Per-stream result sink. Invoked on the dispatcher thread (or
 *  inside pump()): keep it cheap — heavy post-processing belongs on
 *  the client's side of a queue it owns. */
using ResultFn = std::function<void(ServeResult &&)>;

/** Heartbeat / stats snapshot callback. */
struct ServerStats;
using HeartbeatFn = std::function<void(const ServerStats &)>;

/** Per-stream configuration (fixed at openStream()). */
struct StreamConfig
{
    /** ISM parameters; propagationWindow also sets the key-frame
     *  cadence (ticket % window == 0 => key), matching the serial
     *  pipeline's StaticSequencer so serving results are
     *  bit-identical to a serial loop over the accepted frames. */
    core::IsmParams params;

    /** Key-frame engine (required). May be shared across streams —
     *  the Matcher contract allows concurrent compute() calls. */
    std::shared_ptr<const stereo::Matcher> matcher;

    /** Result sink (required). */
    ResultFn onResult;

    /** Streams with higher priority are dispatched first when
     *  workers are scarce; equal priorities round-robin. */
    int priority = 0;

    /** Pending-queue bound: frames accepted but not yet dispatched.
     *  Overflow triggers shedding (oldest non-key first). */
    int maxQueued = 8;

    /** Frames this stream may have inside its pipeline at once
     *  (StreamPipeline backpressure bound). */
    int maxInFlight = 2;

    /** Open the stream paused: frames queue (and shed) but are not
     *  dispatched until setPaused(id, false). */
    bool paused = false;
};

/** Server-wide configuration. */
struct ServerConfig
{
    /** Stage-executor threads shared by every stream's pipeline.
     *  0 = ThreadPool::defaultThreads() (honours ASV_THREADS). */
    int workers = 0;

    /** Global submission-ring capacity (rounded up to a power of
     *  two); full ring = global backpressure. */
    int queueCapacity = 256;

    /** Hard cap on openStream() calls (the stream table is
     *  preallocated so the hot path never reallocates it). */
    int maxStreams = 256;

    /** Heartbeat callback period; 0 disables the heartbeat thread
     *  (stats() polling still works). */
    std::chrono::milliseconds heartbeatPeriod{0};

    /** No dispatcher thread: the caller drives routing, dispatch
     *  and delivery by calling pump(). Single-threaded serving. */
    bool manualDispatch = false;
};

/** Point-in-time per-stream counters. */
struct StreamStats
{
    StreamId id = -1;
    int priority = 0;
    bool paused = false;
    int64_t submitted = 0; //!< submit()/trySubmit() attempts
    int64_t rejected = 0;  //!< not accepted (ring full / closed)
    int64_t accepted = 0;  //!< ticketed by the dispatcher
    int64_t shed = 0;      //!< dropped by load shedding
    int64_t completed = 0; //!< delivered Ok
    int64_t failed = 0;    //!< delivered Failed
    int64_t keyFrames = 0; //!< key frames delivered Ok
    int queueDepth = 0;    //!< pending (accepted, undispatched)
    int inFlight = 0;      //!< inside the pipeline
    double fps = 0.0;      //!< completed frames/sec since last snap
};

/** Point-in-time server-wide counters (see stats()). */
struct ServerStats
{
    std::vector<StreamStats> streams;
    int ringDepth = 0;    //!< frames in the global ring (approx)
    int ringCapacity = 0;
    int workers = 0;      //!< stage-executor threads
    int64_t accepted = 0; //!< frames accepted into the ring, total
    int64_t delivered = 0; //!< results delivered (Ok+Shed+Failed)
    uint64_t poolHits = 0;   //!< summed over stream BufferPools
    uint64_t poolMisses = 0;
    double poolHitRate = 0.0;  //!< hits / (hits + misses)
    uint64_t poolResidentBytes = 0;
    double utilization = 0.0; //!< in-flight stages / workers, <= 1
};

/**
 * The multi-stream serving frontend. See the file comment for the
 * architecture; construction starts the dispatcher (and heartbeat)
 * thread unless ServerConfig says otherwise.
 */
class Server
{
  public:
    /** Throws std::invalid_argument, before any thread starts, when
     *  workers < 0 or queueCapacity or maxStreams is < 1. */
    explicit Server(ServerConfig config = {});

    /** Stops the server (stop()), delivering all accepted frames of
     *  unpaused streams and shedding nothing extra. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Register a stream; returns its id (dense, starting at 0).
     * Safe while the server is running. Throws
     * std::invalid_argument when the matcher or callback is missing
     * or maxQueued, maxInFlight or params.propagationWindow is < 1,
     * and std::length_error when maxStreams is exhausted; either
     * way the server is left unchanged.
     */
    StreamId openStream(StreamConfig config);

    /**
     * Submit a stereo pair. Blocks while the global ring is full
     * (global backpressure — per-stream overflow sheds instead, it
     * never blocks other streams' clients). Safe from any thread;
     * concurrent submitters to the *same* stream are ordered by
     * their ring-claim order.
     */
    SubmitStatus submit(StreamId stream, const image::Image &left,
                        const image::Image &right);

    /** Like submit() but returns QueueFull instead of blocking. */
    SubmitStatus trySubmit(StreamId stream, const image::Image &left,
                           const image::Image &right);

    /** Pause/unpause dispatch for one stream (frames still queue
     *  and shed while paused). Throws std::invalid_argument for an
     *  id openStream() never returned. */
    void setPaused(StreamId stream, bool paused);

    /**
     * Wait until every accepted frame has been delivered (Ok, Shed
     * or Failed). Call only while no other thread is submitting and
     * no stream is paused — otherwise the target keeps moving and
     * drain() cannot terminate. In manualDispatch mode this pumps
     * on the calling thread until idle.
     */
    void drain();

    /**
     * Stop accepting frames, deliver everything already accepted
     * (paused streams' pending frames are shed — reported, not
     * lost), then join the dispatcher and heartbeat threads.
     * Idempotent.
     */
    void stop();

    /** Snapshot all counters. Safe from any thread. */
    ServerStats stats() const;

    /** Register a heartbeat subscriber (needs heartbeatPeriod > 0
     *  to ever fire); returns a token for unsubscribe(). Throws
     *  std::invalid_argument for an empty callback. */
    int subscribe(HeartbeatFn fn);
    void unsubscribe(int token);

    /**
     * manualDispatch mode: run one dispatcher pass (drain ring,
     * route/shed, dispatch to pipelines, deliver ready results) on
     * the calling thread. Returns true when it made progress.
     * Throws std::logic_error, touching no state, when a dispatcher
     * thread owns the server.
     */
    bool pump();

    /** The shared stage-executor pool (for co-scheduling ad-hoc
     *  work; see ThreadPool's FIFO contract before blocking in it). */
    const std::shared_ptr<ThreadPool> &pool() const { return pool_; }

    int numStreams() const
    {
        return numStreams_.load(std::memory_order_acquire);
    }

  private:
    struct StreamState;

    SubmitStatus submitImpl(StreamId stream, const image::Image &left,
                            const image::Image &right, bool blocking);
    bool pumpOnce();
    bool allWorkDelivered() const;
    void routeFrame(FrameQueue::Item &item);
    bool collectCompletions();
    bool dispatchPending();
    void flushIdleShed();
    void deliverShedGaps(StreamState &s, int64_t bound);
    bool finalizeStop();
    /** Pump until every accepted frame is delivered. */
    void pumpUntilStopped();
    ServerStats buildStats() const;
    void dispatcherMain();
    void heartbeatMain();
    void wakeDispatcher();

    ServerConfig config_;
    std::shared_ptr<ThreadPool> pool_;
    FrameQueue ring_;
    FrameQueue::Item scratch_; //!< dispatcher-only dequeue buffer

    // Stream table: preallocated to maxStreams (never reallocates),
    // entries published by bumping numStreams_ with release.
    std::vector<std::unique_ptr<StreamState>> streams_;
    std::atomic<int> numStreams_{0};
    mutable Mutex streamsMutex_; //!< serializes openStream()

    std::atomic<bool> stopping_{false};
    std::atomic<int64_t> acceptedTotal_{0};  //!< ring enqueues
    std::atomic<int64_t> deliveredTotal_{0}; //!< results delivered

    //! Fair-dispatch rotation within a priority tier (dispatcher
    //! thread only).
    int rrCursor_ = 0;

    // Producers park here under global backpressure; the dispatcher
    // notifies after freeing ring slots. Also doubles as the
    // drain() wait channel (deliveredTotal_ catching up). The
    // waiter counters keep the dispatcher's fast path free of
    // notification locking when nobody is parked.
    mutable Mutex waitMutex_;
    std::condition_variable spaceCv_;
    std::condition_variable drainCv_;
    std::condition_variable hbCv_; //!< wakes heartbeat on stop()
    std::atomic<int> submitWaiters_{0};
    std::atomic<int> drainWaiters_{0};

    // Dispatcher idle parking: producers ring the doorbell only
    // when the dispatcher flagged itself idle (uncontended fast
    // path on submission).
    Mutex wakeMutex_;
    std::condition_variable wakeCv_;
    std::atomic<bool> dispatcherIdle_{false};

    mutable Mutex hbMutex_;
    std::vector<std::pair<int, HeartbeatFn>>
        subscribers_ ASV_GUARDED_BY(hbMutex_);
    int nextToken_ ASV_GUARDED_BY(hbMutex_) = 0;

    // fps bookkeeping for buildStats(): last snapshot time and the
    // per-stream completed count at that time.
    mutable Mutex fpsMutex_;
    mutable std::chrono::steady_clock::time_point
        fpsStamp_ ASV_GUARDED_BY(fpsMutex_);
    mutable std::vector<int64_t>
        fpsCompleted_ ASV_GUARDED_BY(fpsMutex_);
    mutable std::vector<double> fpsValue_ ASV_GUARDED_BY(fpsMutex_);

    std::thread dispatcher_;
    std::thread heartbeat_;
};

/**
 * Bridge the SHM transport into a server: read every frame the
 * writer has published since @p next_frame_id (exclusive of frames
 * already consumed), submit each to @p stream, and advance
 * @p next_frame_id. Frames the writer overwrote before we got to
 * them are counted as skipped (reported via the return value and a
 * warn()); corrupt slots likewise. Returns the number of frames
 * submitted. Call in a loop (it never blocks on the writer).
 */
struct ShmIngestResult
{
    int submitted = 0;
    int skipped = 0; //!< overwritten while we lagged
    int corrupt = 0; //!< checksum failures (slot skipped)
};
ShmIngestResult ingestShmFrames(const ShmFrameReader &reader,
                                Server &server, StreamId stream,
                                uint64_t &next_frame_id);

} // namespace asv::serve

#endif // ASV_SERVE_SERVER_HH
