/**
 * @file
 * Minimal fixed-size thread pool and deterministic parallel-for.
 *
 * Design goals, in priority order:
 *
 *  1. **Bit-identical results.** parallelFor() statically partitions
 *     the iteration range into at most numThreads() contiguous chunks.
 *     Each index is visited exactly once, by exactly one thread, in
 *     ascending order within its chunk. Any kernel whose per-index
 *     work only writes locations derived from that index therefore
 *     produces output identical to the serial loop, for any worker
 *     count. With one worker the body runs inline on the caller —
 *     the exact serial code path, no pool machinery involved.
 *  2. **No surprises.** Worker count is fixed at construction; the
 *     global pool honours the ASV_THREADS environment variable
 *     (1 = serial). Nested parallelFor() calls on the same pool
 *     degrade to serial execution instead of deadlocking; nesting
 *     across different pools still parallelizes.
 *  3. **Zero allocations on the dispatch path.** parallelFor() /
 *     parallelForChunks() are templates that erase the body to a
 *     plain function pointer plus the caller's stack address — no
 *     std::function, no per-chunk task boxing, no partition vector.
 *     The fan-out is one stack-allocated bulk-job descriptor linked
 *     into an intrusive list under the pool mutex; workers claim
 *     chunk indices from it and compute their bounds arithmetically.
 *     This is what lets the pooled engines hit the exact-zero
 *     steady-state allocation gate (BASELINE_alloc.json).
 *
 * Scheduling note: queued submit() tasks take priority over bulk
 * jobs (the order chunk tasks historically entered the queue), and
 * the parallelFor() caller claims any chunk no worker has picked up
 * yet, so a loop never stalls behind long-running tasks. A
 * parallelFor() body must not block on a submit() future — with
 * every worker busy inside the same loop there may be nobody left
 * to run the task (the kernels in this tree never do this).
 *
 * This is the enabling layer for the row/disparity-level parallelism
 * that real-time stereo systems exploit (census, SGM aggregation,
 * SAD search); see ISSUE/ROADMAP.
 */

#ifndef ASV_COMMON_THREAD_POOL_HH
#define ASV_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"

namespace asv
{

class ThreadPool
{
  public:
    /**
     * Type-erased chunk body: @p ctx is the address of the caller's
     * callable, alive for the whole parallelForRaw() call.
     */
    using RawChunkBody = void (*)(void *ctx, int64_t first,
                                  int64_t last, int chunk);

    /**
     * Create a pool with @p threads workers. 0 means "use
     * defaultThreads()". A pool of 1 spawns no OS threads at all.
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count this pool partitions work across (>= 1). */
    int numThreads() const { return numThreads_; }

    /**
     * Static partition of [begin, end) into at most @p chunks
     * contiguous, ascending, non-overlapping [first, last) ranges
     * whose sizes differ by at most one. Deterministic: depends only
     * on the arguments. parallelFor() computes exactly these bounds
     * (arithmetically, without materializing the vector).
     */
    static std::vector<std::pair<int64_t, int64_t>>
    partition(int64_t begin, int64_t end, int chunks);

    /**
     * Run body(first, last) over a static partition of [begin, end)
     * into numThreads() chunks, blocking until every chunk finished.
     * Chunk c is executed by exactly one thread; the caller executes
     * chunk 0 itself (plus any chunk no worker claimed). With
     * numThreads() == 1 (or a nested call from inside a worker) this
     * is exactly `body(begin, end)` inline. Allocation-free.
     */
    template <typename F>
    void
    parallelFor(int64_t begin, int64_t end, F &&body)
    {
        using Fn = std::remove_reference_t<F>;
        parallelForRaw(
            begin, end,
            [](void *c, int64_t first, int64_t last, int) {
                (*static_cast<Fn *>(c))(first, last);
            },
            const_cast<void *>(
                static_cast<const void *>(std::addressof(body))));
    }

    /**
     * As parallelFor(), but the body also receives the chunk index
     * (0-based, < partition size). Lets callers keep per-chunk
     * accumulators that are reduced deterministically afterwards.
     */
    template <typename F>
    void
    parallelForChunks(int64_t begin, int64_t end, F &&body)
    {
        using Fn = std::remove_reference_t<F>;
        parallelForRaw(
            begin, end,
            [](void *c, int64_t first, int64_t last, int chunk) {
                (*static_cast<Fn *>(c))(first, last, chunk);
            },
            const_cast<void *>(
                static_cast<const void *>(std::addressof(body))));
    }

    /**
     * The non-template core of parallelFor(): dispatch
     * body(ctx, first, last, chunk) over the static partition.
     * @p ctx must stay valid until this call returns (it does — the
     * call blocks on completion of every chunk).
     */
    void parallelForRaw(int64_t begin, int64_t end, RawChunkBody body,
                        void *ctx);

    /**
     * Enqueue an arbitrary task and return a std::future for its
     * result. Tasks are executed by the pool's worker threads in FIFO
     * order (the dependency-safety property StreamPipeline relies
     * on: a task only ever waits on futures of tasks submitted
     * before it, which are popped from the queue first). A pool of 1
     * has no worker threads, so the task runs inline in submit() —
     * the returned future is already ready.
     *
     * Unlike parallelFor(), the caller does not participate in
     * execution: a pool of N runs at most N - 1 submitted tasks
     * concurrently.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        // packaged_task is move-only but std::function requires
        // copyable callables; shared_ptr bridges the two.
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        bool inline_run;
        {
            MutexLock lock(mutex_);
            inline_run = workers_.empty() || stop_;
            if (!inline_run)
                tasks_.emplace_back([task] { (*task)(); });
        }
        if (inline_run)
            (*task)();
        else
            wake_.notify_one();
        return future;
    }

    /**
     * Worker count used by default-constructed pools: the ASV_THREADS
     * environment variable if set to a positive integer, else
     * std::thread::hardware_concurrency(), else 1.
     */
    static int defaultThreads();

    /**
     * Process-wide shared pool, lazily created with defaultThreads()
     * workers. Reconfigure with setGlobalThreads().
     */
    static ThreadPool &global();

    /**
     * Replace the global pool with one of @p threads workers
     * (0 = defaultThreads()). Not safe to call while other threads
     * are using the global pool; intended for tests and start-up.
     */
    static void setGlobalThreads(int threads);

  private:
    /**
     * One parallelForRaw() fan-out, allocated on the caller's stack
     * and linked into the pool's intrusive bulk list while it has
     * unclaimed chunks. Chunk bounds are derived arithmetically from
     * (begin, base, rem) — identical to partition(). Claiming state
     * (next, nextChunk) is guarded by the pool mutex; completion
     * state (pending, error) by the job's own done_mutex, and the
     * final notify happens under that lock so the job can never be
     * destroyed while a worker still touches it.
     */
    struct BulkJob
    {
        BulkJob *next = nullptr; //!< intrusive list (pool mutex_)
        RawChunkBody body = nullptr;
        void *ctx = nullptr;
        int64_t begin = 0;
        int64_t base = 0; //!< floor chunk length
        int64_t rem = 0;  //!< first rem chunks are one longer
        int nc = 0;       //!< chunk count
        int nextChunk = 0; //!< next unclaimed chunk (pool mutex_)

        Mutex done_mutex;
        std::condition_variable done_cv;
        int pending = 0; //!< unfinished chunks
        std::exception_ptr error;
    };

    void workerLoop();

    /** Execute chunk @p c of @p job and record completion. */
    static void runBulkChunk(BulkJob &job, int c);

    /** Unlink @p job from the bulk list (it is fully claimed). */
    void unlinkBulkLocked(BulkJob *job) ASV_REQUIRES(mutex_);

    // Set in the constructor, immutable afterwards.
    int numThreads_ = 1;
    std::vector<std::thread> workers_;

    Mutex mutex_;
    std::condition_variable wake_;
    std::deque<std::function<void()>> tasks_ ASV_GUARDED_BY(mutex_);
    BulkJob *bulkHead_ ASV_GUARDED_BY(mutex_) = nullptr;
    BulkJob *bulkTail_ ASV_GUARDED_BY(mutex_) = nullptr;
    bool stop_ ASV_GUARDED_BY(mutex_) = false;
};

} // namespace asv

#endif // ASV_COMMON_THREAD_POOL_HH
