#include "common/thread_pool.hh"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "common/logging.hh"

namespace asv
{

namespace
{

/**
 * The pool this thread is a worker of (nullptr on non-worker
 * threads). A nested parallelFor() on the *same* pool runs serially
 * instead of re-entering the queue, which would deadlock a pool
 * whose workers are all waiting on the nested loop. A StreamPipeline
 * stage is this case: it runs on the pipeline's own pool, so the
 * kernels it calls run serially on its executor. Nesting across
 * *different* pools still fans out (the inner pool's workers are
 * free), so the guard is per-pool, not a global flag.
 */
thread_local const ThreadPool *t_workerOf = nullptr;

Mutex g_globalMutex;
std::unique_ptr<ThreadPool> g_globalPool ASV_GUARDED_BY(g_globalMutex);

} // namespace

ThreadPool::ThreadPool(int threads)
{
    numThreads_ = threads > 0 ? threads : defaultThreads();
    // Workers beyond the first; the caller of parallelFor() always
    // executes one chunk itself, so a pool of N spawns N - 1 threads.
    for (int i = 1; i < numThreads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    t_workerOf = this;
    for (;;) {
        std::function<void()> task;
        BulkJob *job = nullptr;
        int chunk = -1;
        {
            MutexLock lock(mutex_);
            // Explicit predicate loop (not the lambda-predicate
            // overload): the guarded reads sit in this scope, where
            // the thread-safety analysis knows the lock is held.
            while (!stop_ && tasks_.empty() && bulkHead_ == nullptr)
                lock.wait(wake_);
            // Queued tasks before bulk chunks: the order chunk tasks
            // historically entered the shared queue, and what the
            // submit() FIFO dependency-safety contract describes. A
            // parallelFor() never stalls on this: its caller claims
            // the chunks no worker gets to.
            if (!tasks_.empty()) {
                task = std::move(tasks_.front());
                tasks_.pop_front();
            } else if (bulkHead_ != nullptr) {
                job = bulkHead_;
                chunk = job->nextChunk++;
                if (job->nextChunk == job->nc)
                    unlinkBulkLocked(job);
            } else {
                return; // stop_ set and nothing left to drain
            }
        }
        if (job != nullptr)
            runBulkChunk(*job, chunk);
        else
            task();
    }
}

std::vector<std::pair<int64_t, int64_t>>
ThreadPool::partition(int64_t begin, int64_t end, int chunks)
{
    std::vector<std::pair<int64_t, int64_t>> out;
    const int64_t n = end - begin;
    if (n <= 0 || chunks < 1)
        return out;
    const int64_t nc = std::min<int64_t>(chunks, n);
    const int64_t base = n / nc;
    const int64_t rem = n % nc;
    int64_t first = begin;
    for (int64_t c = 0; c < nc; ++c) {
        const int64_t len = base + (c < rem ? 1 : 0);
        out.emplace_back(first, first + len);
        first += len;
    }
    return out;
}

void
ThreadPool::runBulkChunk(BulkJob &job, int c)
{
    // Chunk c's bounds, arithmetically identical to partition():
    // the first rem chunks are base + 1 long, the rest base.
    const int64_t first =
        job.begin + c * job.base + std::min<int64_t>(c, job.rem);
    const int64_t last = first + job.base + (c < job.rem ? 1 : 0);
    try {
        job.body(job.ctx, first, last, c);
    } catch (...) {
        MutexLock dl(job.done_mutex);
        if (!job.error)
            job.error = std::current_exception();
    }
    {
        // Notify while holding the lock: the waiter can only unwind
        // (destroying the stack-allocated job) after acquiring
        // done_mutex, so no worker can touch the job after it is
        // destroyed.
        MutexLock dl(job.done_mutex);
        --job.pending;
        if (job.pending == 0)
            job.done_cv.notify_one();
    }
}

void
ThreadPool::unlinkBulkLocked(BulkJob *job)
{
    BulkJob **p = &bulkHead_;
    while (*p != job)
        p = &(*p)->next;
    *p = job->next;
}

void
ThreadPool::parallelForRaw(int64_t begin, int64_t end,
                           RawChunkBody body, void *ctx)
{
    if (end <= begin)
        return;
    const int64_t n = end - begin;
    if (numThreads_ <= 1 || n == 1 || t_workerOf == this) {
        body(ctx, begin, end, 0);
        return;
    }

    BulkJob job;
    job.body = body;
    job.ctx = ctx;
    job.begin = begin;
    const int64_t nc = std::min<int64_t>(numThreads_, n);
    job.base = n / nc;
    job.rem = n % nc;
    job.nc = static_cast<int>(nc);
    job.nextChunk = 1; // the caller owns chunk 0
    job.pending = job.nc;

    {
        MutexLock lock(mutex_);
        BulkJob **tail = &bulkHead_;
        while (*tail != nullptr)
            tail = &(*tail)->next;
        *tail = &job;
    }
    wake_.notify_all();

    runBulkChunk(job, 0);

    // Claim whatever no worker picked up yet (all of it, if the
    // workers are busy with queued tasks): the loop can never stall
    // behind the task queue. Whoever claims the last chunk — worker
    // or caller — unlinks the job.
    for (;;) {
        int c = -1;
        {
            MutexLock lock(mutex_);
            if (job.nextChunk < job.nc) {
                c = job.nextChunk++;
                if (job.nextChunk == job.nc)
                    unlinkBulkLocked(&job);
            }
        }
        if (c < 0)
            break;
        runBulkChunk(job, c);
    }

    {
        MutexLock dl(job.done_mutex);
        while (job.pending != 0)
            dl.wait(job.done_cv);
    }
    // All chunks finished and their threads released done_mutex; the
    // error slot has no remaining writers.
    if (job.error)
        std::rethrow_exception(job.error);
}

int
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("ASV_THREADS")) {
        char *tail = nullptr;
        const long v = std::strtol(env, &tail, 10);
        if (tail && *tail == '\0' && v >= 1 && v <= 1024)
            return static_cast<int>(v);
        warn("ignoring invalid ASV_THREADS value '", env, "'");
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

ThreadPool &
ThreadPool::global()
{
    MutexLock lock(g_globalMutex);
    if (!g_globalPool)
        g_globalPool = std::make_unique<ThreadPool>(0);
    return *g_globalPool;
}

void
ThreadPool::setGlobalThreads(int threads)
{
    MutexLock lock(g_globalMutex);
    g_globalPool = std::make_unique<ThreadPool>(threads);
}

} // namespace asv
