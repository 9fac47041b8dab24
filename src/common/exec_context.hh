/**
 * @file
 * Explicit execution context for the compute kernels.
 *
 * Every hot kernel (SAD block matching, census/SGM, the reference
 * convolution, the image-ops pre-stages of ISM flow) takes a
 * `const ExecContext &` naming the thread pool it may fan work out
 * on *and* the buffer pool it draws frame/scratch storage from. This
 * replaces the implicit `ThreadPool::global()` reach-ins the kernels
 * used to perform: a pipeline's pools are owned, per-instance
 * resources, which is what multi-tenant deployments need — two
 * pipelines sharing a process must be able to run on disjoint pools
 * with independent sizing, and a per-request pool must be
 * expressible without touching process-global state.
 *
 * The context does not own either pool; the creator guarantees both
 * outlive every kernel call made with the context. Copying a context
 * is copying two pool references. The single-argument constructor
 * pairs the given thread pool with the process-wide BufferPool, so
 * call sites that predate the arena still recycle buffers.
 *
 * Determinism is unchanged: the thread pool's static partitioning
 * makes all kernel results bit-identical for any worker count, and
 * buffer recycling only changes *where* storage comes from, never
 * its contents as observed by the kernels (pooled buffers are
 * re-initialized exactly as freshly allocated ones were). Switching
 * a call site between pools (or to `ExecContext::global()`) never
 * changes output.
 */

#ifndef ASV_COMMON_EXEC_CONTEXT_HH
#define ASV_COMMON_EXEC_CONTEXT_HH

#include <cstdint>
#include <utility>

#include "common/buffer_pool.hh"
#include "common/thread_pool.hh"

namespace asv
{

/** Borrowed thread + buffer pools handed explicitly through kernel
 *  APIs. */
class ExecContext
{
  public:
    /**
     * Run on @p pool, drawing buffers from the process-wide
     * BufferPool (not owned; must outlive the context's use).
     */
    explicit ExecContext(ThreadPool &pool)
        : pool_(&pool), buffers_(&BufferPool::global())
    {
    }

    /** Run on @p pool with buffers from @p buffers (neither owned). */
    ExecContext(ThreadPool &pool, BufferPool &buffers)
        : pool_(&pool), buffers_(&buffers)
    {
    }

    /**
     * Context over the process-wide shared pools, for programs and
     * tests that own no pool of their own. Library code never calls
     * it: every kernel takes its context from the caller
     * (scripts/check_docs.py enforces this for src/).
     */
    static ExecContext
    global()
    {
        return ExecContext(ThreadPool::global(), BufferPool::global());
    }

    ThreadPool &pool() const { return *pool_; }

    /** The arena kernels draw images/volumes/scratch from. */
    BufferPool &buffers() const { return *buffers_; }

    int numThreads() const { return pool_->numThreads(); }

    /** parallelFor() on this context's pool. */
    template <typename F>
    void
    parallelFor(int64_t begin, int64_t end, F &&body) const
    {
        pool_->parallelFor(begin, end, std::forward<F>(body));
    }

    /** parallelForChunks() on this context's pool. */
    template <typename F>
    void
    parallelForChunks(int64_t begin, int64_t end, F &&body) const
    {
        pool_->parallelForChunks(begin, end, std::forward<F>(body));
    }

  private:
    ThreadPool *pool_;
    BufferPool *buffers_;
};

} // namespace asv

#endif // ASV_COMMON_EXEC_CONTEXT_HH
