/**
 * @file
 * Shape-keyed recycling buffer arena for the zero-allocation steady
 * state.
 *
 * Every frame of the stereo/flow pipelines needs the same set of
 * buffers as the previous frame: images, cost volumes, aggregation
 * scratch rows, pyramid levels. Allocating them fresh each frame is
 * both throughput lost to the allocator under frames-in-flight
 * contention and a real-time-safety violation (the contract
 * BASELINE_alloc.json gates). BufferPool closes the loop that
 * PR 6's AllocTracker measures: buffers are checked out by element
 * type and exact element count, and their RAII handles shelve the
 * storage back into the pool on destruction, so after one warm-up
 * frame every acquire is a recycled hit and the per-frame allocation
 * count of the pooled engines is exactly zero.
 *
 * Design:
 *
 *  - **Typed shelves, exact-shape keys.** The pool recycles
 *    `std::vector<T>` storage for a closed list of element types
 *    (float, double, uint8_t, uint16_t, uint32_t, uint64_t,
 *    const float *, const double *).
 *    A shelf maps element count -> stack of idle buffers. Acquire
 *    with a count that has no idle buffer is a *miss* (a fresh
 *    vector is allocated); a shape mismatch never reuses or resizes
 *    a differently-sized buffer, it just misses. Hits pop the most
 *    recently shelved buffer (LIFO — the cache-warm one).
 *  - **RAII handles that outlive the pool.** Handle<T> (and the
 *    pool-backed image::Image) hold a
 *    shared_ptr to the pool's internal state. Destroying the pool
 *    closes the state: outstanding handles keep working and simply
 *    free their storage on destruction instead of shelving it.
 *  - **Stats + bounded growth.** hits/misses/resident bytes are
 *    queryable (see stats()). A pool grows to its workload's
 *    warm-up working set and stays there; trim() evicts idle
 *    buffers, largest first, on demand — pipelines call trim(0) on
 *    a mid-stream resolution change so stale-shape buffers do not
 *    accumulate.
 *
 * Thread safety: all operations are safe from any thread; the warm
 * acquire/release path is one mutex acquisition plus a map lookup
 * (no allocation). The pool is shared through ExecContext alongside
 * the thread pool, so kernels fan out and pull per-chunk scratch
 * from the same arena.
 */

#ifndef ASV_COMMON_BUFFER_POOL_HH
#define ASV_COMMON_BUFFER_POOL_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_annotations.hh"

namespace asv
{

class BufferPool;

namespace detail
{

/**
 * The pool's shared core. Lives behind a shared_ptr so every handle
 * (Handle<T>, pooled Image) can return storage safely
 * even after the owning BufferPool was destroyed — destruction
 * closes the state, after which give() drops buffers instead of
 * shelving them.
 */
class PoolState
{
  public:
    /**
     * Check a buffer of exactly @p count elements out of the shelf
     * (hit), or allocate a fresh zero-initialized one (miss). With
     * @p zero set, recycled contents are cleared to T{}; without it
     * the contents are unspecified (callers that overwrite every
     * element skip the memset).
     */
    template <typename T>
    std::vector<T>
    take(size_t count, bool zero)
    {
        bool recycled = false;
        std::vector<T> v;
        {
            MutexLock lock(mutex_);
            auto &shelf = std::get<Shelf<T>>(shelves_);
            auto it = shelf.find(count);
            if (it != shelf.end() && !it->second.empty()) {
                v = std::move(it->second.back());
                it->second.pop_back();
                ++hits_;
                residentBytes_ -= v.capacity() * sizeof(T);
                --residentBuffers_;
                recycled = true;
            } else {
                ++misses_;
            }
        }
        if (!recycled)
            return std::vector<T>(count); // fresh is already zeroed
        if (zero)
            std::fill(v.begin(), v.end(), T{});
        return v;
    }

    /**
     * Shelve a buffer for reuse (keyed by its current size). Never
     * throws: if bookkeeping cannot be extended (or the pool is
     * closed) the buffer is simply freed. Steady state never extends
     * bookkeeping — the shelf slot already exists, so the push is
     * a move into reserved capacity: zero allocations.
     */
    template <typename T>
    void
    give(std::vector<T> &&v) noexcept
    {
        if (v.capacity() == 0)
            return;
        const size_t key = v.size();
        const uint64_t bytes = v.capacity() * sizeof(T);
        try {
            MutexLock lock(mutex_);
            if (closed_)
                return; // drop: ~vector frees after unlock
            auto &shelf = std::get<Shelf<T>>(shelves_);
            shelf[key].push_back(std::move(v));
            residentBytes_ += bytes;
            ++residentBuffers_;
        } catch (...) {
            // Out of memory growing the bookkeeping: drop the buffer.
        }
    }

  private:
    friend class ::asv::BufferPool;

    /** Idle buffers of one element type, keyed by element count. */
    template <typename T>
    using Shelf = std::map<size_t, std::vector<std::vector<T>>>;

    /** Evict idle buffers, largest element-size first, until the
     *  idle footprint is <= @p target_bytes. */
    void trimLocked(uint64_t target_bytes) ASV_REQUIRES(mutex_);

    Mutex mutex_;
    std::tuple<Shelf<float>, Shelf<double>, Shelf<uint8_t>,
               Shelf<uint16_t>, Shelf<uint32_t>, Shelf<uint64_t>,
               Shelf<const float *>, Shelf<const double *>>
        shelves_ ASV_GUARDED_BY(mutex_);
    bool closed_ ASV_GUARDED_BY(mutex_) = false;
    uint64_t hits_ ASV_GUARDED_BY(mutex_) = 0;
    uint64_t misses_ ASV_GUARDED_BY(mutex_) = 0;
    uint64_t trimmedBuffers_ ASV_GUARDED_BY(mutex_) = 0;
    uint64_t residentBytes_ ASV_GUARDED_BY(mutex_) = 0;
    uint64_t residentBuffers_ ASV_GUARDED_BY(mutex_) = 0;
};

} // namespace detail

/**
 * Move-only RAII view of a pooled buffer: behaves like a
 * std::vector<T> of fixed size and shelves the storage back into
 * the pool when destroyed (or released).
 */
template <typename T>
class PoolHandle
{
  public:
    PoolHandle() = default;

    PoolHandle(PoolHandle &&other) noexcept
        : state_(std::move(other.state_)), v_(std::move(other.v_))
    {
    }

    PoolHandle &
    operator=(PoolHandle &&other) noexcept
    {
        if (this != &other) {
            release();
            state_ = std::move(other.state_);
            v_ = std::move(other.v_);
        }
        return *this;
    }

    PoolHandle(const PoolHandle &) = delete;
    PoolHandle &operator=(const PoolHandle &) = delete;

    ~PoolHandle() { release(); }

    T *data() { return v_.data(); }
    const T *data() const { return v_.data(); }
    size_t size() const { return v_.size(); }
    bool empty() const { return v_.empty(); }
    T &operator[](size_t i) { return v_[i]; }
    const T &operator[](size_t i) const { return v_[i]; }

    /** The underlying vector (size is the acquired count). */
    std::vector<T> &vec() { return v_; }
    const std::vector<T> &vec() const { return v_; }

    void
    swap(PoolHandle &other) noexcept
    {
        state_.swap(other.state_);
        v_.swap(other.v_);
    }

    /** Return the storage to the pool now (handle becomes empty). */
    void
    release() noexcept
    {
        if (state_)
            state_->give(std::move(v_));
        state_.reset();
        v_ = std::vector<T>();
    }

  private:
    friend class BufferPool;

    PoolHandle(std::shared_ptr<detail::PoolState> state,
               std::vector<T> v)
        : state_(std::move(state)), v_(std::move(v))
    {
    }

    std::shared_ptr<detail::PoolState> state_;
    std::vector<T> v_;
};

/**
 * The arena: see the file comment for the design. One per pipeline
 * (IsmPipeline / StreamPipeline own theirs), or the process-wide
 * global() for free-standing kernel calls.
 */
class BufferPool
{
  public:
    BufferPool() : state_(std::make_shared<detail::PoolState>()) {}

    /** Closing drops the idle shelves; outstanding handles keep
     *  working and free (rather than shelve) their storage. */
    ~BufferPool();

    BufferPool(const BufferPool &) = delete;
    BufferPool &operator=(const BufferPool &) = delete;

    /**
     * Acquire a buffer of exactly @p count elements with
     * *unspecified* contents (recycled data or zeros). Use for
     * buffers whose every element is written before being read.
     */
    template <typename T>
    PoolHandle<T>
    acquire(size_t count)
    {
        return PoolHandle<T>(state_, state_->take<T>(count, false));
    }

    /** Acquire a buffer of @p count elements, all T{}. */
    template <typename T>
    PoolHandle<T>
    acquireZeroed(size_t count)
    {
        return PoolHandle<T>(state_, state_->take<T>(count, true));
    }

    /** Point-in-time counters (taken under the pool mutex). */
    struct Stats
    {
        uint64_t hits = 0;            //!< acquires served from shelf
        uint64_t misses = 0;          //!< acquires that allocated
        uint64_t trimmedBuffers = 0;  //!< buffers evicted by trim
        uint64_t residentBytes = 0;   //!< idle (shelved) bytes
        uint64_t residentBuffers = 0; //!< idle (shelved) buffers
    };
    Stats stats() const;

    /** Evict idle buffers now until at most @p target_bytes remain
     *  shelved. trim(0) empties the pool (e.g. on a mid-stream
     *  resolution change, where every shelved shape went stale). */
    void trim(uint64_t target_bytes = 0);

    /**
     * The shared core, for pool-backed containers (image::Image)
     * that shelve their storage on destruction.
     * Treat as an implementation detail everywhere else.
     */
    const std::shared_ptr<detail::PoolState> &state() const
    {
        return state_;
    }

    /**
     * Process-wide shared pool: the default arena of
     * ExecContext(ThreadPool&), so kernels called without an
     * explicit pool still recycle. Never trimmed automatically.
     */
    static BufferPool &global();

  private:
    std::shared_ptr<detail::PoolState> state_;
};

} // namespace asv

#endif // ASV_COMMON_BUFFER_POOL_HH
