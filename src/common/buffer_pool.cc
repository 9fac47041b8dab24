#include "common/buffer_pool.hh"

namespace asv
{

namespace detail
{

namespace
{

/**
 * Evict idle buffers from one shelf, largest element count first,
 * until the pool-wide idle footprint fits @p target_bytes. The
 * vectors are destroyed in place under the pool mutex — eviction is
 * a cold path (resolution changes, explicit trims), and freeing
 * never re-enters the pool.
 */
template <typename T>
void
trimShelf(std::map<size_t, std::vector<std::vector<T>>> &shelf,
          uint64_t target_bytes, uint64_t &resident_bytes,
          uint64_t &resident_buffers, uint64_t &trimmed)
{
    for (auto it = shelf.rbegin();
         it != shelf.rend() && resident_bytes > target_bytes; ++it) {
        auto &stack = it->second;
        while (!stack.empty() && resident_bytes > target_bytes) {
            resident_bytes -= stack.back().capacity() * sizeof(T);
            --resident_buffers;
            ++trimmed;
            stack.pop_back();
        }
    }
}

} // namespace

void
PoolState::trimLocked(uint64_t target_bytes)
{
    std::apply(
        [&](auto &...shelf) {
            (trimShelf(shelf, target_bytes, residentBytes_,
                       residentBuffers_, trimmedBuffers_),
             ...);
        },
        shelves_);
}

} // namespace detail

BufferPool::~BufferPool()
{
    MutexLock lock(state_->mutex_);
    state_->closed_ = true;
    state_->trimLocked(0);
}

BufferPool::Stats
BufferPool::stats() const
{
    MutexLock lock(state_->mutex_);
    Stats s;
    s.hits = state_->hits_;
    s.misses = state_->misses_;
    s.trimmedBuffers = state_->trimmedBuffers_;
    s.residentBytes = state_->residentBytes_;
    s.residentBuffers = state_->residentBuffers_;
    return s;
}

void
BufferPool::trim(uint64_t target_bytes)
{
    MutexLock lock(state_->mutex_);
    state_->trimLocked(target_bytes);
}

BufferPool &
BufferPool::global()
{
    // Leaked intentionally: handles embedded in static-duration
    // objects may release during program exit, after a static pool
    // would have been destroyed.
    static BufferPool *pool = new BufferPool();
    return *pool;
}

} // namespace asv
