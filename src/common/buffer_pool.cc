#include "common/buffer_pool.hh"

namespace asv
{

namespace detail
{

void
PoolState::clearLocked()
{
    // The vectors are destroyed in place under the pool mutex:
    // clearing is a cold path (resolution changes, explicit trims),
    // and freeing never re-enters the pool.
    std::apply([](auto &...shelf) { (shelf.clear(), ...); }, shelves_);
    residentBytes_ = 0;
    residentBuffers_ = 0;
}

} // namespace detail

BufferPool::~BufferPool()
{
    MutexLock lock(state_->mutex_);
    state_->closed_ = true;
    state_->clearLocked();
}

BufferPool::Stats
BufferPool::stats() const
{
    MutexLock lock(state_->mutex_);
    Stats s;
    s.hits = state_->hits_;
    s.misses = state_->misses_;
    s.residentBytes = state_->residentBytes_;
    s.residentBuffers = state_->residentBuffers_;
    return s;
}

void
BufferPool::trim()
{
    MutexLock lock(state_->mutex_);
    state_->clearLocked();
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
