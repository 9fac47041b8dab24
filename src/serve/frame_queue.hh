/**
 * @file
 * Bounded lock-free MPSC submission queue with pooled frame slots.
 *
 * The serving frontend's ingestion edge: any number of client
 * threads enqueue stereo frames concurrently, one dispatcher thread
 * dequeues them. The design is the classic bounded ring with
 * per-cell sequence counters (Vyukov's MPMC queue, restricted here
 * to a single consumer): a producer claims a cell with one CAS on
 * the enqueue cursor, fills it, and publishes it by bumping the
 * cell's sequence; the consumer spins on nothing and blocks on
 * nothing — an unpublished head cell just reads as "empty". There
 * is no mutex anywhere on the submission path, so a stalled client
 * can never wedge another client or the dispatcher, and a full
 * queue is reported to the producer (backpressure) instead of
 * blocking inside the queue.
 *
 * Pooled slots: each cell permanently owns the storage of one
 * left/right image pair. Producers *copy-assign* into the cell
 * (image::Image copy-assignment reuses the existing buffer when
 * capacity allows) and the consumer *swaps* payloads out, so after
 * one lap of the ring at steady frame shapes the queue performs
 * zero heap allocations in either direction — the serve hot path
 * contract (tests/serve_test.cpp guards it with AllocTracker).
 *
 * Memory ordering: the CAS claims exclusive write access to the
 * cell; the release store of seq = pos + 1 publishes the payload;
 * the consumer's acquire load of seq synchronizes-with it. The
 * consumer's release store of seq = pos + capacity hands the cell
 * back to the producer that will claim position pos + capacity,
 * whose acquire load synchronizes-with that — so payload swaps by
 * the consumer happen-before the next producer's copy into the
 * same cell.
 */

#ifndef ASV_SERVE_FRAME_QUEUE_HH
#define ASV_SERVE_FRAME_QUEUE_HH

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "image/image.hh"

namespace asv::serve
{

/** Client-visible stream handle (index into the server's table). */
using StreamId = int32_t;

/**
 * The lock-free submission ring. One instance per Server; capacity
 * is rounded up to a power of two and fixed for the queue's life (a
 * capacity below 1 throws std::invalid_argument).
 */
class FrameQueue
{
  public:
    /** One dequeued submission (storage swaps with the ring cell). */
    struct Item
    {
        StreamId stream = -1;
        image::Image left;
        image::Image right;
    };

    explicit FrameQueue(int capacity)
        : mask_(ringSize(capacity) - 1), cells_(mask_ + 1)
    {
        for (size_t i = 0; i < cells_.size(); ++i)
            cells_[i].seq.store(i, std::memory_order_relaxed);
    }

    FrameQueue(const FrameQueue &) = delete;
    FrameQueue &operator=(const FrameQueue &) = delete;

    /**
     * Enqueue a frame for @p stream, copying both images into the
     * claimed cell (buffer-reusing copies — allocation-free once
     * the cell has seen this shape). Returns false when the ring is
     * full: the caller decides whether that is backpressure (block
     * and retry) or rejection (report to the client). Safe from any
     * number of threads concurrently.
     */
    bool
    tryEnqueue(StreamId stream, const image::Image &left,
               const image::Image &right)
    {
        Cell *cell;
        uint64_t pos = enqueuePos_.load(std::memory_order_relaxed);
        for (;;) {
            cell = &cells_[pos & mask_];
            const uint64_t seq =
                cell->seq.load(std::memory_order_acquire);
            const int64_t dif = static_cast<int64_t>(seq) -
                                static_cast<int64_t>(pos);
            if (dif == 0) {
                if (enqueuePos_.compare_exchange_weak(
                        pos, pos + 1, std::memory_order_relaxed))
                    break;
            } else if (dif < 0) {
                return false; // full (consumer has not freed it yet)
            } else {
                pos = enqueuePos_.load(std::memory_order_relaxed);
            }
        }
        cell->stream = stream;
        cell->left = left;   // copy-assign: reuses cell capacity
        cell->right = right; // (see image.hh)
        cell->seq.store(pos + 1, std::memory_order_release);
        return true;
    }

    /**
     * Dequeue the oldest submission into @p out, swapping image
     * storage between @p out and the cell (the cell inherits
     * @p out's buffers for its next lap — keep feeding the same
     * Item back in and the steady state allocates nothing).
     * Single consumer only. Returns false when empty.
     */
    bool
    tryDequeue(Item &out)
    {
        Cell &cell = cells_[dequeuePos_ & mask_];
        const uint64_t seq = cell.seq.load(std::memory_order_acquire);
        if (static_cast<int64_t>(seq) -
                static_cast<int64_t>(dequeuePos_ + 1) <
            0)
            return false; // head cell not published yet
        out.stream = cell.stream;
        std::swap(out.left, cell.left);
        std::swap(out.right, cell.right);
        cell.seq.store(dequeuePos_ + mask_ + 1,
                       std::memory_order_release);
        ++dequeuePos_;
        dequeuePosApprox_.store(dequeuePos_,
                                std::memory_order_relaxed);
        return true;
    }

    /** Ring capacity (power of two >= the requested capacity). */
    int capacity() const { return static_cast<int>(mask_ + 1); }

    /**
     * Approximate occupancy (racy by nature — cursors move under
     * the caller); for stats/heartbeat only.
     */
    int
    approxSize() const
    {
        const uint64_t tail =
            enqueuePos_.load(std::memory_order_relaxed);
        const uint64_t head = dequeuePosApprox_.load(
            std::memory_order_relaxed);
        return tail >= head ? static_cast<int>(tail - head) : 0;
    }

  private:
    struct Cell
    {
        std::atomic<uint64_t> seq{0};
        StreamId stream = -1;
        image::Image left;
        image::Image right;
    };

    /** @p capacity rounded up to a power of two. Checked here, in
     *  the member initializers, before anything is sized from it:
     *  throws std::invalid_argument below 1. */
    static size_t
    ringSize(int capacity)
    {
        require(capacity >= 1, "FrameQueue capacity must be >= 1");
        size_t p = 1;
        while (p < static_cast<size_t>(capacity))
            p <<= 1;
        return p;
    }

    const uint64_t mask_;
    std::vector<Cell> cells_;
    alignas(64) std::atomic<uint64_t> enqueuePos_{0};
    // Consumer-private cursor plus a relaxed mirror for approxSize().
    alignas(64) uint64_t dequeuePos_ = 0;
    std::atomic<uint64_t> dequeuePosApprox_{0};
};

} // namespace asv::serve

#endif // ASV_SERVE_FRAME_QUEUE_HH
