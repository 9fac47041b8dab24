/**
 * @file
 * Unit and stress tests for asv::BufferPool — the recycling arena
 * behind the zero-allocation steady state.
 *
 * Covers the shelf mechanics (hit/miss accounting, exact-shape keys,
 * LIFO recycling), the RAII handle contract (move-only, release,
 * outliving the pool), trim emptying the shelves,
 * allocation-freedom of the warm path under AllocScope, an
 * 8-thread acquire/release hammer for the TSan lane, and the
 * mid-stream resolution-change contract: pipelines cycling through
 * resolutions must keep resident bytes bounded by one resolution's
 * working set instead of accumulating every size ever seen.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/buffer_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "core/stream_pipeline.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "image/image.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;

TEST(BufferPool, MissThenHitRecyclesTheSameStorage)
{
    BufferPool pool;
    const float *p = nullptr;
    {
        auto h = pool.acquire<float>(256);
        ASSERT_EQ(256u, h.size());
        p = h.data();
    } // shelved
    auto s = pool.stats();
    EXPECT_EQ(0u, s.hits);
    EXPECT_EQ(1u, s.misses);
    EXPECT_EQ(1u, s.residentBuffers);
    EXPECT_GE(s.residentBytes, 256u * sizeof(float));

    auto h2 = pool.acquire<float>(256);
    EXPECT_EQ(p, h2.data()) << "hit must return the shelved storage";
    s = pool.stats();
    EXPECT_EQ(1u, s.hits);
    EXPECT_EQ(1u, s.misses);
    EXPECT_EQ(0u, s.residentBuffers);
}

TEST(BufferPool, ShapeMismatchReturnsFreshBuffer)
{
    BufferPool pool;
    const float *shelved = nullptr;
    {
        auto h = pool.acquire<float>(100);
        shelved = h.data();
    }
    // A different element count never reuses or resizes the shelved
    // buffer — it is a miss that allocates the requested shape.
    auto b = pool.acquire<float>(50);
    EXPECT_EQ(50u, b.size());
    EXPECT_NE(shelved, b.data());
    auto s = pool.stats();
    EXPECT_EQ(0u, s.hits);
    EXPECT_EQ(2u, s.misses);
    EXPECT_EQ(1u, s.residentBuffers) << "size-100 buffer stays idle";

    // Same count but a different element type is a distinct shelf.
    auto d = pool.acquire<double>(100);
    EXPECT_EQ(3u, pool.stats().misses);
    (void)d;

    // The original shape still hits.
    auto h100 = pool.acquire<float>(100);
    EXPECT_EQ(shelved, h100.data());
    EXPECT_EQ(1u, pool.stats().hits);
}

TEST(BufferPool, HandleMoveSemantics)
{
    static_assert(
        std::is_nothrow_move_constructible_v<PoolHandle<float>>);
    static_assert(
        std::is_nothrow_move_assignable_v<PoolHandle<float>>);
    static_assert(!std::is_copy_constructible_v<PoolHandle<float>>);

    BufferPool pool;
    auto h = pool.acquire<float>(64);
    float *p = h.data();
    h[0] = 42.f;

    PoolHandle<float> h2 = std::move(h);
    EXPECT_EQ(p, h2.data());
    EXPECT_EQ(42.f, h2[0]);
    EXPECT_EQ(0u, h.size()); // NOLINT(bugprone-use-after-move)

    PoolHandle<float> h3;
    h3 = std::move(h2);
    EXPECT_EQ(p, h3.data());

    // Destroying the moved-from handles must not shelve anything:
    // exactly one buffer returns when h3 goes.
    h.release();
    h2.release();
    EXPECT_EQ(0u, pool.stats().residentBuffers);
    h3.release();
    EXPECT_EQ(1u, pool.stats().residentBuffers);

    // Move-assign over a live handle shelves the overwritten buffer.
    auto a = pool.acquire<float>(64); // hit: the shelved one
    auto b = pool.acquire<float>(64); // miss: fresh
    EXPECT_EQ(0u, pool.stats().residentBuffers);
    a = std::move(b);
    EXPECT_EQ(1u, pool.stats().residentBuffers);
}

TEST(BufferPool, AcquireZeroedClearsRecycledContents)
{
    BufferPool pool;
    {
        auto dirty = pool.acquireZeroed<uint32_t>(32);
        for (size_t i = 0; i < dirty.size(); ++i)
            dirty[i] = 7;
    }
    auto z = pool.acquireZeroed<uint32_t>(32);
    EXPECT_EQ(1u, pool.stats().hits);
    for (size_t i = 0; i < z.size(); ++i)
        ASSERT_EQ(0u, z[i]) << "recycled element " << i;
}

TEST(BufferPool, WarmAcquireReleaseIsAllocationFree)
{
    BufferPool pool;
    // Warm-up: create the shelf slots and their stack capacity.
    {
        auto a = pool.acquire<float>(4096);
        auto b = pool.acquire<uint16_t>(1024);
        auto c = pool.acquireZeroed<double>(512);
    }
    debug::AllocScope scope;
    for (int i = 0; i < 100; ++i) {
        auto a = pool.acquire<float>(4096);
        auto b = pool.acquire<uint16_t>(1024);
        auto c = pool.acquireZeroed<double>(512);
        a[0] = float(i);
        b[0] = uint16_t(i);
        c[0] = double(i);
    }
    const auto counts = scope.counts();
    EXPECT_EQ(0u, counts.allocs)
        << "warm acquire/release must be allocation-free";
}

TEST(BufferPool, TrimEmptiesThePool)
{
    BufferPool pool;
    {
        auto a = pool.acquire<float>(1024);
        auto b = pool.acquire<float>(2048);
        auto c = pool.acquire<float>(4096);
    }
    auto s = pool.stats();
    ASSERT_EQ(3u, s.residentBuffers);
    ASSERT_GE(s.residentBytes, (1024u + 2048u + 4096u) * sizeof(float));

    pool.trim();
    s = pool.stats();
    EXPECT_EQ(0u, s.residentBytes);
    EXPECT_EQ(0u, s.residentBuffers);
}

TEST(BufferPool, HandlesOutliveThePool)
{
    PoolHandle<float> survivor;
    image::Image pooled_img;
    {
        BufferPool pool;
        survivor = pool.acquire<float>(128);
        pooled_img = image::acquireImage(pool, 16, 8);
    }
    // The pool is gone; the handles must stay usable and free (not
    // shelve) their storage on destruction.
    survivor[0] = 1.f;
    pooled_img.at(0, 0) = 2.f;
    survivor.release();
    pooled_img = image::Image();
}

TEST(BufferPool, PooledImageRecyclesThroughTheArena)
{
    BufferPool pool;
    const float *storage = nullptr;
    {
        image::Image img = image::acquireImage(pool, 32, 16);
        EXPECT_EQ(32, img.width());
        EXPECT_EQ(16, img.height());
        EXPECT_EQ(0.f, img.at(31, 15)); // zero-filled
        storage = img.data();

        // A copy is a plain value: destroying it shelves nothing.
        image::Image copy = img;
        EXPECT_NE(copy.data(), img.data());
    }
    EXPECT_EQ(1u, pool.stats().residentBuffers);

    // A move carries the pool backref: the moved-to image shelves.
    image::Image a = image::acquireImageUninit(pool, 32, 16);
    EXPECT_EQ(storage, a.data()) << "same-shape acquisition recycles";
    image::Image b = std::move(a);
    b = image::Image();
    EXPECT_EQ(1u, pool.stats().residentBuffers);
}

TEST(BufferPool, ConcurrentAcquireReleaseFromEightThreads)
{
    // The TSan-lane hammer: eight threads churning overlapping
    // shapes and types through one pool, with trims and stats reads
    // racing the shelf traffic. Asserts basic sanity; its real job
    // is giving ThreadSanitizer interleavings to chew on.
    BufferPool pool;
    constexpr int kThreads = 8;
    constexpr int kIters = 400;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&pool, &failures, t] {
            for (int i = 0; i < kIters; ++i) {
                const size_t n = 64 + size_t(i % 4) * 64;
                auto f = pool.acquire<float>(n);
                auto u = pool.acquireZeroed<uint16_t>(n);
                f[0] = float(t);
                f[n - 1] = float(i);
                if (u[0] != 0 || f[0] != float(t))
                    ++failures[size_t(t)];
                if (i % 64 == 0)
                    pool.trim();
                if (i % 16 == 0)
                    (void)pool.stats();
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(0, failures[size_t(t)]) << "thread " << t;
    const auto s = pool.stats();
    EXPECT_EQ(uint64_t(kThreads) * kIters * 2, s.hits + s.misses);
}

/** Per-frame processing at one resolution through IsmPipeline. */
void
runFrames(core::IsmPipeline &pipe, int width, int height, int frames,
          uint64_t seed)
{
    data::SceneConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.numObjects = 2;
    cfg.maxDisparity = 12.f;
    const auto seq = data::generateSequence(cfg, frames, seed);
    for (const auto &f : seq.frames) {
        const auto r = pipe.processFrame(f.left, f.right);
        ASSERT_FALSE(r.disparity.empty());
    }
}

TEST(BufferPool, ResolutionCycleKeepsResidentBytesBounded)
{
    // The mid-stream resolution-change contract: each flip trims the
    // stale-shape shelves, so cycling three resolutions for 20
    // rounds holds resident bytes at one resolution's working set —
    // it must not accumulate every size ever seen.
    core::IsmParams params;
    params.propagationWindow = 3;
    params.maxDisparity = 16;
    params.blockRadius = 1;
    core::IsmPipeline pipe(
        params, stereo::makeMatcher("bm",
                                    "maxDisparity=16,blockRadius=1"));

    const int res[3][2] = {{48, 32}, {64, 40}, {36, 32}};

    // Working-set ceiling: one warm cycle through all three
    // resolutions, taking the largest footprint seen. Every later
    // cycle recycles these exact shapes.
    uint64_t warm_peak = 0;
    for (int r = 0; r < 3; ++r) {
        runFrames(pipe, res[r][0], res[r][1], 4, 7);
        warm_peak = std::max(warm_peak,
                             pipe.buffers().stats().residentBytes);
    }
    ASSERT_GT(warm_peak, 0u);
    // Slack for scheduling-dependent per-chunk scratch depth; an
    // accumulation bug grows ~20x over the cycles below, far past it.
    const uint64_t ceiling = 2 * warm_peak + (64u << 10);

    uint64_t max_resident = 0;
    for (int cycle = 0; cycle < 20; ++cycle) {
        for (int r = 0; r < 3; ++r) {
            runFrames(pipe, res[r][0], res[r][1], 4,
                      uint64_t(100 + cycle));
            max_resident = std::max(
                max_resident, pipe.buffers().stats().residentBytes);
        }
    }
    // Bounded: never grows past the warm single-cycle footprint
    // (the flip trims make each resolution start from empty shelves,
    // so the high-water mark is one resolution's working set).
    EXPECT_LE(max_resident, ceiling)
        << "resident bytes grew across resolution cycles";
    pipe.buffers().trim();
    EXPECT_EQ(0u, pipe.buffers().stats().residentBytes);
}

TEST(BufferPool, StreamResolutionFlipsStayBounded)
{
    // Same contract through the streaming layer, with frames in
    // flight across the flips.
    core::IsmParams params;
    params.propagationWindow = 3;
    params.maxDisparity = 16;
    params.blockRadius = 1;
    core::StreamParams sp;
    sp.maxInFlight = 4;
    sp.workers = 4;
    core::StreamPipeline stream(
        params,
        stereo::makeMatcher("bm", "maxDisparity=16,blockRadius=1"),
        core::makeStaticSequencer(3), sp);

    const int res[3][2] = {{48, 32}, {64, 40}, {36, 32}};
    std::vector<data::StereoSequence> seqs;
    for (int r = 0; r < 3; ++r) {
        data::SceneConfig cfg;
        cfg.width = res[r][0];
        cfg.height = res[r][1];
        cfg.numObjects = 2;
        cfg.maxDisparity = 12.f;
        seqs.push_back(data::generateSequence(cfg, 4, 11));
    }

    // The ceiling comes from the flip contract, not from one warm
    // cycle whose depth depends on scheduling. A flip trims every
    // shelf; after it, at most maxInFlight frames of the old
    // resolution re-shelve, and the new resolution holds at most
    // maxInFlight frames' buffers. So resident bytes never pass
    // 2 * maxInFlight frames at the largest resolution. One frame's
    // bytes are measured the same way at each resolution, through a
    // pipeline that admits a single frame at a time.
    uint64_t frame_bytes = 0;
    for (int r = 0; r < 3; ++r) {
        core::StreamParams single = sp;
        single.maxInFlight = 1;
        core::StreamPipeline one(
            params,
            stereo::makeMatcher("bm", "maxDisparity=16,blockRadius=1"),
            core::makeStaticSequencer(3), single);
        for (const auto &f : seqs[size_t(r)].frames)
            one.submit(f.left, f.right);
        (void)one.drain();
        frame_bytes =
            std::max(frame_bytes, one.buffers().stats().residentBytes);
    }
    ASSERT_GT(frame_bytes, 0u);
    const uint64_t ceiling = 2 * uint64_t(sp.maxInFlight) * frame_bytes;

    uint64_t max_resident = 0;
    for (int cycle = 0; cycle < 20; ++cycle) {
        for (int r = 0; r < 3; ++r) {
            for (const auto &f : seqs[size_t(r)].frames)
                stream.submit(f.left, f.right);
            const auto results = stream.drain();
            ASSERT_EQ(4u, results.size());
            max_resident =
                std::max(max_resident,
                         stream.buffers().stats().residentBytes);
        }
    }
    EXPECT_LE(max_resident, ceiling)
        << "resident bytes grew across streamed resolution flips (one "
           "frame: "
        << frame_bytes << " bytes)";
    stream.reset();
    EXPECT_EQ(0u, stream.buffers().stats().residentBytes)
        << "reset() must empty the arena";
}

} // namespace
