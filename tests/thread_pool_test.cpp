/**
 * @file
 * Tests for asv::ThreadPool and for the bit-identical parallel/serial
 * equivalence contract of the threaded kernels: SGM, block matching,
 * and the reference convolution must produce byte-for-byte identical
 * outputs at 1, 2, and 8 workers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "stereo/block_matching.hh"
#include "stereo/sgm.hh"
#include "tensor/conv.hh"
#include "tensor/tensor.hh"

namespace
{

using namespace asv;

/** Worker counts exercised by every equivalence test. */
const int kWorkerCounts[] = {1, 2, 8};

/** Restores the global pool to its default size on scope exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::setGlobalThreads(0); }
};

bool
bitIdentical(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

TEST(ThreadPool, PartitionCoversRangeOnce)
{
    const auto chunks = ThreadPool::partition(3, 17, 4);
    ASSERT_EQ(chunks.size(), 4u);
    int64_t expect = 3;
    for (const auto &[first, last] : chunks) {
        EXPECT_EQ(first, expect);
        EXPECT_LT(first, last);
        expect = last;
    }
    EXPECT_EQ(expect, 17);
    // Sizes differ by at most one (14 = 4+4+3+3).
    EXPECT_EQ(chunks[0].second - chunks[0].first, 4);
    EXPECT_EQ(chunks[3].second - chunks[3].first, 3);
}

TEST(ThreadPool, PartitionDegenerateCases)
{
    EXPECT_TRUE(ThreadPool::partition(5, 5, 4).empty());
    EXPECT_TRUE(ThreadPool::partition(5, 2, 4).empty());
    // More chunks than items: one chunk per item.
    EXPECT_EQ(ThreadPool::partition(0, 3, 8).size(), 3u);
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4);

    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(0, 1000, [&](int64_t first, int64_t last) {
        for (int64_t i = first; i < last; ++i)
            hits[i].fetch_add(1);
    });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop)
{
    ThreadPool pool(4);
    bool ran = false;
    pool.parallelFor(7, 7, [&](int64_t, int64_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ThreadPool, SingleWorkerRunsInlineOnCaller)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    int calls = 0;
    pool.parallelFor(0, 100, [&](int64_t first, int64_t last) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_EQ(first, 0);
        EXPECT_EQ(last, 100);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ChunkIndicesMatchPartition)
{
    ThreadPool pool(3);
    const auto chunks = ThreadPool::partition(0, 10, 3);
    std::vector<std::atomic<int>> seen(chunks.size());
    pool.parallelForChunks(
        0, 10, [&](int64_t first, int64_t last, int chunk) {
            ASSERT_GE(chunk, 0);
            ASSERT_LT(chunk, int(chunks.size()));
            EXPECT_EQ(first, chunks[chunk].first);
            EXPECT_EQ(last, chunks[chunk].second);
            seen[chunk].fetch_add(1);
        });
    for (const auto &s : seen)
        EXPECT_EQ(s.load(), 1);
}

TEST(ThreadPool, NestedParallelForFallsBackToSerial)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    pool.parallelFor(0, 4, [&](int64_t first, int64_t last) {
        // A nested loop on the same pool must not deadlock.
        pool.parallelFor(0, 10, [&](int64_t f, int64_t l) {
            total.fetch_add(int((l - f) * (last - first)));
        });
        (void)first;
    });
    EXPECT_GT(total.load(), 0);
}

TEST(ThreadPool, CrossPoolNestingStillPartitions)
{
    // The nested-call guard is per-pool: work dispatched on pool A
    // may still fan out on pool B (only a nested call on the same
    // pool runs serially, as a StreamPipeline stage's kernels do on
    // that pipeline's pool). Every index must still be visited
    // exactly once.
    ThreadPool outer(3), inner(3);
    std::vector<std::atomic<int>> seen(16);
    std::atomic<int> outer_chunks{0};
    outer.parallelFor(0, 4, [&](int64_t, int64_t) {
        outer_chunks.fetch_add(1);
        inner.parallelFor(0, 16, [&](int64_t f, int64_t l) {
            for (int64_t i = f; i < l; ++i)
                seen[size_t(i)].fetch_add(1);
        });
    });
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(seen[size_t(i)].load(), outer_chunks.load())
            << "index " << i;
}

TEST(ThreadPool, DefaultThreadsHonoursEnv)
{
    ASSERT_EQ(setenv("ASV_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreads(), 3);
    ASSERT_EQ(setenv("ASV_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
    ASSERT_EQ(unsetenv("ASV_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreads(), 1);
}

/** Fixture computing serial references once on a shared stereo pair. */
class KernelEquivalence : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(42);
        left_ = data::makeTexture(61, 47, 8.f, rng);
        right_ = data::makeTexture(61, 47, 8.f, rng);
        ThreadPool::setGlobalThreads(1);
    }

    image::Image left_, right_;
    GlobalPoolGuard guard_;
};

TEST_F(KernelEquivalence, SgmBitIdenticalAcrossWorkerCounts)
{
    stereo::SgmParams p;
    p.maxDisparity = 24;
    const auto serial = stereo::sgmCompute(left_, right_, p,
                                           ExecContext::global());
    for (int workers : kWorkerCounts) {
        ThreadPool::setGlobalThreads(workers);
        const auto par = stereo::sgmCompute(left_, right_, p,
                                            ExecContext::global());
        EXPECT_TRUE(bitIdentical(serial.flat(), par.flat()))
            << "SGM diverges at " << workers << " workers";
    }
}

TEST_F(KernelEquivalence, CensusBitIdenticalAcrossWorkerCounts)
{
    const auto serial = stereo::censusTransform(left_, 2,
                                                ExecContext::global());
    for (int workers : kWorkerCounts) {
        ThreadPool::setGlobalThreads(workers);
        const auto par = stereo::censusTransform(left_, 2,
                                                 ExecContext::global());
        EXPECT_EQ(serial, par)
            << "census diverges at " << workers << " workers";
    }
}

TEST_F(KernelEquivalence, BlockMatchingBitIdenticalAcrossWorkerCounts)
{
    stereo::BlockMatchingParams p;
    p.maxDisparity = 20;
    const auto serial = stereo::blockMatching(left_, right_, p,
                                              ExecContext::global());

    stereo::DisparityMap init(left_.width(), left_.height());
    init.fill(6.f);
    const auto serial_refined =
        stereo::refineDisparity(left_, right_, init, 2, p,
                                ExecContext::global());

    for (int workers : kWorkerCounts) {
        ThreadPool::setGlobalThreads(workers);
        const auto par = stereo::blockMatching(left_, right_, p,
                                               ExecContext::global());
        EXPECT_TRUE(bitIdentical(serial.flat(), par.flat()))
            << "block matching diverges at " << workers << " workers";
        const auto par_refined =
            stereo::refineDisparity(left_, right_, init, 2, p,
                                    ExecContext::global());
        EXPECT_TRUE(
            bitIdentical(serial_refined.flat(), par_refined.flat()))
            << "refineDisparity diverges at " << workers << " workers";
    }
}

TEST_F(KernelEquivalence, ConvBitIdenticalAcrossWorkerCounts)
{
    using tensor::ConvSpec;
    using tensor::Tensor;

    Rng rng(7);
    Tensor in({3, 13, 17});
    for (auto &v : in.flat())
        v = rng.uniformReal(0, 1) < 0.3
                ? 0.f
                : float(rng.uniformReal(-1, 1));
    Tensor w({4, 3, 3, 3});
    for (auto &v : w.flat())
        v = float(rng.uniformReal(-1, 1));
    const ConvSpec spec = ConvSpec::uniform(2, 2, 1);

    const Tensor serial =
        tensor::referenceConv(in, w, spec, ExecContext::global());

    for (int workers : kWorkerCounts) {
        ThreadPool::setGlobalThreads(workers);
        const Tensor par =
            tensor::referenceConv(in, w, spec, ExecContext::global());
        EXPECT_TRUE(bitIdentical(serial.flat(), par.flat()))
            << "conv diverges at " << workers << " workers";
    }
}

} // namespace
