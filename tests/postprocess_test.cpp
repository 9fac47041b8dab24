/**
 * @file
 * Tests for the row fill that closes ismSeed's scatter holes (the
 * one hole-filling pass in the library) and the block-motion
 * estimator.
 */

#include <gtest/gtest.h>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "data/scene.hh"
#include "expect_invalid.hh"
#include "flow/block_motion.hh"
#include "stereo/disparity.hh"

namespace
{

using namespace asv;
using namespace asv::stereo;

/**
 * ismSeed of @p prev under still flow: every seed stays where it
 * is, so the output differs from @p prev only by the row fill.
 */
DisparityMap
stillSeed(const DisparityMap &prev)
{
    flow::FlowField still;
    still.u = image::Image(prev.width(), prev.height(), 0.f);
    still.v = image::Image(prev.width(), prev.height(), 0.f);
    ThreadPool pool(2);
    BufferPool buffers;
    return core::ismSeed(prev, still, still, core::IsmParams{},
                         ExecContext(pool, buffers));
}

TEST(SeedFill, HoleTakesItsLeftNeighbour)
{
    // Pixels x >= d keep their seed; the hole at x = 4, 5 sits
    // between 3 and 4 and takes the 3, as does the trailing run.
    DisparityMap d(8, 1);
    d.fill(kInvalidDisparity);
    d.at(2, 0) = 2.f;
    d.at(3, 0) = 3.f;
    d.at(6, 0) = 4.f;
    const DisparityMap f = stillSeed(d);
    EXPECT_FLOAT_EQ(f.at(4, 0), 3.f);
    EXPECT_FLOAT_EQ(f.at(5, 0), 3.f);
    EXPECT_FLOAT_EQ(f.at(6, 0), 4.f);
    EXPECT_FLOAT_EQ(f.at(7, 0), 4.f);
}

TEST(SeedFill, LeadingRunTakesTheFirstSeedToItsRight)
{
    // x = 0, 1 have nothing to their left; x = 2 (d = 5, so x - d < 0)
    // has no right endpoint and is dropped by the scatter.
    DisparityMap d(8, 1);
    d.fill(kInvalidDisparity);
    d.at(2, 0) = 5.f;
    d.at(3, 0) = 2.f;
    d.at(7, 0) = 1.f;
    const DisparityMap f = stillSeed(d);
    for (int x = 0; x < 3; ++x)
        EXPECT_FLOAT_EQ(f.at(x, 0), 2.f) << "x " << x;
    EXPECT_FLOAT_EQ(f.at(6, 0), 2.f);
    EXPECT_FLOAT_EQ(f.at(7, 0), 1.f);
}

TEST(SeedFill, RowWithoutASeedStaysInvalid)
{
    // Rows fill independently: one seed fills its own row only.
    DisparityMap d(8, 2);
    d.fill(kInvalidDisparity);
    d.at(5, 1) = 2.f;
    const DisparityMap f = stillSeed(d);
    for (int x = 0; x < 8; ++x) {
        EXPECT_FALSE(isValidDisparity(f.at(x, 0))) << "x " << x;
        EXPECT_FLOAT_EQ(f.at(x, 1), 2.f) << "x " << x;
    }
}

TEST(BlockMotion, RecoversGlobalTranslation)
{
    Rng rng(31);
    image::Image base = data::makeTexture(96, 64, 8.f, rng);
    image::Image moved(96, 64);
    for (int y = 0; y < 64; ++y)
        for (int x = 0; x < 96; ++x)
            moved.at(x, y) = base.atClamped(x - 4, y - 2);

    const flow::FlowField f = flow::blockMotion(base, moved);
    flow::FlowField gt(96, 64);
    gt.fill(4.f, 2.f);
    EXPECT_LT(flow::averageEndpointError(f, gt, 16), 1.0);
}

TEST(BlockMotion, BlockGranularityIsCoarse)
{
    // The paper's Sec. 3.3 objection: all pixels in a block share
    // one vector, so per-pixel motion boundaries are lost.
    Rng rng(32);
    image::Image base = data::makeTexture(64, 32, 8.f, rng);
    const flow::FlowField f = flow::blockMotion(base, base);
    flow::BlockMotionParams p;
    // Within any block, u and v are exactly constant.
    for (int y = 0; y < p.blockSize; ++y) {
        for (int x = 0; x < p.blockSize; ++x) {
            EXPECT_FLOAT_EQ(f.u.at(x, y), f.u.at(0, 0));
            EXPECT_FLOAT_EQ(f.v.at(x, y), f.v.at(0, 0));
        }
    }
}

TEST(BlockMotion, OpsModelScalesWithWindow)
{
    flow::BlockMotionParams small, big;
    small.searchRadius = 3;
    big.searchRadius = 7;
    EXPECT_GT(flow::blockMotionOps(100, 100, big),
              3 * flow::blockMotionOps(100, 100, small));
}

TEST(BlockMotion, CallerErrorsThrow)
{
    const image::Image frame(32, 16, 0.f);
    flow::BlockMotionParams one;
    one.blockSize = 1;
    testref::expectInvalid([&] { (void)flow::blockMotion(frame, frame, one); },
                           "block size too small");
    testref::expectInvalid(
        [&] { (void)flow::blockMotion(frame, image::Image(16, 16, 0.f)); },
        "frame size mismatch");
}

} // namespace
