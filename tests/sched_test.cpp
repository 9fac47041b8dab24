/**
 * @file
 * Tests for the tiling scheduler (Sec. 4.2): feasibility, the
 * compute lower bound, reuse-mode orderings, the greedy-vs-exact
 * optimality gap, baseline partitioning, and property sweeps over
 * random layer shapes.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "deconv/transform.hh"
#include "dnn/layer.hh"
#include "dnn/zoo.hh"
#include "expect_invalid.hh"
#include "sched/optimizer.hh"

namespace
{

using namespace asv;
using namespace asv::sched;

dnn::LayerDesc
makeLayer(dnn::LayerKind kind, tensor::Shape in_spatial, int64_t in_c,
          int64_t out_c, int64_t k, int64_t s, int64_t p)
{
    dnn::LayerDesc l;
    l.name = "L";
    l.kind = kind;
    l.inChannels = in_c;
    l.outChannels = out_c;
    l.inSpatial = std::move(in_spatial);
    l.kernel.assign(l.inSpatial.size(), k);
    l.stride.assign(l.inSpatial.size(), s);
    l.pad.assign(l.inSpatial.size(), p);
    l.validate();
    return l;
}

TEST(Scheduler, ComputeLowerBoundHolds)
{
    HardwareConfig hw;
    const auto layer = makeLayer(dnn::LayerKind::Deconv, {32, 64},
                                 64, 32, 4, 2, 1);
    const auto t = deconv::transformLayer(layer);
    for (OptMode mode :
         {OptMode::Naive, OptMode::ConvR, OptMode::Ilar}) {
        const LayerSchedule s =
            scheduleTransformedLayer(t, hw, mode);
        // Latency can never beat perfect PE utilization.
        EXPECT_GE(s.latencyCycles, t.totalMacs() / hw.peCount());
        EXPECT_GE(s.latencyCycles, s.computeCycles);
        EXPECT_EQ(s.macs, t.totalMacs());
    }
}

TEST(Scheduler, OptimizedNeverSlowerThanNaive)
{
    HardwareConfig hw;
    const auto layer = makeLayer(dnn::LayerKind::Deconv, {48, 96},
                                 128, 64, 4, 2, 1);
    const auto t = deconv::transformLayer(layer);
    const auto naive =
        scheduleTransformedLayer(t, hw, OptMode::Naive);
    const auto convr =
        scheduleTransformedLayer(t, hw, OptMode::ConvR);
    EXPECT_LE(convr.latencyCycles, naive.latencyCycles);
}

TEST(Scheduler, IlarLoadsIfmapOncePerTile)
{
    // The signature ILAR effect: ConvR reloads the shared ifmap for
    // every sub-convolution, ILAR does not (Sec. 4.2).
    HardwareConfig hw;
    const auto layer = makeLayer(dnn::LayerKind::Deconv,
                                 {48, 96, 312}, 64, 64, 3, 2, 1);
    const auto t = deconv::transformLayer(layer);
    const auto convr =
        scheduleTransformedLayer(t, hw, OptMode::ConvR);
    const auto ilar =
        scheduleTransformedLayer(t, hw, OptMode::Ilar);
    EXPECT_TRUE(ilar.usedIlar);
    EXPECT_LT(ilar.traffic.ifmapBytes,
              convr.traffic.ifmapBytes / 2);
    EXPECT_LE(ilar.latencyCycles, convr.latencyCycles);
}

TEST(Scheduler, ConvLayerIsSingleGroupAndIlarIsNoop)
{
    HardwareConfig hw;
    const auto layer = makeLayer(dnn::LayerKind::Conv, {64, 64}, 32,
                                 32, 3, 1, 1);
    const auto t = deconv::transformLayer(layer);
    const auto convr =
        scheduleTransformedLayer(t, hw, OptMode::ConvR);
    const auto ilar =
        scheduleTransformedLayer(t, hw, OptMode::Ilar);
    EXPECT_FALSE(ilar.usedIlar);
    EXPECT_EQ(convr.latencyCycles, ilar.latencyCycles);
}

TEST(Scheduler, GreedyWithinFactorOfExact)
{
    // Exact solver (full span enumeration + DP knapsack) bounds the
    // greedy-DP gap on small layers.
    HardwareConfig hw;
    hw.bufferBytes = 64 * 1024; // force multi-round schedules
    for (int64_t k : {3, 4, 5}) {
        const auto layer = makeLayer(dnn::LayerKind::Deconv,
                                     {24, 48}, 32, 24, k, 2, 1);
        const auto t = deconv::transformLayer(layer);
        const auto greedy =
            scheduleTransformedLayer(t, hw, OptMode::Ilar);
        const auto exact = scheduleTransformedLayerExact(t, hw);
        // Exact enumerates a superset of greedy's candidates.
        EXPECT_LE(exact.latencyCycles,
                  greedy.latencyCycles + greedy.latencyCycles / 100)
            << "k=" << k;
        // The paper's greedy heuristic stays close to optimal.
        EXPECT_LE(greedy.latencyCycles,
                  exact.latencyCycles * 5 / 4)
            << "k=" << k;
    }
}

TEST(Scheduler, ExactSolverRejectsLargeLayers)
{
    // 96 x 96 = 9216 ifmap elements, above the exact solver's 4096.
    const auto layer = makeLayer(dnn::LayerKind::Deconv, {96, 96}, 8,
                                 8, 3, 2, 1);
    testref::expectInvalid(
        [&] {
            (void)scheduleTransformedLayerExact(
                deconv::transformLayer(layer), HardwareConfig{});
        },
        "restricted to small layers");
}

TEST(Scheduler, DenseDeconvSlowerThanTransformed)
{
    HardwareConfig hw;
    const auto layer = makeLayer(dnn::LayerKind::Deconv, {48, 96},
                                 128, 64, 4, 2, 1);
    BufferPartition part;
    const auto dense = scheduleDenseLayer(layer, hw, part);
    const auto transformed = scheduleTransformedLayer(
        deconv::transformLayer(layer), hw, OptMode::Ilar);
    // Sec. 4.1: the transformation removes ~3/4 of the work.
    EXPECT_GT(dense.latencyCycles,
              transformed.latencyCycles * 3);
    EXPECT_GT(dense.macs, transformed.macs * 3);
}

TEST(Scheduler, StaticPartitionFractionsSumToOne)
{
    HardwareConfig hw;
    const auto net = dnn::zoo::buildDcgan();
    const BufferPartition p =
        chooseStaticPartition(net.layers(), hw);
    EXPECT_NEAR(p.ifmapFrac + p.weightFrac + p.ofmapFrac, 1.0,
                1e-9);
    EXPECT_GT(p.ifmapFrac, 0.0);
    EXPECT_GT(p.weightFrac, 0.0);
    EXPECT_GT(p.ofmapFrac, 0.0);
}

TEST(Scheduler, ScalarLayerUsesScalarUnit)
{
    HardwareConfig hw;
    dnn::LayerDesc act;
    act.name = "relu";
    act.kind = dnn::LayerKind::Activation;
    act.inChannels = act.outChannels = 64;
    act.inSpatial = {32, 32};
    const auto s = scheduleScalarLayer(act, hw);
    // 8 lanes at 1/4 clock -> 2 ops per accelerator cycle.
    EXPECT_EQ(s.latencyCycles, int64_t(64) * 32 * 32 / 2);
    EXPECT_EQ(s.traffic.total(), 0);
}

TEST(Scheduler, SmallerBufferNeverFaster)
{
    const auto layer = makeLayer(dnn::LayerKind::Deconv, {48, 96},
                                 256, 128, 4, 2, 1);
    const auto t = deconv::transformLayer(layer);
    HardwareConfig big, small;
    big.bufferBytes = 3 * 1024 * 1024;
    small.bufferBytes = 96 * 1024;
    const auto s_big =
        scheduleTransformedLayer(t, big, OptMode::Ilar);
    const auto s_small =
        scheduleTransformedLayer(t, small, OptMode::Ilar);
    EXPECT_LE(s_big.latencyCycles, s_small.latencyCycles);
    EXPECT_LE(s_big.traffic.total(), s_small.traffic.total());
}

TEST(Scheduler, MorePesNeverSlower)
{
    const auto layer = makeLayer(dnn::LayerKind::Conv, {64, 128},
                                 128, 128, 3, 1, 1);
    const auto t = deconv::transformLayer(layer);
    HardwareConfig small, big;
    small.peRows = small.peCols = 8;
    big.peRows = big.peCols = 48;
    const auto s_small =
        scheduleTransformedLayer(t, small, OptMode::ConvR);
    const auto s_big =
        scheduleTransformedLayer(t, big, OptMode::ConvR);
    EXPECT_LT(s_big.computeCycles, s_small.computeCycles);
}

/** Property sweep: random layers must always schedule feasibly. */
class SchedulerProperty
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{};

TEST_P(SchedulerProperty, AlwaysFeasibleAndBounded)
{
    const auto [k, s, in_c, out_c] = GetParam();
    HardwareConfig hw;
    const auto layer = makeLayer(dnn::LayerKind::Deconv, {21, 37},
                                 in_c, out_c, k, s, 1);
    const auto t = deconv::transformLayer(layer);
    for (OptMode mode :
         {OptMode::Naive, OptMode::ConvR, OptMode::Ilar}) {
        const LayerSchedule sch =
            scheduleTransformedLayer(t, hw, mode);
        EXPECT_GT(sch.latencyCycles, 0);
        EXPECT_GE(sch.latencyCycles,
                  t.totalMacs() / hw.peCount());
        // Weights must be loaded at least once.
        EXPECT_GE(sch.traffic.weightBytes,
                  t.subConvs.size() > 0
                      ? int64_t(in_c) * out_c * hw.bytesPerElem
                      : 0);
        // The ofmap must be written at least once.
        EXPECT_GT(sch.traffic.ofmapBytes, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    RandomShapes, SchedulerProperty,
    ::testing::Combine(::testing::Values<int64_t>(2, 3, 4, 5),
                       ::testing::Values<int64_t>(2, 3),
                       ::testing::Values<int64_t>(16, 128),
                       ::testing::Values<int64_t>(8, 96)));

} // namespace
