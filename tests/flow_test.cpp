/**
 * @file
 * Tests for Farnebäck optical flow: polynomial expansion recovers
 * known quadratics, flow recovers synthetic translations, the cost
 * model splits ops the way the ASV mapping charges them, and
 * core::ismFlow's output over a clip is pinned to a hash that must
 * hold at every SIMD level and worker count.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "data/scene.hh"
#include "flow/farneback.hh"
#include "flow/flow_field.hh"
#include "image/ops.hh"
#include "hash_util.hh"

namespace
{

using namespace asv;
using namespace asv::flow;

/** The pools the flow calls under test run on. */
const ExecContext &
ctx()
{
    static ThreadPool pool(2);
    static BufferPool buffers;
    static const ExecContext c(pool, buffers);
    return c;
}

/** Shift an image by integer (dx, dy) with clamped borders. */
image::Image
shiftImage(const image::Image &src, int dx, int dy)
{
    image::Image out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            out.at(x, y) = src.atClamped(x - dx, y - dy);
    return out;
}

TEST(PolyExpansion, RecoversQuadraticCoefficients)
{
    // f(x, y) = 2 + 3dx - dy + 0.5dx^2 + 0.25dy^2 + 0.1dxdy around
    // the center pixel; expansion at the center must recover the
    // local coefficients exactly (the surface is globally quadratic).
    const int w = 21, h = 21, cx = 10, cy = 10;
    image::Image img(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const float dx = float(x - cx), dy = float(y - cy);
            img.at(x, y) = 2.f + 3.f * dx - 1.f * dy +
                           0.5f * dx * dx + 0.25f * dy * dy +
                           0.1f * dx * dy;
        }
    }
    const PolyExpansion pe = polyExpansion(img, 3, 1.2, ctx());
    EXPECT_NEAR(pe.c.at(cx, cy), 2.0, 1e-3);
    EXPECT_NEAR(pe.bx.at(cx, cy), 3.0, 1e-3);
    EXPECT_NEAR(pe.by.at(cx, cy), -1.0, 1e-3);
    EXPECT_NEAR(pe.axx.at(cx, cy), 0.5, 1e-3);
    EXPECT_NEAR(pe.ayy.at(cx, cy), 0.25, 1e-3);
    EXPECT_NEAR(pe.axy.at(cx, cy), 0.1, 1e-3);
}

TEST(PolyExpansion, ConstantImageHasOnlyConstantTerm)
{
    image::Image img(16, 16, 9.f);
    const PolyExpansion pe = polyExpansion(img, 3, 1.2, ctx());
    EXPECT_NEAR(pe.c.at(8, 8), 9.0, 1e-4);
    EXPECT_NEAR(pe.bx.at(8, 8), 0.0, 1e-4);
    EXPECT_NEAR(pe.axx.at(8, 8), 0.0, 1e-4);
}

class FlowTranslation : public ::testing::TestWithParam<
                            std::pair<int, int>>
{};

TEST_P(FlowTranslation, RecoversKnownShift)
{
    const auto [dx, dy] = GetParam();
    Rng rng(101);
    image::Image base =
        data::makeTexture(96, 72, 9.f, rng);
    image::Image moved = shiftImage(base, dx, dy);

    FarnebackParams params;
    params.pyramidLevels = 3;
    params.iterations = 3;
    FlowField f = farnebackFlow(base, moved, params, nullptr, ctx());

    FlowField gt(base.width(), base.height());
    gt.fill(float(dx), float(dy));
    const double epe = averageEndpointError(f, gt, /*margin=*/10);
    EXPECT_LT(epe, 0.5) << "shift (" << dx << ", " << dy << ")";
}

INSTANTIATE_TEST_SUITE_P(
    Shifts, FlowTranslation,
    ::testing::Values(std::pair{1, 0}, std::pair{0, 1},
                      std::pair{2, 1}, std::pair{-2, 1},
                      std::pair{3, -2}, std::pair{-4, -3}));

TEST(Flow, ZeroMotionGivesNearZeroFlow)
{
    Rng rng(11);
    image::Image img = data::makeTexture(64, 64, 8.f, rng);
    FlowField f = farnebackFlow(img, img, {}, nullptr, ctx());
    FlowField zero(64, 64);
    EXPECT_LT(averageEndpointError(f, zero, 4), 0.05);
}

TEST(Flow, InitialFlowSpeedsConvergence)
{
    Rng rng(12);
    image::Image base = data::makeTexture(80, 64, 8.f, rng);
    image::Image moved = shiftImage(base, 5, 0);

    // One iteration on one level cannot catch a 5 px shift...
    FarnebackParams weak;
    weak.pyramidLevels = 1;
    weak.iterations = 1;
    FlowField cold = farnebackFlow(base, moved, weak, nullptr, ctx());

    // ...unless seeded with a good initial estimate (what ISM does
    // when chaining frames).
    FlowField init(80, 64);
    init.fill(5.f, 0.f);
    FlowField warm = farnebackFlow(base, moved, weak, &init, ctx());

    FlowField gt(80, 64);
    gt.fill(5.f, 0.f);
    EXPECT_LT(averageEndpointError(warm, gt, 8),
              averageEndpointError(cold, gt, 8));
    EXPECT_LT(averageEndpointError(warm, gt, 8), 0.6);
}

TEST(Flow, WarpByFlowInvertsTranslation)
{
    Rng rng(13);
    image::Image base = data::makeTexture(64, 48, 8.f, rng);
    image::Image moved = shiftImage(base, 3, 2);
    FlowField gt(64, 48);
    gt.fill(3.f, 2.f);
    image::Image warped = warpByFlow(moved, gt);
    // warped(x,y) = moved(x+3, y+2) = base(x, y) in the interior.
    double max_diff = 0;
    for (int y = 6; y < 42; ++y)
        for (int x = 6; x < 58; ++x)
            max_diff = std::max(max_diff,
                                (double)std::abs(warped.at(x, y) -
                                                 base.at(x, y)));
    EXPECT_LT(max_diff, 1e-3);
}

TEST(FlowCost, SplitsConvAndPointwise)
{
    FarnebackParams p;
    const FarnebackCost c = farnebackCost(960, 540, p);
    EXPECT_GT(c.convOps, 0);
    EXPECT_GT(c.pointwiseOps, 0);
    EXPECT_EQ(c.total(), c.convOps + c.pointwiseOps);
    // Sec. 3.3: the convolutional part (Gaussian blur) dominates.
    EXPECT_GT(c.convOps, c.pointwiseOps);
}

TEST(FlowCost, ScalesWithResolution)
{
    FarnebackParams p;
    const auto small = farnebackCost(100, 100, p);
    const auto large = farnebackCost(200, 200, p);
    EXPECT_NEAR(double(large.total()) / double(small.total()), 4.0,
                0.4);
}

/** Hash of core::ismFlow's u/v for both cameras over @p seq. */
uint64_t
ismFlowClipHash(const data::StereoSequence &seq, const ExecContext &exec)
{
    const core::IsmParams p;
    uint64_t h = testref::kFnvBasis;
    for (size_t t = 1; t < seq.frames.size(); ++t) {
        const data::StereoFrame &a = seq.frames[t - 1];
        const data::StereoFrame &b = seq.frames[t];
        for (const auto &[from, to] :
             {std::pair{&a.left, &b.left}, std::pair{&a.right, &b.right}}) {
            const FlowField f = core::ismFlow(*from, *to, p, exec);
            h = testref::fnv1a(testref::fnv1a(h, f.u), f.v);
        }
    }
    return h;
}

TEST(IsmFlowPin, ClipHashHoldsAtEverySimdLevelAndPoolSize)
{
    // Computed with the original per-pixel scalar loops (the blur and
    // moment ones are kept in tests/separable_reference.hh); any
    // change in rounding, accumulation order or border handling
    // moves it.
    constexpr uint64_t kPinned = 0x3055cfd14659e6d9ull;

    data::SceneConfig cfg;
    cfg.width = 320;
    cfg.height = 240;
    const data::StereoSequence seq = data::generateSequence(cfg, 12, 7);

    const simd::Level saved = simd::activeLevel();
    for (simd::Level level : simd::supportedLevels()) {
        simd::setLevel(level);
        for (int workers : {1, 2, 4}) {
            ThreadPool pool(workers);
            BufferPool buffers;
            EXPECT_EQ(kPinned,
                      ismFlowClipHash(seq, ExecContext(pool, buffers)))
                << simd::levelName(level) << ", " << workers
                << " workers";
        }
    }
    simd::setLevel(saved);
}

} // namespace
