/**
 * @file
 * Tests for Harris corners and pyramidal sparse Lucas-Kanade flow —
 * and the measurement behind Sec. 3.3's rejection of sparse flow
 * for stereo propagation (coverage).
 */

#include <gtest/gtest.h>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "data/scene.hh"
#include "flow/lucas_kanade.hh"

namespace
{

using namespace asv;
using namespace asv::flow;

/** The pools the corner detector under test runs on. */
const ExecContext &
ctx()
{
    static ThreadPool pool(2);
    static BufferPool buffers;
    static const ExecContext c(pool, buffers);
    return c;
}

image::Image
shiftImage(const image::Image &src, int dx, int dy)
{
    image::Image out(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            out.at(x, y) = src.atClamped(x - dx, y - dy);
    return out;
}

TEST(Harris, CornerOutscoresEdgeAndFlat)
{
    // A white square on black: corners must dominate edges and
    // flat regions in the response map.
    image::Image img(40, 40, 0.f);
    for (int y = 10; y < 30; ++y)
        for (int x = 10; x < 30; ++x)
            img.at(x, y) = 200.f;
    const image::Image r = harrisResponse(img, ctx());
    const float corner = r.at(10, 10);
    const float edge = r.at(20, 10);
    const float flat = r.at(20, 20);
    EXPECT_GT(corner, edge);
    EXPECT_GT(corner, 0.f);
    EXPECT_LT(std::abs(flat), std::abs(corner) / 100);
}

TEST(Harris, DetectsSquareCorners)
{
    image::Image img(40, 40, 0.f);
    for (int y = 10; y < 30; ++y)
        for (int x = 10; x < 30; ++x)
            img.at(x, y) = 200.f;
    const auto corners = detectCorners(img, {}, ctx());
    ASSERT_GE(corners.size(), 4u);
    // All four square corners found within 2 px.
    int found = 0;
    for (int cy : {10, 29}) {
        for (int cx : {10, 29}) {
            for (const auto &p : corners) {
                if (std::abs(p.x - cx) <= 2 &&
                    std::abs(p.y - cy) <= 2) {
                    ++found;
                    break;
                }
            }
        }
    }
    EXPECT_EQ(found, 4);
}

TEST(Corners, SpacingIsRespected)
{
    Rng rng(41);
    image::Image img = data::makeTexture(96, 96, 6.f, rng);
    LucasKanadeParams p;
    p.minDistance = 10;
    const auto corners = detectCorners(img, p, ctx());
    for (size_t i = 0; i < corners.size(); ++i) {
        for (size_t j = i + 1; j < corners.size(); ++j) {
            const float dx = corners[i].x - corners[j].x;
            const float dy = corners[i].y - corners[j].y;
            EXPECT_GE(dx * dx + dy * dy, 100.f);
        }
    }
}

TEST(LucasKanade, TracksKnownTranslation)
{
    Rng rng(42);
    image::Image base = data::makeTexture(96, 72, 7.f, rng);
    image::Image moved = shiftImage(base, 3, 2);

    auto points = detectCorners(base, {}, ctx());
    ASSERT_GT(points.size(), 10u);
    trackLucasKanade(base, moved, points, {}, ExecContext::global());

    int valid = 0;
    double err = 0;
    for (const auto &p : points) {
        if (!p.valid || p.x < 10 || p.x > 86 || p.y < 10 ||
            p.y > 62)
            continue;
        ++valid;
        err += std::hypot(p.u - 3.0, p.v - 2.0);
    }
    ASSERT_GT(valid, 5);
    EXPECT_LT(err / valid, 0.5);
}

TEST(LucasKanade, FlatRegionsAreRejected)
{
    image::Image flat(64, 64, 100.f);
    std::vector<TrackedPoint> points(1);
    points[0].x = 32;
    points[0].y = 32;
    trackLucasKanade(flat, flat, points, {}, ExecContext::global());
    EXPECT_FALSE(points[0].valid);
}

TEST(Sparse, CoverageIsPartial)
{
    // The Sec. 3.3 objection, measured: corners never cover the
    // frame at per-pixel granularity.
    Rng rng(43);
    image::Image img = data::makeTexture(128, 96, 8.f, rng);
    LucasKanadeParams p;
    p.maxCorners = 64;
    auto points = detectCorners(img, p, ctx());
    for (auto &pt : points)
        pt.valid = true;
    const double cov = sparseCoverage(points, 128, 96, 4);
    EXPECT_GT(cov, 0.02);
    EXPECT_LT(cov, 0.8); // far from the dense coverage ISM needs
}

TEST(Sparse, DensifiedFieldIsPiecewiseConstant)
{
    std::vector<TrackedPoint> points(2);
    points[0] = {10, 10, 1.f, 0.f, true};
    points[1] = {50, 10, -2.f, 0.f, true};
    const FlowField f = densifySparseFlow(points, 64, 24);
    // Left half follows the left feature, right half the right one;
    // the motion boundary is wherever the Voronoi edge falls, not
    // where the scene's objects are.
    EXPECT_FLOAT_EQ(f.u.at(5, 10), 1.f);
    EXPECT_FLOAT_EQ(f.u.at(60, 10), -2.f);
}

TEST(Sparse, DensifyWithNoValidPointsIsZero)
{
    std::vector<TrackedPoint> points(3); // all invalid
    const FlowField f = densifySparseFlow(points, 16, 16);
    EXPECT_FLOAT_EQ(f.u.at(8, 8), 0.f);
    EXPECT_FLOAT_EQ(f.v.at(8, 8), 0.f);
}

} // namespace
