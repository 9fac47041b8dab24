/**
 * @file
 * Unit tests for the image substrate: container semantics, Gaussian
 * blur, resize, gradients, pyramids and file I/O.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "debug/alloc_tracker.hh"
#include "image/image.hh"
#include "image/io.hh"
#include "image/ops.hh"
#include "separable_reference.hh"

namespace
{

using namespace asv::image;
using asv::Rng;

/** The pools the image ops under test run on. */
const asv::ExecContext &
ctx()
{
    static asv::ThreadPool pool(2);
    static asv::BufferPool buffers;
    static const asv::ExecContext c(pool, buffers);
    return c;
}

Image
randomImage(int w, int h, Rng &rng)
{
    Image img(w, h);
    for (auto &v : img.flat())
        v = float(rng.uniformReal(0, 255));
    return img;
}

TEST(Image, BasicAccess)
{
    Image img(4, 3);
    EXPECT_EQ(img.width(), 4);
    EXPECT_EQ(img.height(), 3);
    EXPECT_EQ(img.size(), 12);
    img.at(2, 1) = 7.f;
    EXPECT_FLOAT_EQ(img.at(2, 1), 7.f);
}

TEST(Image, MovesAreNoexceptAndNeverCopy)
{
    // The containers the pool recycles must be nothrow-movable so
    // vector growth, std::move returns and swap never degrade to
    // copies (a copy would both allocate and detach the pool
    // backref).
    static_assert(std::is_nothrow_move_constructible_v<Image>);
    static_assert(std::is_nothrow_move_assignable_v<Image>);

    asv::BufferPool pool;
    Image img = acquireImage(pool, 64, 48);
    img.at(3, 2) = 5.f;
    const float *storage = img.data();

    // A copy sneaking into the move path would show up here as an
    // allocation (and a different data pointer).
    asv::debug::AllocScope scope;
    Image moved(std::move(img));
    Image target;
    target = std::move(moved);
    EXPECT_EQ(0u, scope.counts().allocs)
        << "a copy sneaked into the move path";
    EXPECT_EQ(storage, target.data());
    EXPECT_FLOAT_EQ(5.f, target.at(3, 2));

    // The pool backref traveled with the moves: destroying the
    // final owner shelves the storage for reuse.
    target = Image();
    EXPECT_EQ(1u, pool.stats().residentBuffers);
    Image again = acquireImageUninit(pool, 64, 48);
    EXPECT_EQ(storage, again.data());
}

TEST(Image, ClampedReads)
{
    Image img(2, 2);
    img.at(0, 0) = 1.f;
    img.at(1, 1) = 4.f;
    EXPECT_FLOAT_EQ(img.atClamped(-5, -5), 1.f);
    EXPECT_FLOAT_EQ(img.atClamped(10, 10), 4.f);
}

TEST(Image, BilinearSampling)
{
    Image img(2, 1);
    img.at(0, 0) = 0.f;
    img.at(1, 0) = 10.f;
    EXPECT_FLOAT_EQ(img.sample(0.5f, 0.f), 5.f);
    EXPECT_FLOAT_EQ(img.sample(0.25f, 0.f), 2.5f);
}

TEST(GaussianBlur, KernelNormalized)
{
    const auto k = gaussianKernel1d(3, 1.0);
    EXPECT_EQ(k.size(), 7u);
    const double sum = std::accumulate(k.begin(), k.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-5);
    // Symmetric and peaked at the center.
    EXPECT_FLOAT_EQ(k[0], k[6]);
    EXPECT_GT(k[3], k[2]);
}

TEST(GaussianBlur, PreservesConstantImage)
{
    Image img(16, 16, 42.f);
    Image blurred = gaussianBlur(img, 2, -1.0, ctx());
    EXPECT_NEAR(blurred.maxAbsDiff(img), 0.0, 1e-3);
}

TEST(GaussianBlur, ReducesVariance)
{
    Rng rng(5);
    Image img = randomImage(32, 32, rng);
    Image blurred = gaussianBlur(img, 3, -1.0, ctx());
    auto variance = [](const Image &im) {
        const double m = im.mean();
        double v = 0;
        for (int64_t i = 0; i < im.size(); ++i)
            v += (im.data()[i] - m) * (im.data()[i] - m);
        return v / double(im.size());
    };
    EXPECT_LT(variance(blurred), variance(img) * 0.5);
    // DC is preserved (up to border effects).
    EXPECT_NEAR(blurred.mean(), img.mean(), 3.0);
}

TEST(GaussianBlur, OpsModel)
{
    // Two separable passes of (2r+1) taps each.
    EXPECT_EQ(gaussianBlurOps(10, 10, 2), int64_t(2) * 5 * 100);
}

/** Same size and the same bit pattern at every pixel. */
void
expectBitEqual(const Image &got, const Image &want, const std::string &what)
{
    ASSERT_EQ(got.width(), want.width()) << what;
    ASSERT_EQ(got.height(), want.height()) << what;
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                             size_t(got.size()) * sizeof(float)))
        << what;
}

/**
 * gaussianBlur, gaussianBlurInPlace and the f64-tap moment passes of
 * @p img at radius @p r, each diffed bit for bit against the scalar
 * reference.
 */
void
checkSeparableAgainstReference(const Image &img, int r, Rng &rng,
                               const std::string &what)
{
    expectBitEqual(gaussianBlur(img, r, -1.0, ctx()),
                   asv::testref::gaussianBlurRef(img, r, -1.0),
                   "blur " + what);

    // Several planes in place equal one blur each.
    std::array<Image, 3> planes = {img, img, img};
    for (auto &v : planes[1].flat())
        v = float(rng.uniformReal(-1, 1));
    for (auto &v : planes[2].flat())
        v = float(rng.uniformReal(0, 1e6));
    std::array<Image, 3> want;
    for (int p = 0; p < 3; ++p)
        want[p] = asv::testref::gaussianBlurRef(planes[p], r, -1.0);
    gaussianBlurInPlace(planes, r, -1.0, ctx());
    for (int p = 0; p < 3; ++p)
        expectBitEqual(planes[p], want[p], "in-place blur " + what);

    // f64 taps: the Farnebäck moment passes.
    Image dst(img.width(), img.height());
    for (int p = 0; p < 3; ++p) {
        const std::vector<double> k = asv::testref::momentTaps(r, 1.2, p);
        const std::string moment = " p=" + std::to_string(p) + " " + what;
        convolveX(img, k, dst, 0, img.height());
        expectBitEqual(dst, asv::testref::convolveXRef(img, k),
                       "moment x" + moment);
        convolveY(img, k, dst, 0, img.height());
        expectBitEqual(dst, asv::testref::convolveYRef(img, k),
                       "moment y" + moment);
    }
}

/**
 * The separable passes against the scalar reference, bit for bit, at
 * every supported SIMD level: radii 0-6 (plus one radius past the
 * stacked-row-pointer limit) on 160x120 and on images whose interior
 * is empty — 1x1, 5x3, and 2r x 2r (narrower than the 2r+1 window in
 * both directions). Each size runs on noise and on 16x16 constant
 * blocks: inside a block the antisymmetric p=1 moment taps cancel to
 * a rounding residual, which exposes any change in the order or
 * fusion of the multiply-adds that rounding a non-cancelling sum to
 * float would hide.
 */
TEST(SeparableFilter, MatchesScalarReferenceBitExactly)
{
    Rng rng(21);
    const asv::simd::Level saved = asv::simd::activeLevel();
    for (asv::simd::Level level : asv::simd::supportedLevels()) {
        asv::simd::setLevel(level);
        for (int r : {0, 1, 2, 3, 4, 5, 6, 32}) {
            std::vector<std::pair<int, int>> sizes = {
                {160, 120}, {1, 1}, {5, 3}};
            if (r > 0)
                sizes.push_back({2 * r, 2 * r});
            if (r == 32)
                sizes = {{70, 40}, {5, 3}};
            for (const auto &[w, h] : sizes) {
                for (bool blocks : {false, true}) {
                    Image img(w, h);
                    for (auto &v : img.flat())
                        v = float(rng.uniformReal(-500, 500));
                    if (blocks) {
                        for (int y = 0; y < h; ++y)
                            for (int x = 0; x < w; ++x)
                                img.at(x, y) = img.at(x & ~15, y & ~15);
                    }
                    checkSeparableAgainstReference(
                        img, r, rng,
                        std::string(asv::simd::levelName(level)) +
                            " r=" + std::to_string(r) + " " +
                            std::to_string(w) + "x" + std::to_string(h) +
                            (blocks ? " blocks" : " noise"));
                }
            }
        }
    }
    asv::simd::setLevel(saved);
}

TEST(Resize, SmoothImageRoundTripIsNearLossless)
{
    // A linear ramp is reproduced exactly by bilinear interpolation
    // (up to border phase), so up-down round trips stay tight.
    Image img(16, 16);
    for (int y = 0; y < 16; ++y)
        for (int x = 0; x < 16; ++x)
            img.at(x, y) = 3.f * x + 2.f * y;
    Image up = resizeBilinear(img, 32, 32, ctx());
    Image down = resizeBilinear(up, 16, 16, ctx());
    double max_diff = 0;
    for (int y = 2; y < 14; ++y)
        for (int x = 2; x < 14; ++x)
            max_diff = std::max(
                max_diff,
                (double)std::abs(img.at(x, y) - down.at(x, y)));
    EXPECT_LT(max_diff, 1.5);
    EXPECT_EQ(up.width(), 32);
}

TEST(Resize, NoiseRoundTripBoundedOnAverage)
{
    // White noise is the worst case for bilinear resampling: the
    // per-pixel error can be large, but the mean error stays small.
    Rng rng(6);
    Image img = randomImage(16, 16, rng);
    Image up = resizeBilinear(img, 32, 32, ctx());
    Image down = resizeBilinear(up, 16, 16, ctx());
    EXPECT_LT(meanAbsDiff(img, down), 40.0);
}

TEST(Bilinear, SampleMatchesFloorAndClampReference)
{
    // Image::sample (and so resizeBilinear and Farnebäck's shared
    // five-plane sample) against the textbook floor + atClamped
    // formula, bit for bit, over coordinates inside, between and
    // beyond the pixel grid, negative ones included.
    Rng rng(22);
    const Image img = randomImage(13, 7, rng);
    const auto reference = [&](float x, float y) {
        const int x0 = static_cast<int>(std::floor(x));
        const int y0 = static_cast<int>(std::floor(y));
        const float fx = x - x0, fy = y - y0;
        return (1 - fx) * (1 - fy) * img.atClamped(x0, y0) +
               fx * (1 - fy) * img.atClamped(x0 + 1, y0) +
               (1 - fx) * fy * img.atClamped(x0, y0 + 1) +
               fx * fy * img.atClamped(x0 + 1, y0 + 1);
    };
    std::vector<std::pair<float, float>> points = {
        {0.f, 0.f}, {-0.f, -0.f}, {12.f, 6.f}, {-1.f, -3.f},
        {-0.25f, 3.5f}, {12.75f, 6.5f}, {20.f, -7.25f}, {5.5f, 2.f}};
    for (int i = 0; i < 2000; ++i)
        points.push_back({float(rng.uniformReal(-4, 17)),
                          float(rng.uniformReal(-4, 11))});
    for (const auto &[x, y] : points) {
        const float got = img.sample(x, y), want = reference(x, y);
        EXPECT_EQ(0, std::memcmp(&got, &want, sizeof(float)))
            << "(" << x << ", " << y << ")";
    }
}

TEST(Pyramid, LevelsHalve)
{
    Image img(64, 48);
    auto pyr = buildPyramid(img, 4, 4, ctx());
    ASSERT_EQ(pyr.size(), 4);
    EXPECT_EQ(pyr[1].width(), 32);
    EXPECT_EQ(pyr[2].width(), 16);
    EXPECT_EQ(pyr[3].height(), 6);
}

TEST(Pyramid, StopsAtMinSize)
{
    Image img(64, 64);
    auto pyr = buildPyramid(img, 8, 16, ctx());
    // 64 -> 32 -> 16; the next level (8) would drop below 16.
    EXPECT_EQ(pyr.size(), 3);
}

TEST(Gradients, LinearRamp)
{
    Image img(8, 8);
    for (int y = 0; y < 8; ++y)
        for (int x = 0; x < 8; ++x)
            img.at(x, y) = 3.f * x + 5.f * y;
    Image gx = gradientX(img);
    Image gy = gradientY(img);
    // Central difference of a linear ramp is exact in the interior.
    EXPECT_FLOAT_EQ(gx.at(4, 4), 3.f);
    EXPECT_FLOAT_EQ(gy.at(4, 4), 5.f);
}

TEST(ImageIo, PgmRoundTrip)
{
    Rng rng(7);
    Image img = randomImage(20, 10, rng);
    const std::string path = "/tmp/asv_test_roundtrip.pgm";
    ASSERT_TRUE(writePgm(img, path, 0.f, 255.f));
    Image back;
    ASSERT_TRUE(readPgm(back, path));
    EXPECT_EQ(back.width(), 20);
    EXPECT_EQ(back.height(), 10);
    // 8-bit quantization: within one gray level.
    EXPECT_LT(back.maxAbsDiff(img), 1.5);
    std::remove(path.c_str());
}

TEST(ImageIo, PfmRoundTripIsExact)
{
    Rng rng(8);
    Image img = randomImage(13, 9, rng);
    const std::string path = "/tmp/asv_test_roundtrip.pfm";
    ASSERT_TRUE(writePfm(img, path));
    Image back;
    ASSERT_TRUE(readPfm(back, path));
    EXPECT_DOUBLE_EQ(back.maxAbsDiff(img), 0.0);
    std::remove(path.c_str());
}

TEST(ImageIo, MissingFileFails)
{
    Image img;
    EXPECT_FALSE(readPgm(img, "/tmp/asv_does_not_exist.pgm"));
    EXPECT_FALSE(readPfm(img, "/tmp/asv_does_not_exist.pfm"));
}

} // namespace
