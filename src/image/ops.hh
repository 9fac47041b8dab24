/**
 * @file
 * Core image operations: Gaussian blur, separable filter passes,
 * resize, gradients, pyramids.
 *
 * Gaussian blur is the convolutional workhorse of the Farnebäck
 * optical-flow stage in ISM (Sec. 3.3): "99% of the compute in
 * Farneback is due to three operations: Gaussian blur, Compute Flow
 * and Matrix Update". Blur is implemented separably and its op count
 * is exposed so the accelerator mapping can charge it as a convolution
 * layer (Sec. 5.1).
 *
 * Parallelism and exactness: every pass is partitioned by output row
 * across the ExecContext's pool, and every output pixel is the exact
 * serial reduction, so results are bit-identical for any worker
 * count. The separable passes of the blur (f32 taps) and of
 * Farnebäck's moments (f64 taps, convolveX / convolveY) share one
 * row loop, which runs the dispatched simd::Kernels::sepRowF32 /
 * sepRowF64 kernel; its lanes replay the scalar rounding sequence, so
 * they are bit-identical at every SIMD level too. Only the 2r border
 * columns of a horizontal pass read clamped pixels one tap at a time.
 */

#ifndef ASV_IMAGE_OPS_HH
#define ASV_IMAGE_OPS_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/exec_context.hh"
#include "image/image.hh"

namespace asv::image
{

/** 1-D Gaussian kernel of the given radius (size 2r+1), normalized. */
std::vector<float> gaussianKernel1d(int radius, double sigma);

/**
 * Separable filter pass along x over output rows [y0, y1), with
 * replicate borders and f64 taps (Farnebäck's moment passes). With
 * r = (taps.size() - 1) / 2:
 *
 *   dst(x, y) = float(sum over t ascending of taps[t] * src(x+t-r, y))
 *
 * with the product and the sum in double, from +0. The caller fans
 * rows out (so several passes can share one parallelFor); @p dst must
 * be sized like @p src and must not alias it. Bit-identical at every
 * SIMD level.
 */
void convolveX(const Image &src, std::span<const double> taps,
               Image &dst, int y0, int y1);

/** convolveX() along y: taps read src(x, y+t-r), rows clamped. */
void convolveY(const Image &src, std::span<const double> taps,
               Image &dst, int y0, int y1);

/**
 * Separable Gaussian blur with replicate borders: an x pass then a y
 * pass with gaussianKernel1d's f32 taps, each product rounded to f32
 * and summed in double, each pass one row-parallel fan-out on
 * @p ctx's pool. Bit-identical for any worker count and SIMD level.
 *
 * @param src    input image
 * @param radius kernel radius (kernel size 2*radius+1)
 * @param sigma  Gaussian sigma; if <= 0 a radius-derived default is used
 * @param ctx    pool the rows are partitioned across
 */
Image gaussianBlur(const Image &src, int radius, double sigma,
                   const ExecContext &ctx);

/**
 * gaussianBlur() of every plane of @p planes, in place. All planes
 * share one horizontal and one vertical fan-out (instead of two per
 * plane); each result is bit-identical to gaussianBlur() of that
 * plane. Planes must be the same size.
 */
void gaussianBlurInPlace(std::span<Image> planes, int radius,
                         double sigma, const ExecContext &ctx);

/** Arithmetic op count of gaussianBlur on a w x h image. */
int64_t gaussianBlurOps(int width, int height, int radius);

/**
 * Bilinear resize to the exact target size, partitioned by output
 * row across @p ctx's pool (bit-identical for any worker count).
 */
Image resizeBilinear(const Image &src, int new_width, int new_height,
                     const ExecContext &ctx);

/** Downsample by 2 with a small anti-aliasing blur on @p ctx. */
Image downsample2x(const Image &src, const ExecContext &ctx);

/** Central-difference horizontal gradient. */
Image gradientX(const Image &src);

/** Central-difference vertical gradient. */
Image gradientY(const Image &src);

/**
 * A Gaussian image pyramid held in fixed-capacity storage, so
 * building one performs no heap allocation beyond its (pooled)
 * levels. Level 0 is full resolution.
 */
class Pyramid
{
  public:
    static constexpr int kMaxLevels = 16;

    int size() const { return levels_; }
    const Image &operator[](int level) const { return level_[level]; }
    const Image &back() const { return level_[levels_ - 1]; }

  private:
    friend Pyramid buildPyramid(const Image &, int, int,
                                const ExecContext &);

    std::array<Image, kMaxLevels> level_;
    int levels_ = 0;
};

/**
 * Gaussian image pyramid, level 0 = full resolution, each subsequent
 * level downsampled by 2 (anti-alias blur on @p ctx). Stops early if
 * a level would drop below @p min_size in either dimension, and after
 * Pyramid::kMaxLevels levels.
 */
Pyramid buildPyramid(const Image &src, int levels, int min_size,
                     const ExecContext &ctx);

/** Per-pixel absolute difference mean (simple similarity metric). */
double meanAbsDiff(const Image &a, const Image &b);

} // namespace asv::image

#endif // ASV_IMAGE_OPS_HH
