/**
 * @file
 * Test-only scalar reference of the separable filter loops behind
 * image::gaussianBlur and Farnebäck's polynomial-expansion moments,
 * written the way the library first computed them: every tap read
 * through Image::atClamped() into a double accumulator, one pixel at
 * a time. The library's vectorised passes (image::convolveX /
 * convolveY over the dispatched simd sepRow kernel) must match these
 * bit for bit at every SIMD level.
 */

#ifndef ASV_TESTS_SEPARABLE_REFERENCE_HH
#define ASV_TESTS_SEPARABLE_REFERENCE_HH

#include <cmath>
#include <vector>

#include "image/image.hh"
#include "image/ops.hh"

namespace asv::testref
{

/** dst(x, y) = float(sum_i k[i + r] * src(x + i, y)), clamped. */
template <typename Tap>
image::Image
convolveXRef(const image::Image &src, const std::vector<Tap> &k)
{
    const int r = int(k.size()) / 2;
    image::Image dst(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            double acc = 0.0;
            for (int i = -r; i <= r; ++i)
                acc += k[i + r] * src.atClamped(x + i, y);
            dst.at(x, y) = static_cast<float>(acc);
        }
    }
    return dst;
}

/** dst(x, y) = float(sum_i k[i + r] * src(x, y + i)), clamped. */
template <typename Tap>
image::Image
convolveYRef(const image::Image &src, const std::vector<Tap> &k)
{
    const int r = int(k.size()) / 2;
    image::Image dst(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y) {
        for (int x = 0; x < src.width(); ++x) {
            double acc = 0.0;
            for (int i = -r; i <= r; ++i)
                acc += k[i + r] * src.atClamped(x, y + i);
            dst.at(x, y) = static_cast<float>(acc);
        }
    }
    return dst;
}

/** Separable Gaussian blur: f32 taps, x pass then y pass. */
inline image::Image
gaussianBlurRef(const image::Image &src, int radius, double sigma)
{
    if (radius == 0)
        return src;
    const std::vector<float> k = image::gaussianKernel1d(radius, sigma);
    return convolveYRef(convolveXRef(src, k), k);
}

/** Farnebäck moment taps w(t) * t^p under a Gaussian of @p sigma. */
inline std::vector<double>
momentTaps(int radius, double sigma, int p)
{
    std::vector<double> k(2 * radius + 1);
    for (int t = -radius; t <= radius; ++t) {
        const double w =
            std::exp(-(double(t) * t) / (2.0 * sigma * sigma));
        k[t + radius] = w * std::pow(double(t), p);
    }
    return k;
}

} // namespace asv::testref

#endif // ASV_TESTS_SEPARABLE_REFERENCE_HH
