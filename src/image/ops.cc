#include "image/ops.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/simd.hh"

namespace asv::image
{

namespace
{

/** Fill k[0 .. 2r] with the normalized Gaussian taps. */
void
fillGaussianKernel1d(float *k, int radius, double sigma)
{
    panic_if(radius < 0, "negative radius");
    if (sigma <= 0.0)
        sigma = 0.3 * (radius - 1) + 0.8; // OpenCV-style default

    double sum = 0.0;
    for (int i = -radius; i <= radius; ++i) {
        const double v = std::exp(-(double(i) * i) /
                                  (2.0 * sigma * sigma));
        k[i + radius] = static_cast<float>(v);
        sum += v;
    }
    for (int i = 0; i <= 2 * radius; ++i)
        k[i] = static_cast<float>(k[i] / sum);
}

/**
 * Row pointers are staged on the stack; a filter longer than this
 * (radius > 31) takes the all-clamped scalar loop instead.
 */
constexpr int kMaxTaps = 63;

template <typename Tap>
auto
sepRowKernel(const simd::Kernels &k)
{
    if constexpr (std::is_same_v<Tap, float>)
        return k.sepRowF32;
    else
        return k.sepRowF64;
}

/**
 * One output row of the x pass: the dispatched kernel over the
 * interior columns [lo, hi), whose taps are all in bounds, and the
 * clamped scalar loop over the border columns. Both evaluate
 * `acc += k[t] * pixel` for t ascending from acc = +0.
 */
template <typename Tap>
void
filterRowX(const float *srow, int w, const Tap *k, int ntaps,
           const simd::Kernels &kern, float *drow)
{
    const int r = ntaps / 2;
    const int lo = std::min(r, w);
    const int hi = ntaps > kMaxTaps ? lo : std::max(lo, w - r);
    if (hi > lo) {
        const float *rows[kMaxTaps];
        for (int t = 0; t < ntaps; ++t)
            rows[t] = srow + t;
        sepRowKernel<Tap>(kern)(rows, k, ntaps, hi - lo, drow + lo);
    }
    const auto border = [&](int x) {
        double acc = 0.0;
        for (int t = 0; t < ntaps; ++t)
            acc += k[t] * srow[clamp(x + t - r, 0, w - 1)];
        drow[x] = static_cast<float>(acc);
    };
    for (int x = 0; x < lo; ++x)
        border(x);
    for (int x = hi; x < w; ++x)
        border(x);
}

/** One output row @p y of the y pass over a w x h plane. */
template <typename Tap>
void
filterRowY(const float *plane, int w, int h, int y, const Tap *k,
           int ntaps, const simd::Kernels &kern, float *drow)
{
    const int r = ntaps / 2;
    const auto row = [&](int t) {
        return plane + int64_t(clamp(y + t - r, 0, h - 1)) * w;
    };
    if (ntaps <= kMaxTaps) {
        const float *rows[kMaxTaps];
        for (int t = 0; t < ntaps; ++t)
            rows[t] = row(t);
        sepRowKernel<Tap>(kern)(rows, k, ntaps, w, drow);
        return;
    }
    for (int x = 0; x < w; ++x) {
        double acc = 0.0;
        for (int t = 0; t < ntaps; ++t)
            acc += k[t] * row(t)[x];
        drow[x] = static_cast<float>(acc);
    }
}

/** convolveX (@p AlongX) or convolveY over output rows [y0, y1). */
template <bool AlongX>
void
convolve(const Image &src, std::span<const double> taps, Image &dst,
         int y0, int y1)
{
    panic_if(taps.size() % 2 == 0, "separable filter needs odd taps");
    panic_if(dst.width() != src.width() ||
                 dst.height() != src.height(),
             "filter destination size mismatch");
    const simd::Kernels &kern = simd::kernels();
    const int w = src.width(), ntaps = int(taps.size());
    for (int y = y0; y < y1; ++y) {
        float *drow = dst.data() + int64_t(y) * w;
        if constexpr (AlongX)
            filterRowX(src.data() + int64_t(y) * w, w, taps.data(),
                       ntaps, kern, drow);
        else
            filterRowY(src.data(), w, src.height(), y, taps.data(),
                       ntaps, kern, drow);
    }
}

} // namespace

std::vector<float>
gaussianKernel1d(int radius, double sigma)
{
    panic_if(radius < 0, "negative radius");
    std::vector<float> k(2 * radius + 1);
    fillGaussianKernel1d(k.data(), radius, sigma);
    return k;
}

void
convolveX(const Image &src, std::span<const double> taps, Image &dst,
          int y0, int y1)
{
    convolve<true>(src, taps, dst, y0, y1);
}

void
convolveY(const Image &src, std::span<const double> taps, Image &dst,
          int y0, int y1)
{
    convolve<false>(src, taps, dst, y0, y1);
}

Image
gaussianBlur(const Image &src, int radius, double sigma,
             const ExecContext &ctx)
{
    if (radius == 0)
        return src;
    Image dst =
        acquireImageUninit(ctx.buffers(), src.width(), src.height());
    std::copy(src.data(), src.data() + src.size(), dst.data());
    gaussianBlurInPlace(std::span<Image>(&dst, 1), radius, sigma, ctx);
    return dst;
}

void
gaussianBlurInPlace(std::span<Image> planes, int radius, double sigma,
                    const ExecContext &ctx)
{
    if (radius == 0 || planes.empty())
        return;
    const int w = planes[0].width(), h = planes[0].height();
    for (const Image &p : planes)
        panic_if(p.width() != w || p.height() != h,
                 "blur planes differ in size");
    auto k = ctx.buffers().acquire<float>(size_t(2 * radius + 1));
    fillGaussianKernel1d(k.data(), radius, sigma);
    const int ntaps = int(k.size());
    const int64_t plane_size = int64_t(w) * h;

    // One scratch image holds every plane's horizontal result,
    // stacked: plane p occupies rows [p*h, (p+1)*h).
    Image tmp = acquireImageUninit(ctx.buffers(), w,
                                   h * int(planes.size()));
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        const simd::Kernels &kern = simd::kernels();
        for (size_t p = 0; p < planes.size(); ++p)
            for (int64_t y = y0; y < y1; ++y)
                filterRowX(planes[p].data() + y * w, w, k.data(),
                           ntaps, kern,
                           tmp.data() + int64_t(p) * plane_size +
                               y * w);
    });
    // Every plane's input is consumed, so the vertical pass writes
    // the results back over it.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        const simd::Kernels &kern = simd::kernels();
        for (size_t p = 0; p < planes.size(); ++p)
            for (int64_t y = y0; y < y1; ++y)
                filterRowY(tmp.data() + int64_t(p) * plane_size, w, h,
                           int(y), k.data(), ntaps, kern,
                           planes[p].data() + y * w);
    });
}

int64_t
gaussianBlurOps(int width, int height, int radius)
{
    // Two separable passes, one MAC per tap per pixel.
    const int64_t taps = 2 * int64_t(radius) + 1;
    return 2 * taps * int64_t(width) * int64_t(height);
}

Image
resizeBilinear(const Image &src, int new_width, int new_height,
               const ExecContext &ctx)
{
    panic_if(new_width <= 0 || new_height <= 0, "bad resize target");
    Image dst = acquireImageUninit(ctx.buffers(), new_width,
                                   new_height);
    const float sx = float(src.width()) / new_width;
    const float sy = float(src.height()) / new_height;
    // A sample's x axis depends on its column alone: resolve each
    // column's floor, clamped neighbours and fraction once. Every
    // pixel then combines its column and row axes exactly as
    // Image::sample() does.
    auto cols = ctx.buffers().acquire<uint32_t>(2 * size_t(new_width));
    auto fracs = ctx.buffers().acquire<float>(size_t(new_width));
    for (int x = 0; x < new_width; ++x) {
        const BilinearAxis a =
            BilinearAxis::at((x + 0.5f) * sx - 0.5f, src.width());
        cols[2 * size_t(x)] = uint32_t(a.lo);
        cols[2 * size_t(x) + 1] = uint32_t(a.hi);
        fracs[size_t(x)] = a.frac;
    }
    // Output rows are independent.
    ctx.parallelFor(0, new_height, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            const BilinearAxis ay =
                BilinearAxis::at((y + 0.5f) * sy - 0.5f, src.height());
            float *drow = dst.data() + int64_t(y) * new_width;
            for (int x = 0; x < new_width; ++x) {
                const BilinearAxis ax = {int(cols[2 * size_t(x)]),
                                         int(cols[2 * size_t(x) + 1]),
                                         fracs[size_t(x)]};
                drow[x] = BilinearSample(src.width(), ax, ay).apply(src);
            }
        }
    });
    return dst;
}

Image
downsample2x(const Image &src, const ExecContext &ctx)
{
    Image blurred = gaussianBlur(src, 1, 0.8, ctx);
    const int w = std::max(1, src.width() / 2);
    const int h = std::max(1, src.height() / 2);
    Image dst = acquireImageUninit(ctx.buffers(), w, h);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            dst.at(x, y) = blurred.atClamped(2 * x, 2 * y);
    return dst;
}

Image
gradientX(const Image &src)
{
    Image dst(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            dst.at(x, y) = 0.5f * (src.atClamped(x + 1, y) -
                                   src.atClamped(x - 1, y));
    return dst;
}

Image
gradientY(const Image &src)
{
    Image dst(src.width(), src.height());
    for (int y = 0; y < src.height(); ++y)
        for (int x = 0; x < src.width(); ++x)
            dst.at(x, y) = 0.5f * (src.atClamped(x, y + 1) -
                                   src.atClamped(x, y - 1));
    return dst;
}

Pyramid
buildPyramid(const Image &src, int levels, int min_size,
             const ExecContext &ctx)
{
    panic_if(levels < 1, "pyramid needs at least one level");
    Pyramid pyr;
    // Level 0 is a pooled copy of the source so the whole pyramid
    // recycles (a plain copy would heap-allocate a full-resolution
    // frame every call).
    Image base =
        acquireImageUninit(ctx.buffers(), src.width(), src.height());
    std::copy(src.data(), src.data() + src.size(), base.data());
    pyr.level_[0] = std::move(base);
    pyr.levels_ = 1;
    for (int l = 1; l < std::min(levels, Pyramid::kMaxLevels); ++l) {
        const Image &prev = pyr.back();
        if (prev.width() / 2 < min_size || prev.height() / 2 < min_size)
            break;
        pyr.level_[l] = downsample2x(prev, ctx);
        pyr.levels_ = l + 1;
    }
    return pyr;
}

double
meanAbsDiff(const Image &a, const Image &b)
{
    panic_if(a.width() != b.width() || a.height() != b.height(),
             "image size mismatch");
    if (a.size() == 0)
        return 0.0;
    double s = 0.0;
    for (int64_t i = 0; i < a.size(); ++i)
        s += std::abs(double(a.data()[i]) - b.data()[i]);
    return s / double(a.size());
}

} // namespace asv::image
