#include "image/image.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace asv::image
{

Image::Image(int width, int height)
    : width_(width), height_(height),
      data_(int64_t(width) * height, 0.f)
{
    panic_if(width < 0 || height < 0, "negative image size");
}

Image
acquireImage(BufferPool &pool, int width, int height)
{
    panic_if(width < 0 || height < 0, "negative image size");
    Image img;
    img.width_ = width;
    img.height_ = height;
    img.data_ = pool.state()->take<float>(
        size_t(int64_t(width) * height), true);
    img.pool_ = pool.state();
    return img;
}

Image
acquireImageUninit(BufferPool &pool, int width, int height)
{
    panic_if(width < 0 || height < 0, "negative image size");
    Image img;
    img.width_ = width;
    img.height_ = height;
    img.data_ = pool.state()->take<float>(
        size_t(int64_t(width) * height), false);
    img.pool_ = pool.state();
    return img;
}

Image::Image(int width, int height, float value)
    : Image(width, height)
{
    fill(value);
}

float
Image::atClamped(int x, int y) const
{
    x = clamp(x, 0, width_ - 1);
    y = clamp(y, 0, height_ - 1);
    return at(x, y);
}

float
Image::sample(float x, float y) const
{
    return BilinearSample(width_, height_, x, y).apply(*this);
}

void
Image::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

double
Image::mean() const
{
    if (data_.empty())
        return 0.0;
    double s = 0.0;
    for (float v : data_)
        s += v;
    return s / double(data_.size());
}

double
Image::maxAbsDiff(const Image &other) const
{
    panic_if(width_ != other.width_ || height_ != other.height_,
             "image size mismatch");
    double m = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(double(data_[i]) - other.data_[i]));
    return m;
}

} // namespace asv::image
