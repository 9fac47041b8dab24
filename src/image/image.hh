/**
 * @file
 * Single-channel float image container.
 *
 * Grayscale float images are the working representation for the
 * classic vision substrates in ASV: Farnebäck optical flow, block
 * matching, SGM, and the synthetic dataset generator. Disparity and
 * flow fields reuse the same container (one Image per component).
 *
 * Images are plain value types, with one twist for the
 * zero-allocation steady state: an Image acquired through
 * acquireImage() remembers its BufferPool and shelves its pixel
 * storage back into that pool when destroyed (or assigned over), so
 * the next same-shape acquisition recycles it. The pool backref
 * travels with moves — returning a pooled image from a kernel and
 * letting the caller's copy die still recycles — while copies are
 * ordinary non-pooled values. Nothing else about the container
 * changes: pooled and plain images are indistinguishable through
 * the API.
 */

#ifndef ASV_IMAGE_IMAGE_HH
#define ASV_IMAGE_IMAGE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/math_util.hh"

namespace asv::image
{

class Image;

/**
 * An image whose pixel storage is drawn from (and, on destruction,
 * returned to) @p pool — the frame-path replacement for Image(w, h).
 * Zero-filled, like the constructor. After one warm-up frame the
 * acquisition allocates nothing.
 */
Image acquireImage(BufferPool &pool, int width, int height);

/**
 * As acquireImage(), but with *unspecified* pixel contents (recycled
 * data or zeros). For targets whose every pixel is written before
 * being read — skips the clear.
 */
Image acquireImageUninit(BufferPool &pool, int width, int height);

/**
 * A dense row-major single-channel float image.
 *
 * Pixel (x, y) with x in [0, width) columns and y in [0, height) rows.
 */
class Image
{
  public:
    Image() = default;

    /** Construct zero-filled w x h image. */
    Image(int width, int height);

    /** Construct filled with @p value. */
    Image(int width, int height, float value);

    /** A copy is a plain (non-pooled) value. */
    Image(const Image &other)
        : width_(other.width_), height_(other.height_),
          data_(other.data_)
    {
    }

    /**
     * Copy-assign reuses this image's buffer when capacity allows
     * (and keeps its pool backref), so refreshing a persistent frame
     * slot from a same-shape source allocates nothing.
     */
    Image &
    operator=(const Image &other)
    {
        if (this != &other) {
            width_ = other.width_;
            height_ = other.height_;
            data_ = other.data_;
        }
        return *this;
    }

    /** Moves transfer the storage and its pool backref. */
    Image(Image &&other) noexcept
        : width_(other.width_), height_(other.height_),
          data_(std::move(other.data_)), pool_(std::move(other.pool_))
    {
        other.width_ = 0;
        other.height_ = 0;
    }

    Image &
    operator=(Image &&other) noexcept
    {
        if (this != &other) {
            releaseStorage();
            width_ = other.width_;
            height_ = other.height_;
            data_ = std::move(other.data_);
            pool_ = std::move(other.pool_);
            other.width_ = 0;
            other.height_ = 0;
        }
        return *this;
    }

    /** Shelves pooled storage back into its pool. */
    ~Image() { releaseStorage(); }

    int width() const { return width_; }
    int height() const { return height_; }
    int64_t size() const { return static_cast<int64_t>(data_.size()); }
    bool empty() const { return data_.empty(); }

    float &at(int x, int y) { return data_[int64_t(y) * width_ + x]; }
    float at(int x, int y) const
    {
        return data_[int64_t(y) * width_ + x];
    }

    /** Read with border clamping (replicate edge pixels). */
    float atClamped(int x, int y) const;

    /** Bilinear sample at real coordinates, border clamped. */
    float sample(float x, float y) const;

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &flat() { return data_; }
    const std::vector<float> &flat() const { return data_; }

    void fill(float value);

    /** Mean of all pixels. */
    double mean() const;

    /** Max absolute difference against another image (same size). */
    double maxAbsDiff(const Image &other) const;

  private:
    friend Image acquireImage(BufferPool &pool, int width,
                              int height);
    friend Image acquireImageUninit(BufferPool &pool, int width,
                                    int height);

    void
    releaseStorage() noexcept
    {
        if (pool_) {
            pool_->give(std::move(data_));
            pool_.reset();
            data_ = std::vector<float>();
        }
    }

    int width_ = 0;
    int height_ = 0;
    std::vector<float> data_;
    std::shared_ptr<detail::PoolState> pool_; //!< null = plain value
};

/** True when @p a and @p b have the same width and height. */
inline bool
sameSize(const Image &a, const Image &b)
{
    return a.width() == b.width() && a.height() == b.height();
}

/**
 * One axis of a bilinear sample at real coordinate @p t on a grid of
 * @p n samples: the replicate-clamped neighbours floor(t) and
 * floor(t) + 1, and the fraction t - floor(t). An x axis depends on
 * the column alone and a y axis on the row alone, so a resize
 * resolves each once.
 */
struct BilinearAxis
{
    int lo;     //!< clamp(floor(t), 0, n - 1)
    int hi;     //!< clamp(floor(t) + 1, 0, n - 1)
    float frac; //!< t - floor(t)

    static BilinearAxis
    at(float t, int n)
    {
        // floor(t) without a libm call: truncate, then step down for
        // negative non-integers (exact for every t in int range).
        int t0 = static_cast<int>(t);
        if (t < float(t0))
            --t0;
        return {clamp(t0, 0, n - 1), clamp(t0 + 1, 0, n - 1), t - t0};
    }
};

/**
 * Image::sample() split in two: the clamped 2x2 footprint and the
 * bilinear weights of one point on a width-wide grid, computed once,
 * then apply()'d to any plane of that size. Several planes sampled at
 * the same point (Farnebäck's matrix update samples five) share the
 * floor and weight arithmetic; the result is bit-identical to
 * Image::sample(), which is built on it.
 */
class BilinearSample
{
  public:
    BilinearSample(int width, const BilinearAxis &ax,
                   const BilinearAxis &ay)
        : i00_(int64_t(ay.lo) * width + ax.lo),
          i10_(int64_t(ay.lo) * width + ax.hi),
          i01_(int64_t(ay.hi) * width + ax.lo),
          i11_(int64_t(ay.hi) * width + ax.hi),
          w00_((1 - ax.frac) * (1 - ay.frac)),
          w10_(ax.frac * (1 - ay.frac)), w01_((1 - ax.frac) * ay.frac),
          w11_(ax.frac * ay.frac)
    {
    }

    /** The sample at real coordinates (x, y) of a width x height grid. */
    BilinearSample(int width, int height, float x, float y)
        : BilinearSample(width, BilinearAxis::at(x, width),
                         BilinearAxis::at(y, height))
    {
    }

    /** The sample of @p img (same size as the constructor's grid). */
    float
    apply(const Image &img) const
    {
        const float *d = img.data();
        return w00_ * d[i00_] + w10_ * d[i10_] + w01_ * d[i01_] +
               w11_ * d[i11_];
    }

  private:
    int64_t i00_, i10_, i01_, i11_; //!< clamped corner offsets
    float w00_, w10_, w01_, w11_;   //!< corner weights
};

} // namespace asv::image

#endif // ASV_IMAGE_IMAGE_HH
