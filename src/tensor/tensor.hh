/**
 * @file
 * Dense N-dimensional float tensor.
 *
 * The numeric substrate of the DNN path: the activations, weights
 * and sub-kernels that tensor::convNdInto, deconv::DeconvPlan and
 * dnn::NetworkRuntime run on, and the reference convolution and
 * deconvolution they are checked against. A plain owning row-major
 * float buffer; the executors read it through data() and hoisted
 * strides (spatialStrides), and the bounds-checked element access
 * is for setup code and tests.
 */

#ifndef ASV_TENSOR_TENSOR_HH
#define ASV_TENSOR_TENSOR_HH

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace asv::tensor
{

/** Shape/index type: one extent per dimension, row-major layout. */
using Shape = std::vector<int64_t>;

/** Number of elements in a shape (product of extents). */
int64_t numElems(const Shape &shape);

/** Human-readable "[a, b, c]" form of a shape. */
std::string toString(const Shape &shape);

/** Spatial-rank ceiling of the executors' stack-array odometers
 *  (no heap in the steady state); the paper's workloads are 2-D. */
constexpr int kMaxSpatialDims = 4;

/**
 * A dense row-major N-D tensor of floats.
 *
 * Invariants: strides are derived from the shape at construction and
 * the data vector always holds exactly numElems(shape()) values.
 */
class Tensor
{
  public:
    /** An empty 0-element tensor. */
    Tensor() = default;

    /** Construct zero-filled with the given shape. */
    explicit Tensor(Shape shape);

    /** Construct with the given shape and flat row-major data. */
    Tensor(Shape shape, std::vector<float> data);

    /** Tensor filled with a constant. */
    static Tensor full(Shape shape, float value);

    /** Tensor with values 0, 1, 2, ... in row-major order (tests). */
    static Tensor iota(Shape shape, float start = 0.f);

    const Shape &shape() const { return shape_; }
    int rank() const { return static_cast<int>(shape_.size()); }
    int64_t size() const { return static_cast<int64_t>(data_.size()); }

    /** Extent of dim @p i (bounds-checked; inline for hot loops). */
    int64_t
    dim(int i) const
    {
        panic_if(i < 0 || i >= rank(), "dim index ", i,
                 " out of rank ", rank());
        return shape_[i];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }
    std::vector<float> &flat() { return data_; }
    const std::vector<float> &flat() const { return data_; }

    /** Row-major flat offset of an index vector (bounds-checked). */
    int64_t offsetOf(std::span<const int64_t> idx) const;

    /** Element access by index vector (bounds-checked). */
    float &at(std::span<const int64_t> idx);
    float at(std::span<const int64_t> idx) const;

    /** Convenience element access for common ranks. */
    float &at(std::initializer_list<int64_t> idx);
    float at(std::initializer_list<int64_t> idx) const;

    /** Set every element to @p value. */
    void fill(float value);

    /** Maximum absolute elementwise difference against @p other. */
    double maxAbsDiff(const Tensor &other) const;

    /** True if shapes match and all elements are within @p atol. */
    bool allClose(const Tensor &other, double atol = 1e-5) const;

  private:
    void initStrides();

    Shape shape_;
    Shape strides_;
    std::vector<float> data_;
};

/** Row-major strides of the spatial dims of a [C, spatial...] tensor,
 *  written to @p stride[0 .. rank-2]; returns the elements per
 *  channel. */
int64_t spatialStrides(const Tensor &t, int64_t *stride);

} // namespace asv::tensor

#endif // ASV_TENSOR_TENSOR_HH
