#include "tensor/tensor.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace asv::tensor
{

int64_t
numElems(const Shape &shape)
{
    int64_t n = 1;
    for (int64_t d : shape) {
        panic_if(d < 0, "negative extent in shape ", toString(shape));
        n *= d;
    }
    return n;
}

std::string
toString(const Shape &shape)
{
    std::ostringstream os;
    os << "[";
    for (size_t i = 0; i < shape.size(); ++i) {
        if (i)
            os << ", ";
        os << shape[i];
    }
    os << "]";
    return os.str();
}

int64_t
spatialStrides(const Tensor &t, int64_t *stride)
{
    const int nd = t.rank() - 1;
    int64_t s = 1;
    for (int d = nd - 1; d >= 0; --d) {
        stride[d] = s;
        s *= t.dim(1 + d);
    }
    return s;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), data_(numElems(shape_), 0.f)
{
    initStrides();
}

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data))
{
    panic_if(static_cast<int64_t>(data_.size()) != numElems(shape_),
             "data size ", data_.size(), " does not match shape ",
             toString(shape_));
    initStrides();
}

Tensor
Tensor::full(Shape shape, float value)
{
    Tensor t(std::move(shape));
    t.fill(value);
    return t;
}

Tensor
Tensor::iota(Shape shape, float start)
{
    Tensor t(std::move(shape));
    float v = start;
    for (auto &x : t.data_)
        x = v++;
    return t;
}

void
Tensor::initStrides()
{
    strides_.assign(shape_.size(), 1);
    for (int i = static_cast<int>(shape_.size()) - 2; i >= 0; --i)
        strides_[i] = strides_[i + 1] * shape_[i + 1];
}

int64_t
Tensor::offsetOf(std::span<const int64_t> idx) const
{
    panic_if(idx.size() != shape_.size(), "index rank ", idx.size(),
             " != tensor rank ", shape_.size());
    int64_t off = 0;
    for (size_t d = 0; d < idx.size(); ++d) {
        panic_if(idx[d] < 0 || idx[d] >= shape_[d], "index ", idx[d],
                 " out of bounds for dim ", d, " of shape ",
                 toString(shape_));
        off += idx[d] * strides_[d];
    }
    return off;
}

float &
Tensor::at(std::span<const int64_t> idx)
{
    return data_[offsetOf(idx)];
}

float
Tensor::at(std::span<const int64_t> idx) const
{
    return data_[offsetOf(idx)];
}

float &
Tensor::at(std::initializer_list<int64_t> idx)
{
    return at(std::span<const int64_t>(idx.begin(), idx.size()));
}

float
Tensor::at(std::initializer_list<int64_t> idx) const
{
    return at(std::span<const int64_t>(idx.begin(), idx.size()));
}

void
Tensor::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

double
Tensor::maxAbsDiff(const Tensor &other) const
{
    panic_if(shape_ != other.shape_, "shape mismatch: ",
             toString(shape_), " vs ", toString(other.shape_));
    double m = 0.0;
    for (size_t i = 0; i < data_.size(); ++i)
        m = std::max(m, std::abs(double(data_[i]) - other.data_[i]));
    return m;
}

bool
Tensor::allClose(const Tensor &other, double atol) const
{
    if (shape_ != other.shape_)
        return false;
    return maxAbsDiff(other) <= atol;
}

} // namespace asv::tensor
