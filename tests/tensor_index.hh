/**
 * @file
 * Row-major index walk over a tensor shape, for the tests that spell
 * a convolution or a crop out element by element. The library's
 * executors walk hoisted strides instead.
 */

#ifndef ASV_TESTS_TENSOR_INDEX_HH
#define ASV_TESTS_TENSOR_INDEX_HH

#include <cstdint>
#include <span>

#include "tensor/tensor.hh"

namespace asv::testref
{

/**
 * Invoke @p fn for every index vector in row-major order over
 * @p shape. The span passed to @p fn is reused between calls; copy
 * it if needed.
 */
template <typename Fn>
void
forEachIndex(const tensor::Shape &shape, Fn &&fn)
{
    if (tensor::numElems(shape) == 0)
        return;
    tensor::Shape idx(shape.size(), 0);
    while (true) {
        fn(std::span<const int64_t>(idx));
        int d = static_cast<int>(shape.size()) - 1;
        while (d >= 0 && ++idx[d] == shape[d])
            idx[d--] = 0;
        if (d < 0)
            return;
    }
}

} // namespace asv::testref

#endif // ASV_TESTS_TENSOR_INDEX_HH
