/**
 * @file
 * Reference deconvolution (transposed convolution) semantics.
 *
 * The "standard deconvolution" of Fig. 6: zero-insertion upsampling of
 * the ifmap followed by a dense convolution. This is the semantics the
 * baseline accelerator executes (paying for all the zero operands) and
 * the ground truth the deconvolution transformation (src/deconv) must
 * reproduce exactly.
 *
 * Parameterization matches the usual DL convention: for each spatial
 * dim, out = (in - 1) * stride - 2 * pad + kernel. Equivalently the
 * ifmap is zero-inserted (stride - 1 zeros between elements) and then
 * border-padded by (kernel - 1 - pad) before a stride-1 convolution.
 */

#ifndef ASV_TENSOR_DECONV_HH
#define ASV_TENSOR_DECONV_HH

#include <cstdint>

#include "tensor/conv.hh"
#include "tensor/tensor.hh"

namespace asv::tensor
{

/** Per-spatial-dimension deconvolution parameters. */
struct DeconvSpec
{
    Shape stride; //!< upsampling factor per spatial dim (>= 1)
    Shape pad;    //!< DL-convention padding per spatial dim

    /** Uniform stride/pad across @p spatial_dims dimensions. */
    static DeconvSpec uniform(int spatial_dims, int64_t stride,
                              int64_t pad);
};

/** Output shape of deconvNd for the given input/weight/spec. */
Shape deconvOutShape(const Shape &input, const Shape &weight,
                     const DeconvSpec &spec);

/**
 * Zero-insertion upsampling: place input[i] at stride*i, pad the
 * leading border by padLo and size the result so that a stride-1
 * valid convolution with a kernel of size k yields the deconv output.
 *
 * @param input [C, spatial...]
 * @param spec  deconvolution parameters
 * @param kernel kernel spatial extents (k_0, ..., k_{N-1})
 * @return upsampled [C, up_0, ..., up_{N-1}] with
 *         up_d = out_d + k_d - 1.
 */
Tensor upsampleZeroInsert(const Tensor &input, const DeconvSpec &spec,
                          const Shape &kernel);

/**
 * Naive deconvolution by upsample-then-convolve: upsampleZeroInsert,
 * then a stride-1 tensor::convNd over the upsampled ifmap — the
 * baseline that pays for every zero operand (>= 75% of the taps for
 * stride-2 2-D deconvolution, Sec. 4.1; dnn::LayerDesc::zeroMacs()
 * counts them).
 *
 * @param input  [C, spatial...]
 * @param weight [K, C, kspatial...]
 * @param ctx    pool and scratch the dense convolution runs on
 * @return [K, outspatial...]
 */
Tensor deconvNd(const Tensor &input, const Tensor &weight,
                const DeconvSpec &spec, const ExecContext &ctx);

} // namespace asv::tensor

#endif // ASV_TENSOR_DECONV_HH
