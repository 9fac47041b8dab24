/**
 * @file
 * Reference N-spatial-dimension convolution (cross-correlation).
 *
 * Follows the deep-learning convention: "convolution" computes the
 * cross-correlation of the input with the kernel (no kernel flip),
 * which matches the semantics used in Fig. 6 of the ASV paper.
 *
 * Layouts:
 *  - input:  [C, s_0, s_1, ..., s_{N-1}]          (channels first)
 *  - weight: [K, C, k_0, k_1, ..., k_{N-1}]       (K filters)
 *  - output: [K, o_0, o_1, ..., o_{N-1}]
 *
 * Supports per-dimension stride and asymmetric (lo/hi) zero padding.
 * Asymmetric padding is required by the deconvolution transformation,
 * whose sub-convolutions can need one-sided pads (Sec. 4.1).
 *
 * The same loop nest also computes sum-of-absolute-differences (SAD)
 * instead of multiply-accumulate, which is how ASV maps block matching
 * onto the systolic array (Sec. 3.3 / 5.1): the block is the kernel and
 * the search window is the input.
 *
 * Execution routes (see docs/KERNELS.md for the exactness contract):
 *  - MAC with no stats requested rides the dispatched f32 GEMM
 *    kernels (asv::simd) behind an im2col-or-direct lowering with
 *    BufferPool-backed scratch — the fast path behind
 *    deconv::DeconvPlan and dnn::NetworkRuntime. f32 fused-multiply-
 *    add accumulation, bit-identical across worker counts and across
 *    every SIMD level (scalar/AVX2/NEON).
 *  - SAD, and any call carrying a ConvStats sink, runs the reference
 *    loop nest: double-precision accumulation and exact per-tap op
 *    counters, bit-identical across worker counts.
 */

#ifndef ASV_TENSOR_CONV_HH
#define ASV_TENSOR_CONV_HH

#include <cstdint>

#include "common/exec_context.hh"
#include "tensor/tensor.hh"

namespace asv::tensor
{

/** Inner reduction performed at every kernel tap. */
enum class ConvOp
{
    MAC, //!< sum += a * w   (canonical convolution)
    SAD, //!< sum += |a - w| (block-matching mapping, Sec. 3.3)
};

/** Per-spatial-dimension convolution parameters. */
struct ConvSpec
{
    Shape stride; //!< one entry per spatial dim (>= 1)
    Shape padLo;  //!< leading zero padding per spatial dim
    Shape padHi;  //!< trailing zero padding per spatial dim

    /** Uniform stride/pad across @p spatial_dims dimensions. */
    static ConvSpec uniform(int spatial_dims, int64_t stride,
                            int64_t pad);
};

/** Operation counts observed while executing a reference convolution. */
struct ConvStats
{
    int64_t totalOps = 0; //!< every kernel tap visited
    int64_t zeroOps = 0;  //!< taps whose input operand was exactly 0

    /** Fraction of taps wasted on zero operands. */
    double
    zeroFraction() const
    {
        return totalOps ? double(zeroOps) / double(totalOps) : 0.0;
    }
};

/**
 * Fused per-filter epilogue applied to each output row after the
 * reduction: out += bias[k], then optionally ReLU. The ReLU is
 * exactly `v > 0 ? v : +0` (NaN and -0 map to +0) on every SIMD
 * level — see BiasReluRowFn in common/simd.hh. Fusing avoids a
 * second pass over the output, and for the deconv transformation is
 * exact per sub-convolution because sub-convolutions write disjoint
 * output phases.
 */
struct ConvEpilogue
{
    const float *bias = nullptr; //!< per-filter bias [K], or nullptr
    bool relu = false;           //!< clamp negatives (and NaN) to +0
};

/** Output shape of convNd for the given input/weight/spec. */
Shape convOutShape(const Shape &input, const Shape &weight,
                   const ConvSpec &spec);

/**
 * Reference convolution. The flat output range is statically
 * partitioned across @p ctx's pool; results are bit-identical for
 * any worker count.
 *
 * @param input  [C, spatial...]
 * @param weight [K, C, kspatial...]
 * @param spec   stride/padding per spatial dim
 * @param op     MAC (default) or SAD reduction
 * @param stats  if non-null, accumulates op counts
 * @param ctx    pool the output range is partitioned across
 * @return       [K, outspatial...]
 */
Tensor convNd(const Tensor &input, const Tensor &weight,
              const ConvSpec &spec, ConvOp op, ConvStats *stats,
              const ExecContext &ctx);

/**
 * MAC convolution into a preallocated output — the zero-allocation
 * fast path behind dnn::NetworkRuntime. Always the f32 GEMM route:
 * im2col (or direct for pointwise stride-1 unpadded layers) into
 * BufferPool scratch from @p ctx, then one dispatched gemmRow per
 * filter, with the optional fused epilogue. @p out must already have
 * shape convOutShape(...); its prior contents are overwritten (no
 * pre-zeroing needed). Performs no heap allocations once @p ctx's
 * BufferPool has warmed up. Supports 1-4 spatial dims.
 */
void convNdInto(const Tensor &input, const Tensor &weight,
                const ConvSpec &spec, const ConvEpilogue *epilogue,
                const ExecContext &ctx, Tensor &out);

} // namespace asv::tensor

#endif // ASV_TENSOR_CONV_HH
