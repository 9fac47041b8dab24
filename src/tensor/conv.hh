/**
 * @file
 * N-spatial-dimension convolution (cross-correlation).
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
 * Supports per-dimension stride and asymmetric (lo/hi) padding. A pad
 * is signed: positive pads with zeros, negative crops the input. The
 * deconvolution transformation needs both, one-sided (Sec. 4.1): each
 * sub-convolution's window is the ifmap shifted by its phase's
 * offset. convNdInto can also store through an OutputPlacement (a
 * step and an offset per dim), so several convolutions interleave
 * into one ofmap.
 *
 * One executor: convNd is the allocating form of convNdInto, the
 * f32 GEMM route behind deconv::DeconvPlan and dnn::NetworkRuntime —
 * the dispatched gemmTile register-tile kernel (asv::simd) behind an
 * im2col packed in column strips (or a direct view) in
 * BufferPool-backed scratch. f32 fused-multiply-add accumulation,
 * bit-identical across worker counts and across every SIMD level
 * (scalar/AVX2/NEON; see docs/KERNELS.md for the exactness
 * contract).
 *
 * referenceConv is the named reference: a plain double-accumulation
 * loop nest, independent of the GEMM route, that
 * dnn::NetworkRuntime::referenceForward runs and the tests compare
 * against. It is no production route.
 */

#ifndef ASV_TENSOR_CONV_HH
#define ASV_TENSOR_CONV_HH

#include <cstdint>
#include <span>

#include "common/exec_context.hh"
#include "tensor/tensor.hh"

namespace asv::tensor
{

/** Per-spatial-dimension convolution parameters. */
struct ConvSpec
{
    Shape stride; //!< one entry per spatial dim (>= 1)
    Shape padLo;  //!< leading padding per spatial dim (< 0: crop)
    Shape padHi;  //!< trailing padding per spatial dim (< 0: crop)

    /** Uniform stride/pad across @p spatial_dims dimensions. */
    static ConvSpec uniform(int spatial_dims, int64_t stride,
                            int64_t pad);
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

/**
 * Where convNdInto stores its output positions: position o_d of
 * spatial dim d lands at index o_d * step[d] + offset[d] of the
 * output tensor's dim 1 + d. Empty (the default) is contiguous: the
 * output tensor's spatial extents are exactly the convolution's.
 */
struct OutputPlacement
{
    Shape step;   //!< per spatial dim (>= 1), or empty
    Shape offset; //!< per spatial dim (>= 0), or empty

    bool contiguous() const { return step.empty(); }
};

/**
 * Walk one channel of a placed store: @p extents are the stored
 * block's spatial extents and @p ostride the output tensor's
 * spatial strides. For each index of the leading nd-1 dims, in
 * raster order, fn(row, base) gets the row's raster number and the
 * channel-relative offset of its first position; element j of the
 * row lies at base + j * place.step[nd-1], j < extents[nd-1].
 */
template <typename Fn>
void
forEachPlacedRow(std::span<const int64_t> extents,
                 const OutputPlacement &place, const int64_t *ostride,
                 Fn &&fn)
{
    const int nd = static_cast<int>(extents.size());
    int64_t o[kMaxSpatialDims] = {};
    for (int64_t row = 0;; ++row) {
        int64_t base = place.offset[nd - 1];
        for (int d = 0; d + 1 < nd; ++d)
            base += (o[d] * place.step[d] + place.offset[d]) *
                    ostride[d];
        fn(row, base);
        int d = nd - 2;
        while (d >= 0 && ++o[d] == extents[d])
            o[d--] = 0;
        if (d < 0)
            return;
    }
}

/** Output shape of convNd for the given input/weight/spec. */
Shape convOutShape(const Shape &input, const Shape &weight,
                   const ConvSpec &spec);

/**
 * Convolution into a fresh output tensor: convNdInto with no
 * epilogue, contiguous.
 *
 * @param input  [C, spatial...]
 * @param weight [K, C, kspatial...]
 * @param spec   stride/padding per spatial dim
 * @param ctx    pool and scratch buffers convNdInto runs on
 * @return       [K, outspatial...]
 */
Tensor convNd(const Tensor &input, const Tensor &weight,
              const ConvSpec &spec, const ExecContext &ctx);

/**
 * The reference convolution, for referenceForward and the tests:
 * per output, channels outer and kernel taps in raster order inner,
 * each tap adding double(a) * w (a = 0 where it lands in the
 * padding), cast to float once at the end. The flat output range is
 * statically partitioned across @p ctx's pool; results are
 * bit-identical for any worker count. Supports 1-4 spatial dims.
 */
Tensor referenceConv(const Tensor &input, const Tensor &weight,
                     const ConvSpec &spec, const ExecContext &ctx);

/**
 * MAC convolution into a preallocated output — the zero-allocation
 * fast path behind dnn::NetworkRuntime and deconv::DeconvPlan.
 * Always the f32 GEMM route: a row-span im2col written packed in
 * column strips of the active table's gemmNr (none for pointwise
 * stride-1 unpadded layers, whose input is read in place) into
 * BufferPool scratch from @p ctx, then the strips are partitioned
 * across the pool and every filter sweeps each strip in dispatched
 * gemmTile register tiles. Each tile gets the optional fused
 * epilogue and is stored straight to its positions in @p out. With
 * the contiguous @p place, @p out must have shape convOutShape(...);
 * otherwise @p out is [K, ...] with every placed position inside it.
 * Every placed position is overwritten (no pre-zeroing needed); the
 * rest of @p out is left as it was. Performs no heap allocations
 * once @p ctx's BufferPool has warmed up. Supports 1-4 spatial dims.
 */
void convNdInto(const Tensor &input, const Tensor &weight,
                const ConvSpec &spec, const ConvEpilogue *epilogue,
                const ExecContext &ctx, Tensor &out,
                const OutputPlacement &place = {});

} // namespace asv::tensor

#endif // ASV_TENSOR_CONV_HH
