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
 * offset.
 *
 * One executor: convNdInto runs a list of phases — filter banks that
 * share one im2col operand of the input (Sec. 4.2's inter-layer
 * activation reuse, ILAR). Each phase reads its rows of the operand
 * through a row table and stores through its own OutputPlacement (a
 * step and an offset per dim), so deconv::DeconvPlan runs all its
 * sub-convolutions over one union-window operand in one fan-out,
 * interleaving them into one ofmap. A plain convolution is one phase
 * with the identity table and a contiguous store; convNd is its
 * allocating form. The operand is packed strip by strip into a
 * BufferPool-backed per-worker block just before the dispatched
 * gemmTile register tiles (asv::simd) consume it, or read in place
 * for a pointwise window. f32 fused-multiply-add accumulation,
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

/**
 * One filter bank of a phased convolution (see convNdInto): a view
 * of its weights, the operand rows they read and where its outputs
 * land. Nothing is owned; everything must outlive the call.
 */
struct ConvPhase
{
    const Tensor *weight = nullptr; //!< [K, C, kspatial...]
    /** Operand row read by each weight column: C * taps entries,
     *  weight column c * taps + t reads rows[c * taps + t]. Empty:
     *  the identity (the phase's kernel is the whole window). */
    std::span<const uint32_t> rows;
    /** Positions stored per spatial dim, each <= the operand's; the
     *  operand's other positions are computed and dropped. Empty:
     *  all of the operand's. */
    std::span<const int64_t> counts;
    /** Where position o lands (a contiguous placement: at o
     *  itself). */
    const OutputPlacement *place = nullptr;
};

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
 * Phased MAC convolution into a preallocated output — the one
 * executor behind dnn::NetworkRuntime and deconv::DeconvPlan, and
 * the zero-allocation fast path.
 *
 * The operand is the im2col of @p input under @p window with
 * @p spec: R = C * T rows (row r = c * T + u for channel c and window
 * tap u in raster order) by P columns (the output positions
 * convOutShape would give a kernel of extents @p window, in raster
 * order). Its column strips, gemmNr wide for the active table, are
 * partitioned across the pool once; each chunk packs one strip at a
 * time into its BufferPool block from @p ctx (none for a pointwise
 * stride-1 unpadded window, whose input is read in place), and every
 * phase's filters sweep it in dispatched gemmTile register tiles,
 * reading their rows through the phase's row table. Each tile gets
 * the optional fused epilogue and is stored straight to the phase's
 * positions in @p out; positions outside the phase's counts are
 * dropped. A contiguous phase stores every position, so @p out then
 * has the operand's spatial extents; otherwise every placed
 * position must lie inside @p out. Every phase has @p out's K
 * filters. Every stored position is overwritten (no pre-zeroing
 * needed); the rest of @p out is left as it was. Output (k, o) of a
 * phase is the fused chain over its weight columns in order, so a
 * phase whose row table picks its kernel's sub-window of the
 * operand gives the bits of convolving its kernel alone. Performs
 * no heap allocations once @p ctx's BufferPool has warmed up.
 * Supports 1-4 spatial dims.
 */
void convNdInto(const Tensor &input, std::span<const int64_t> window,
                const ConvSpec &spec, std::span<const ConvPhase> phases,
                const ConvEpilogue *epilogue, const ExecContext &ctx,
                Tensor &out);

/**
 * A plain convolution through the phased executor: one phase over
 * the kernel's own window with the identity row table, stored
 * through @p place. With the contiguous @p place, @p out must have
 * shape convOutShape(...); otherwise @p out is [K, ...] with every
 * placed position inside it.
 */
void convNdInto(const Tensor &input, const Tensor &weight,
                const ConvSpec &spec, const ConvEpilogue *epilogue,
                const ExecContext &ctx, Tensor &out,
                const OutputPlacement &place = {});

} // namespace asv::tensor

#endif // ASV_TENSOR_CONV_HH
