/**
 * @file
 * Deconvolution-to-convolution transformation (Sec. 4.1, Appendix A).
 *
 * A stride-s N-dimensional deconvolution is decomposed into s^N dense
 * sub-convolutions, one per output phase vector r in [0, s)^N:
 *
 *     S_r[(j_0..j_{N-1})] = K[(s j_d + delta_d)],
 *     delta_d = (k_d - 1 - pad_d - r_d) mod s_d,
 *
 * with sub-kernel extents e_d = floor((k_d - 1 - delta_d) / s_d) + 1
 * and ofmap[(s m_d + r_d)] produced by cross-correlating the original
 * (un-upsampled) ifmap, shifted by m0_d = -floor((q_d - r_d) / s_d),
 * q_d = k_d - 1 - pad_d. The paper's Appendix A is the s = 2 case
 * (delta_j = (k >> j) & 1); this implementation handles arbitrary
 * strides, kernels and paddings, and is property-tested for exact
 * equality against the zero-insertion reference in tensor/deconv.
 *
 * Every sub-convolution reads the *same* ifmap — the inter-layer
 * activation reuse (ILAR) the scheduler exploits (Sec. 4.2), and
 * that DeconvPlan executes: one im2col operand over the union of
 * the phases' input windows, packed strip by strip and swept by
 * every phase through a row table, in one fan-out per layer.
 */

#ifndef ASV_DECONV_TRANSFORM_HH
#define ASV_DECONV_TRANSFORM_HH

#include <cstdint>
#include <vector>

#include "dnn/layer.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"
#include "tensor/tensor.hh"

namespace asv::deconv
{

using tensor::Shape;
using tensor::Tensor;

/** Per-dimension plan for one output phase. */
struct DimPlan
{
    int64_t phase = 0;    //!< output phase r in [0, stride)
    int64_t delta = 0;    //!< kernel offset of the sub-kernel taps
    int64_t taps = 0;     //!< sub-kernel extent e (may be 0)
    int64_t inOffset = 0; //!< ifmap shift m0 (may be negative)
    int64_t count = 0;    //!< number of ofmap positions in this phase
};

/** One sub-convolution of a decomposed deconvolution. */
struct SubConv
{
    std::vector<DimPlan> dims; //!< one plan per spatial dimension

    /** Sub-kernel spatial extents (dims[d].taps). */
    Shape kernelExtents() const;

    /** Outputs produced per spatial dimension (dims[d].count). */
    Shape outExtents() const;

    /** True if this phase produces no arithmetic (empty kernel). */
    bool empty() const;
};

/**
 * Analytic description of a transformed deconvolution layer: the
 * shared ifmap plus the list of sub-convolutions. A regular
 * convolution layer is represented as the degenerate single-sub-conv
 * case (the paper treats convolution as "a special case of
 * deconvolution without ILAR"), which lets the tiling scheduler
 * consume both uniformly.
 */
struct TransformedLayer
{
    std::string name;
    int64_t inChannels = 0;
    int64_t outChannels = 0; //!< filters per sub-kernel (same for all)
    Shape ifmapSpatial;      //!< shared ifmap extents (one input)
    int64_t batch = 1;       //!< independent inputs sharing weights
    std::vector<SubConv> subConvs;
    bool fromDeconv = false; //!< true if ILAR applies

    /** Total useful MACs across all sub-convolutions. */
    int64_t totalMacs() const;

    /** MACs of sub-convolution @p k. */
    int64_t subConvMacs(size_t k) const;
};

/**
 * Enumerate the per-dimension phase plans of a deconvolution along
 * one dimension.
 *
 * @param in     input extent
 * @param kernel kernel extent
 * @param stride upsampling stride
 * @param pad    DL-convention padding
 */
std::vector<DimPlan> planDimension(int64_t in, int64_t kernel,
                                   int64_t stride, int64_t pad);

/**
 * Decompose a deconvolution layer descriptor into its transformed
 * analytic form. Conv layers pass through as a single sub-conv; other
 * kinds are rejected.
 */
TransformedLayer transformLayer(const dnn::LayerDesc &layer);

/** Extract the sub-kernel tensor for @p sub from the full weight. */
Tensor extractSubKernel(const Tensor &weight, const SubConv &sub,
                        const Shape &stride);

/**
 * A compiled transformed deconvolution: the only executor of the
 * Sec. 4.1 transformation, with Sec. 4.2's inter-layer activation
 * reuse (ILAR). Construction extracts each phase's sub-kernel and
 * its OutputPlacement (step = stride, offset = phase), and derives
 * one shared operand: the im2col of the ifmap over the union of the
 * phases' input windows (for k = 4, s = 2, p = 1, 3 x 3 taps per
 * channel, 9C rows instead of 4 x 4C), as a stride-1 window whose
 * signed pads carry the smallest ifmap shift (a negative pad crops)
 * and whose positions cover the largest phase. Each phase reads its
 * sub-window through a row table in the same raster order, so every
 * output's fused chain, and so every bit, is the phase's own
 * convolution's. run() is one tensor::convNdInto over all phases:
 * one fan-out, each strip packed once and swept by every phase,
 * each storing straight into its strided ofmap positions with the
 * epilogue fused (exact, since phases write disjoint positions). A
 * tap-free phase (positions but no taps: a kernel smaller than the
 * stride) gets the epilogue of zero through the placement walker,
 * in one more fan-out for all of them. Bit-identical for any worker
 * count; allocation-free once the ExecContext's BufferPool is warm.
 * 1-4 spatial dims.
 */
class DeconvPlan
{
  public:
    /** @p weight is [K, C, kspatial...] (copied, need not outlive
     *  the plan); @p input_shape is run()'s [C, spatial...]. */
    DeconvPlan(const Tensor &weight, const Shape &input_shape,
               const tensor::DeconvSpec &spec);

    /** Overwrite @p out (shape outputShape()) with the deconvolution
     *  of @p input; @p epilogue may be nullptr. */
    void run(const Tensor &input, const tensor::ConvEpilogue *epilogue,
             const ExecContext &ctx, Tensor &out);

    /** Shape of the ofmap run() writes, [K, outspatial...]. */
    const Shape &outputShape() const { return out_shape_; }

    const tensor::DeconvSpec &spec() const { return spec_; }

  private:
    /** One output phase with taps: its sub-kernel, the operand rows
     *  it reads and where its positions land. */
    struct Phase
    {
        Tensor kernel;                 //!< sub-kernel [K, C, taps..]
        std::vector<uint32_t> rows;    //!< operand row per column
        Shape counts;                  //!< ofmap positions per dim
        tensor::OutputPlacement place; //!< ofmap step and phase
    };

    /** One tap-free output phase: positions but no taps. */
    struct TapFree
    {
        Shape counts;
        tensor::OutputPlacement place;
    };

    /** Fill every tap-free phase with the epilogue of zero, per
     *  filter: relu(0 + bias), the ReLU with the kernels'
     *  `v > 0 ? v : +0` semantics; +0 without an epilogue. One
     *  fan-out for all of them. */
    void fillTapFree(const tensor::ConvEpilogue *epilogue, Tensor &out,
                     const ExecContext &ctx) const;

    tensor::DeconvSpec spec_;
    Shape in_shape_;
    Shape out_shape_;
    Shape window_;              //!< union window extents
    tensor::ConvSpec operand_;  //!< stride 1, signed pads
    std::vector<Phase> phases_;
    std::vector<TapFree> tap_free_;
    /** convNdInto's views of phases_, refreshed by run() so a
     *  copied or moved plan never points into another. */
    std::vector<tensor::ConvPhase> views_;
};

/**
 * Deconvolve via the transformation: build a DeconvPlan and run it
 * once. Matches tensor::deconvNd to f32 rounding (the reference
 * accumulates in double; see docs/KERNELS.md).
 */
Tensor transformedDeconv(const Tensor &input, const Tensor &weight,
                         const tensor::DeconvSpec &spec,
                         const ExecContext &ctx,
                         const tensor::ConvEpilogue *epilogue = nullptr);

} // namespace asv::deconv

#endif // ASV_DECONV_TRANSFORM_HH
