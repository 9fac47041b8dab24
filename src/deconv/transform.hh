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
 * activation reuse (ILAR) the scheduler exploits (Sec. 4.2).
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
 * Execute a deconvolution via the transformation: decompose, run each
 * sub-convolution as a dense convNd, and gather the interleaved
 * ofmap. Bit-equal to tensor::deconvNd.
 *
 * The sub-convolutions run on @p ctx (convNd partitions the output
 * range across its pool), and the crop/gather data movement fans out
 * over the channel dimension. Sub-convolutions execute in phase
 * order and write disjoint ofmap positions, so the result — and the
 * @p stats counters — are bit-identical for any worker count.
 *
 * @param input  [C, spatial...]
 * @param weight [K, C, kspatial...]
 * @param spec   deconvolution stride/padding
 * @param stats  if non-null, accumulates op counts of the dense
 *               sub-convolutions (to contrast with the naive path)
 * @param ctx    pool the sub-convolutions and data movement run on
 */
Tensor transformedDeconv(const Tensor &input, const Tensor &weight,
                         const tensor::DeconvSpec &spec,
                         tensor::ConvStats *stats,
                         const ExecContext &ctx);

/**
 * transformedDeconv() with a fused per-filter bias+ReLU epilogue.
 * Sub-convolutions write disjoint ofmap phases, so applying the
 * epilogue inside each sub-convolution is exactly the epilogue on
 * the gathered ofmap — one fewer pass over the output. This is the
 * form dnn::NetworkRuntime's deconv layers lower to.
 */
Tensor transformedDeconv(const Tensor &input, const Tensor &weight,
                         const tensor::DeconvSpec &spec,
                         const tensor::ConvEpilogue &epilogue,
                         tensor::ConvStats *stats,
                         const ExecContext &ctx);

} // namespace asv::deconv

#endif // ASV_DECONV_TRANSFORM_HH
