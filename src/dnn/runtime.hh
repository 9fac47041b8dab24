/**
 * @file
 * Executable runtime for dnn::Network descriptions — the functional
 * DNN path of the reproduction.
 *
 * `dnn::Network` is an analytic IR: layer descriptors with exact
 * MAC/parameter counts, consumed by the simulators and the tiling
 * scheduler. `NetworkRuntime` compiles a chain-consistent subset of
 * that IR into an executable plan and runs it on real tensors
 * through the dispatched f32 SIMD kernels:
 *
 *  - Conv layers lower to tensor::convNdInto — the im2col-or-direct
 *    GEMM route — with the following Activation layer fused into the
 *    per-filter bias+ReLU epilogue;
 *  - Deconv layers run the Sec. 4.1 transformation through a
 *    deconv::DeconvPlan compiled at construction (the same executor
 *    deconv::transformedDeconv runs), with the epilogue fused into
 *    each sub-convolution;
 *  - Activation (ReLU) and Pooling (max) execute directly;
 *  - FullyConnected and CostVolume layers are analytic-only and
 *    rejected, as are IR chains whose shapes do not actually chain
 *    (NetworkBuilder::setChannels / concatChannels splices).
 *
 * Everything a frame needs — weights, biases, deconv plans (which
 * own only their sub-kernels), every intermediate activation — is
 * allocated at construction; forward() performs zero heap
 * allocations once the ExecContext's BufferPool has warmed up (its
 * pooled acquisitions are convNdInto's per-chunk strip blocks and
 * identity row table).
 * This is the "dnn" entry enforced exactly by alloc_baseline_test /
 * BASELINE_alloc.json.
 *
 * Determinism: forward() is bit-identical for any worker count and
 * across every SIMD level (scalar / AVX2+FMA / NEON; docs/KERNELS.md).
 */

#ifndef ASV_DNN_RUNTIME_HH
#define ASV_DNN_RUNTIME_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/exec_context.hh"
#include "deconv/transform.hh"
#include "dnn/network.hh"
#include "tensor/conv.hh"
#include "tensor/tensor.hh"

namespace asv::dnn
{

using tensor::Shape;
using tensor::Tensor;

/** Compiled, preallocated executor for a dnn::Network. */
class NetworkRuntime
{
  public:
    /**
     * Compile @p net and allocate weights (seeded uniform init,
     * deterministic per @p seed), biases, deconv plans, and all
     * intermediate activations. Panics on unsupported layer kinds,
     * batch != 1, or non-chaining layer shapes.
     */
    explicit NetworkRuntime(const Network &net, uint64_t seed = 1);

    /**
     * Run one frame. @p input must have shape inputShape(). Returns
     * the final activation, owned by the runtime and valid until the
     * next forward() call. Zero heap allocations in the steady state.
     */
    const Tensor &forward(const Tensor &input, const ExecContext &ctx);

    /**
     * Independent slow path for equivalence checks: every Conv step
     * runs tensor::referenceConv, every Deconv step runs it over
     * tensor::upsampleZeroInsert's zero-inserted ifmap, and the
     * epilogue is a separate scalar pass. Bit-identical for any
     * worker count and SIMD level. Allocates freely; compare against
     * forward() with a tolerance (f32 FMA chain vs double
     * accumulation).
     */
    Tensor referenceForward(const Tensor &input,
                            const ExecContext &ctx) const;

    /** Expected input shape, [C, spatial...]. */
    const Shape &inputShape() const { return input_shape_; }

    /** Shape of the tensor forward() returns. */
    const Shape &outputShape() const { return output_shape_; }

    /** Executable steps (fused Activation layers are absorbed). */
    size_t numSteps() const { return steps_.size(); }

  private:
    struct Step
    {
        LayerKind kind = LayerKind::Conv;
        Tensor weight;           //!< [K, C, kernel...] (conv/deconv)
        std::vector<float> bias; //!< per-filter bias [K]
        bool relu = false;       //!< fused following Activation
        tensor::ConvSpec conv;   //!< Conv lowering
        std::optional<deconv::DeconvPlan> deconv; //!< Deconv lowering
        Shape poolKernel;        //!< Pooling window
        Shape poolStride;        //!< Pooling stride
        Tensor out;              //!< preallocated step output
    };

    Shape input_shape_;
    Shape output_shape_;
    std::vector<Step> steps_;
};

} // namespace asv::dnn

#endif // ASV_DNN_RUNTIME_HH
