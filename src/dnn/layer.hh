/**
 * @file
 * Layer descriptor IR for stereo DNN / GAN workloads.
 *
 * The performance side of the reproduction is driven by layer-exact
 * network descriptions: per layer we record kind (conv / deconv /
 * pointwise / ...), spatial rank (2-D or 3-D), channel counts, kernel,
 * stride and padding, plus the stereo-matching pipeline stage the
 * layer belongs to (Sec. 2.2: Feature Extraction, Matching
 * Optimization, Disparity Refinement). From these, analytic MAC /
 * parameter / activation counts follow (Fig. 3), and the deconvolution
 * transformation and tiling scheduler consume the same descriptors.
 */

#ifndef ASV_DNN_LAYER_HH
#define ASV_DNN_LAYER_HH

#include <cstdint>
#include <string>

#include "tensor/tensor.hh"

namespace asv::dnn
{

using tensor::Shape;

/** What computation a layer performs. */
enum class LayerKind
{
    Conv,        //!< dense (cross-)convolution
    Deconv,      //!< transposed convolution (Sec. 4.1 target)
    FullyConnected, //!< matrix-vector layer
    Activation,  //!< point-wise non-linearity
    Pooling,     //!< window reduction
    CostVolume,  //!< stereo correlation / cost-volume construction
};

/** Stereo-matching pipeline stage (Sec. 2.2 / Fig. 3). */
enum class Stage
{
    FeatureExtraction,     //!< FE (convolutions)
    MatchingOptimization,  //!< MO (convolutions / correlation)
    DisparityRefinement,   //!< DR (deconvolutions)
    Other,                 //!< activations, pooling, misc.
};

const char *toString(LayerKind kind);
const char *toString(Stage stage);

/**
 * One layer of a network. Spatial extents are ordered
 * (depth,) height, width; 2-D layers have two entries, 3-D three.
 */
struct LayerDesc
{
    std::string name;
    LayerKind kind = LayerKind::Conv;
    Stage stage = Stage::Other;

    int64_t inChannels = 0;
    int64_t outChannels = 0;
    Shape inSpatial;  //!< input extents per spatial dim
    Shape kernel;     //!< kernel extents per spatial dim
    Shape stride;     //!< stride (conv) or upsampling factor (deconv)
    Shape pad;        //!< DL-convention padding
    int64_t batch = 1; //!< independent inputs sharing the weights

    /** Number of spatial dimensions (2 or 3). */
    int spatialDims() const
    {
        return static_cast<int>(inSpatial.size());
    }

    /** Output spatial extents (conv or deconv arithmetic). */
    Shape outSpatial() const;

    /** Elements of one input activation map (C * spatial). */
    int64_t inActivations() const;

    /** Elements of the output activation map (C * spatial). */
    int64_t outActivations() const;

    /** Weight parameter count. */
    int64_t paramCount() const;

    /**
     * Dense arithmetic ops of the layer as executed naively.
     *
     * For Deconv this is the cost of convolving the zero-inserted
     * upsampled ifmap at full density — i.e. what a conventional
     * accelerator pays before the ASV transformation (Sec. 4.1).
     */
    int64_t macs() const;

    /**
     * Of macs(), how many are guaranteed wasted on inserted zeros
     * (deconvolution only; 0 for all other kinds). The one count of
     * the zero operands tensor::deconvNd pays for.
     */
    int64_t zeroMacs() const;

    /** Validate internal consistency; panics on malformed layers. */
    void validate() const;
};

} // namespace asv::dnn

#endif // ASV_DNN_LAYER_HH
