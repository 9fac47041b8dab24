/**
 * @file
 * Farnebäck dense optical flow (two-frame polynomial expansion).
 *
 * This is the motion-estimation algorithm ISM uses to propagate stereo
 * correspondences from key frames to non-key frames (Sec. 3.3). The
 * paper chooses Farnebäck because (a) it is dense — every pixel gets a
 * motion vector, as stereo requires — and (b) its compute decomposes
 * into exactly three accelerator-friendly operations: Gaussian blur
 * (a convolution), "Compute Flow" and "Matrix Update" (point-wise ops
 * mapped onto the scalar unit, Sec. 5.1).
 *
 * The implementation follows Farnebäck (SCIA 2003):
 *  1. Polynomial expansion: every neighborhood of each frame is
 *     approximated as f(x) ~ x^T A x + b^T x + c by weighted least
 *     squares over a Gaussian window.
 *  2. Displacement estimation: with A averaged between frames and
 *     db = -(1/2)(b2(x + d) - b1(x)) + A d, the update solves
 *     A_avg d_new = db, aggregated over a Gaussian window for
 *     robustness (the blur / matrix-update / compute-flow triple).
 *  3. Coarse-to-fine iteration over an image pyramid.
 */

#ifndef ASV_FLOW_FARNEBACK_HH
#define ASV_FLOW_FARNEBACK_HH

#include <cstdint>

#include "common/exec_context.hh"
#include "flow/flow_field.hh"
#include "image/image.hh"

namespace asv::flow
{

/** Per-pixel quadratic expansion coefficients of one frame. */
struct PolyExpansion
{
    image::Image axx; //!< quadratic term x^2
    image::Image ayy; //!< quadratic term y^2
    image::Image axy; //!< cross term x*y (full coefficient, not half)
    image::Image bx;  //!< linear term x
    image::Image by;  //!< linear term y
    image::Image c;   //!< constant term
};

/** Tunable parameters for the Farnebäck flow estimator. */
struct FarnebackParams
{
    int pyramidLevels = 3;  //!< coarse-to-fine levels
    int iterations = 3;     //!< displacement iterations per level
    int polyRadius = 3;     //!< neighborhood radius for expansion
    double polySigma = 1.2; //!< Gaussian weight sigma for expansion
    int blurRadius = 5;     //!< aggregation (matrix blur) radius
};

/**
 * Compute the quadratic polynomial expansion of @p img. Two
 * row-parallel fan-outs on @p ctx's pool: the three row-moment
 * passes, then the six column-moment passes with the 6x6 projection
 * of each finished row. The moment passes are image::convolveX /
 * convolveY with f64 taps (the dispatched sepRowF64 kernel). The
 * moment intermediates and the six coefficient planes are drawn from
 * @p ctx's buffer pool, so a warm expansion allocates nothing.
 *
 * @param img    input frame
 * @param radius neighborhood radius (window is (2r+1)^2)
 * @param sigma  Gaussian applicability sigma
 * @param ctx    execution context supplying both pools
 */
PolyExpansion polyExpansion(const image::Image &img, int radius,
                            double sigma, const ExecContext &ctx);

/**
 * Estimate dense flow from @p frame0 to @p frame1. Every stage fans
 * out by row on @p ctx's pool: the pyramid anti-alias blur, flow
 * upsampling, the polynomial expansions, and per iteration the
 * matrix update, one fused aggregation blur of all five
 * normal-equation planes (image::gaussianBlurInPlace: two fan-outs),
 * and the 2x2 solve. Results are bit-identical for any worker count
 * and SIMD level.
 *
 * @param frame0 source frame
 * @param frame1 target frame
 * @param params estimator parameters
 * @param init   optional initial flow (same size as frame0); used by
 *               ISM to seed from the previous frame's motion
 * @param ctx    pool the convolutional stages are partitioned across
 */
FlowField farnebackFlow(const image::Image &frame0,
                        const image::Image &frame1,
                        const FarnebackParams &params,
                        const FlowField *init,
                        const ExecContext &ctx);

/**
 * Analytic arithmetic-op count of farnebackFlow on a w x h frame,
 * split the way the ASV mapping charges it to hardware (Sec. 5.1).
 */
struct FarnebackCost
{
    int64_t convOps = 0;      //!< Gaussian blur & expansion convs
    int64_t pointwiseOps = 0; //!< compute-flow + matrix-update
    int64_t
    total() const
    {
        return convOps + pointwiseOps;
    }
};

FarnebackCost farnebackCost(int width, int height,
                            const FarnebackParams &params = {});

} // namespace asv::flow

#endif // ASV_FLOW_FARNEBACK_HH
