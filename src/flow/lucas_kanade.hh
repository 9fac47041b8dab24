/**
 * @file
 * Sparse Lucas-Kanade optical flow with Harris corner detection —
 * the second motion-estimation alternative ISM considers and rejects
 * (Sec. 3.3): "Sparse optical flow algorithms such as Lucas-Kanade
 * [...] only provide pixel-level motion for feature points such as
 * corners, and do not cover all the frame pixels."
 *
 * Provided so the coverage argument can be measured: densifying a
 * sparse field leaves most pixels with interpolated (wrong at
 * motion boundaries) vectors, which bench_ablation_ism quantifies
 * against dense Farnebäck.
 */

#ifndef ASV_FLOW_LUCAS_KANADE_HH
#define ASV_FLOW_LUCAS_KANADE_HH

#include <cstdint>
#include <vector>

#include "common/exec_context.hh"
#include "flow/flow_field.hh"
#include "image/image.hh"

namespace asv::flow
{

/** A tracked feature point with its estimated motion. */
struct TrackedPoint
{
    float x = 0.f, y = 0.f; //!< position in frame 0
    float u = 0.f, v = 0.f; //!< displacement to frame 1
    bool valid = false;     //!< track converged
};

/** Parameters for detection and tracking. */
struct LucasKanadeParams
{
    int maxCorners = 256;       //!< strongest corners kept
    float qualityLevel = 0.01f; //!< relative Harris threshold
    int minDistance = 7;        //!< min spacing between corners
    int windowRadius = 7;       //!< LK integration window
    int pyramidLevels = 3;      //!< coarse-to-fine levels
    int iterations = 10;        //!< LK iterations per level
};

/**
 * Harris corner response map of @p img (k = 0.04, 3x3 gradients
 * aggregated over a Gaussian window blurred on @p ctx's pool).
 */
image::Image harrisResponse(const image::Image &img,
                            const ExecContext &ctx);

/**
 * Detect up to maxCorners Shi-Tomasi/Harris corners with
 * non-maximum suppression and minimum spacing; the response map is
 * computed on @p ctx.
 */
std::vector<TrackedPoint> detectCorners(const image::Image &img,
                                        const LucasKanadeParams &params,
                                        const ExecContext &ctx);

/**
 * Track @p points from @p frame0 to @p frame1 with pyramidal
 * Lucas-Kanade; updates (u, v, valid) in place. Pyramid construction
 * and the per-point tracking loop fan out on @p ctx's pool (points
 * are independent; static partitioning keeps results bit-identical
 * for any worker count).
 */
void trackLucasKanade(const image::Image &frame0,
                      const image::Image &frame1,
                      std::vector<TrackedPoint> &points,
                      const LucasKanadeParams &params,
                      const ExecContext &ctx);

/**
 * Densify a sparse track set to a full flow field by
 * nearest-feature assignment — the best one can do from sparse
 * motion, and exactly what loses the per-pixel boundaries stereo
 * needs. Pixels with no valid feature anywhere get zero motion.
 */
FlowField densifySparseFlow(const std::vector<TrackedPoint> &points,
                            int width, int height);

/**
 * Fraction of pixels within @p radius of a valid tracked feature:
 * the "coverage" of the sparse field (Sec. 3.3's objection).
 */
double sparseCoverage(const std::vector<TrackedPoint> &points,
                      int width, int height, int radius);

} // namespace asv::flow

#endif // ASV_FLOW_LUCAS_KANADE_HH
