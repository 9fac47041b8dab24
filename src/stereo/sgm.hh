/**
 * @file
 * Semi-global matching (SGM) stereo.
 *
 * Represents the classic global-ish algorithm family in Fig. 1 (SGBN
 * and HH are both semi-global-matching variants from Hirschmuller's
 * work). Pipeline: census transform -> Hamming matching cost ->
 * 4/5/8-path semi-global cost aggregation with P1/P2 smoothness
 * penalties -> winner-take-all with sub-pixel refinement -> optional
 * left-right consistency check. One streaming engine runs all of it
 * row by row (the SceneScan design); the cost volume is never held.
 * The directional reference it is tested against lives in
 * tests/sgm_reference.hh.
 */

#ifndef ASV_STEREO_SGM_HH
#define ASV_STEREO_SGM_HH

#include <cstdint>
#include <vector>

#include "common/exec_context.hh"
#include "image/image.hh"
#include "stereo/disparity.hh"

namespace asv::stereo
{

/** SGM tuning parameters. */
struct SgmParams
{
    int censusRadius = 2;  //!< census window is (2r+1)^2 (<= 5x5 bits)
    int maxDisparity = 64; //!< disparity range [0, maxDisparity]
    int p1 = 3;            //!< small-jump penalty (|dd| == 1, >= 0)
    int p2 = 40;           //!< large-jump penalty (|dd| > 1, >= 0)
    bool subpixel = true;  //!< parabolic sub-pixel interpolation
    bool leftRightCheck = true; //!< invalidate inconsistent pixels
    int lrTolerance = 1;   //!< max allowed L/R disagreement (pixels)
    int paths = 8;         //!< aggregation paths: 4, 5, or 8
    /**
     * Disparity head-room (pixels) added on both sides of a row's
     * guide-derived search window in sgmComputeGuided(). Larger
     * margins tolerate faster scene motion; margin >= maxDisparity
     * degenerates to the full range (and thus to plain sgmCompute).
     */
    int pruneMargin = 8;
};

/**
 * Census transform: each pixel becomes a bit string comparing its
 * (2r+1)^2 - 1 neighbors against the center. Returned as one uint64
 * per pixel (r <= 3 fits in 48 bits; any other radius throws
 * std::invalid_argument). Interior row strips go through
 * the dispatched asv::simd census kernel; clamped borders are shared
 * scalar code, so every SIMD level is bit-identical.
 */
std::vector<uint64_t> censusTransform(const image::Image &img,
                                      int radius,
                                      const ExecContext &ctx);

/**
 * Throw std::invalid_argument unless @p params can run: censusRadius
 * in [1, 3], maxDisparity, p1, p2 and pruneMargin >= 0, paths 4, 5
 * or 8. The kernels and the registry's "sgm" factory call it.
 */
void checkParams(const SgmParams &params);

/** Number of arithmetic ops of sgmCompute on a w x h frame. */
int64_t sgmOps(int width, int height, const SgmParams &params);

/**
 * Run SGM and return the left-reference disparity map. Census and
 * Hamming cost rows are generated on the fly inside the aggregation
 * sweeps (the dispatched costRow kernel feeding aggregateRow in
 * pixel-major layout), so the resident state is a few rows of pool
 * scratch plus, at paths == 8, one narrowed down-direction partial
 * volume — never a cost volume. paths == 8 runs a down sweep and an
 * up sweep that finalizes each row (WTA, sub-pixel, the per-row L/R
 * check); paths == 4/5 finalize in the single down sweep. Every stage
 * fans out on @p ctx's pool, with rows in tiles and the wavefront
 * directions pixel-parallel within a row; results are bit-identical
 * for any worker count and any SIMD level. Throws
 * std::invalid_argument for a pair whose images differ in size and
 * for params checkParams() rejects.
 */
DisparityMap sgmCompute(const image::Image &left,
                        const image::Image &right,
                        const SgmParams &params,
                        const ExecContext &ctx);

/**
 * Range-pruned streaming SGM: each row's disparity search window is
 * seeded from @p guide — typically the previous frame's disparity
 * propagated to this frame — as [floor(min) - pruneMargin,
 * ceil(max) + pruneMargin] over the row's valid guide pixels, clamped
 * to [0, maxDisparity]. Rows without a valid guide pixel search the
 * full range, and an empty or size-mismatched @p guide falls back to
 * sgmCompute() entirely, so a lost prior degrades to plain SGM rather
 * than failing. Deterministic for any worker count and SIMD level;
 * with pruneMargin >= maxDisparity the result is bit-identical to
 * sgmCompute().
 */
DisparityMap sgmComputeGuided(const image::Image &left,
                              const image::Image &right,
                              const DisparityMap &guide,
                              const SgmParams &params,
                              const ExecContext &ctx);

} // namespace asv::stereo

#endif // ASV_STEREO_SGM_HH
