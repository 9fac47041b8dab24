/**
 * @file
 * SAD block-matching stereo correspondence search.
 *
 * Two modes are provided:
 *
 *  - Full search (classic local stereo, one of the Fig. 1 baselines):
 *    for every left pixel, scan the full disparity range [0, maxDisp]
 *    along the epipolar line in the right image.
 *
 *  - Guided refinement (ISM step 4, Sec. 3.2/3.3): a 1-D search window
 *    of small radius centered on an initial disparity estimate
 *    propagated from a key frame. This is what makes non-key frames
 *    cheap: the window shrinks from hundreds of candidates to a few.
 *
 * Both share the convolution-like SAD structure that ASV maps onto the
 * systolic array (the block is the kernel, the window is the ifmap;
 * PEs accumulate |a - b| instead of a * b, Sec. 5.2).
 */

#ifndef ASV_STEREO_BLOCK_MATCHING_HH
#define ASV_STEREO_BLOCK_MATCHING_HH

#include <cstdint>

#include "common/exec_context.hh"
#include "image/image.hh"
#include "stereo/disparity.hh"

namespace asv::stereo
{

/** Parameters shared by full-search and guided block matching. */
struct BlockMatchingParams
{
    int blockRadius = 4;     //!< SAD block is (2r+1)^2
    int maxDisparity = 64;   //!< full-search range [0, maxDisparity]
    bool subpixel = true;    //!< parabolic sub-pixel interpolation
    float uniquenessRatio = 0.f; //!< reject match if second best is
                                 //!< within this ratio (0 = keep all)
};

/**
 * Throw std::invalid_argument unless blockRadius >= 0, maxDisparity
 * >= 1 and the guided search radius @p refine_radius >= 0. The
 * kernels and the registry's "bm" and "guided" factories call it.
 */
void checkParams(const BlockMatchingParams &params,
                 int refine_radius = 0);

/**
 * Classic full-search block matching over the whole disparity range.
 * The row-parallel SAD search fans out on @p ctx's pool; results are
 * bit-identical for any worker count. Throws std::invalid_argument
 * for a pair whose images differ in size and for params
 * checkParams() rejects.
 *
 * @param left  reference image
 * @param right matching image
 * @param ctx   pool the search is partitioned across
 */
DisparityMap blockMatching(const image::Image &left,
                           const image::Image &right,
                           const BlockMatchingParams &params,
                           const ExecContext &ctx);

/**
 * Guided 1-D refinement around an initial estimate (ISM step 4).
 * Pixels whose initial estimate is invalid fall back to full search.
 * Throws std::invalid_argument when @p left, @p right and @p init
 * differ in size and for arguments checkParams() rejects.
 *
 * @param left   reference image
 * @param right  matching image
 * @param init   initial disparity per pixel (propagated correspondence)
 * @param radius search window radius around the initial estimate
 * @param ctx    pool the search is partitioned across
 */
DisparityMap refineDisparity(const image::Image &left,
                             const image::Image &right,
                             const DisparityMap &init, int radius,
                             const BlockMatchingParams &params,
                             const ExecContext &ctx);

/**
 * Arithmetic op count of block matching on a w x h frame: one SAD op
 * per block tap per candidate per pixel (the quantity charged to the
 * systolic array in the ASV mapping).
 *
 * @param candidates number of disparity candidates evaluated per pixel
 */
int64_t blockMatchingOps(int width, int height, int block_radius,
                         int candidates);

} // namespace asv::stereo

#endif // ASV_STEREO_BLOCK_MATCHING_HH
