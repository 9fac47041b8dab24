/**
 * @file
 * Disparity-map representation, quality metrics, and triangulation.
 *
 * Disparity convention: we use the standard computer-vision sign,
 * d(x, y) >= 0 with x_right = x_left - d. (The paper's Eq. 2 writes
 * x_r = x_l + D with D = -d; only the sign differs.) Depth follows
 * Eq. 1: depth = B * f / Z with Z the physical disparity.
 */

#ifndef ASV_STEREO_DISPARITY_HH
#define ASV_STEREO_DISPARITY_HH

#include <cstdint>

#include "image/image.hh"

namespace asv::stereo
{

/** Sentinel marking a pixel with no valid disparity estimate. */
constexpr float kInvalidDisparity = -1.f;

/**
 * A dense disparity map for the left (reference) frame. Values are
 * in pixels, >= 0 where valid, kInvalidDisparity where unknown.
 */
using DisparityMap = image::Image;

/**
 * Per-pixel validity of a disparity map (value != invalid). Inline:
 * the propagation scatter, hole fill and guided search test every
 * pixel.
 */
inline bool
isValidDisparity(float d)
{
    return d >= 0.f;
}

/**
 * Fraction (in percent) of valid ground-truth pixels whose disparity
 * error is >= @p threshold pixels — the paper's "three-pixel error"
 * metric (Sec. 6.1) when threshold = 3.
 *
 * @param pred   predicted disparity
 * @param gt     ground truth disparity (invalid pixels are skipped)
 * @param threshold error threshold in pixels
 * @param margin border margin to exclude (windows are undefined there)
 */
double badPixelRate(const DisparityMap &pred, const DisparityMap &gt,
                    double threshold = 3.0, int margin = 0);

/** Mean absolute disparity error over valid ground-truth pixels. */
double meanAbsDisparityError(const DisparityMap &pred,
                             const DisparityMap &gt, int margin = 0);

/**
 * Stereo camera rig intrinsics for triangulation (Eq. 1). Defaults
 * are the Bumblebee2 numbers used in Fig. 4: B = 120 mm, f = 2.5 mm,
 * 7.4 um pixels.
 */
struct StereoRig
{
    double baselineM = 0.120;     //!< lens separation B (meters)
    double focalLengthM = 0.0025; //!< focal length f (meters)
    double pixelSizeM = 7.4e-6;   //!< physical pixel pitch (meters)

    /**
     * Depth from a disparity in pixels: D = B*f / (d_pix * pitch).
     * Returns +inf for d_pix <= 0.
     */
    double depthFromDisparity(double d_pixels) const;

    /** Inverse of depthFromDisparity. */
    double disparityFromDepth(double depth_m) const;

    /**
     * Depth-estimation error caused by a disparity error of
     * @p err_pixels for an object at @p depth_m (Fig. 4).
     */
    double depthErrorAt(double depth_m, double err_pixels) const;
};

} // namespace asv::stereo

#endif // ASV_STEREO_DISPARITY_HH
