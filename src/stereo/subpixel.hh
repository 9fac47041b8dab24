/**
 * @file
 * The parabolic sub-pixel fit shared by block matching and SGM.
 * Inline, so each engine's per-pixel disparity finish keeps it in
 * its own translation unit.
 */

#ifndef ASV_STEREO_SUBPIXEL_HH
#define ASV_STEREO_SUBPIXEL_HH

#include "common/math_util.hh"

namespace asv::stereo
{

/**
 * Parabolic sub-pixel refinement from costs at d-1, d, d+1. Returns
 * the offset in [-0.5, 0.5] to add to the integer disparity. Integer
 * costs (SGM's uint32_t path sums) convert to double exactly.
 */
inline float
subpixelOffset(double cm, double c0, double cp)
{
    const double denom = cm - 2.0 * c0 + cp;
    if (denom <= 1e-12)
        return 0.f;
    const double off = 0.5 * (cm - cp) / denom;
    return static_cast<float>(clamp(off, -0.5, 0.5));
}

} // namespace asv::stereo

#endif // ASV_STEREO_SUBPIXEL_HH
