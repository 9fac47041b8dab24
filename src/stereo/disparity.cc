#include "stereo/disparity.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace asv::stereo
{

double
badPixelRate(const DisparityMap &pred, const DisparityMap &gt,
             double threshold, int margin)
{
    panic_if(pred.width() != gt.width() ||
                 pred.height() != gt.height(),
             "disparity map size mismatch");
    int64_t bad = 0, total = 0;
    for (int y = margin; y < gt.height() - margin; ++y) {
        for (int x = margin; x < gt.width() - margin; ++x) {
            if (!isValidDisparity(gt.at(x, y)))
                continue;
            ++total;
            const float p = pred.at(x, y);
            if (!isValidDisparity(p) ||
                std::abs(p - gt.at(x, y)) >= threshold) {
                ++bad;
            }
        }
    }
    return total ? 100.0 * double(bad) / double(total) : 0.0;
}

double
meanAbsDisparityError(const DisparityMap &pred, const DisparityMap &gt,
                      int margin)
{
    panic_if(pred.width() != gt.width() ||
                 pred.height() != gt.height(),
             "disparity map size mismatch");
    double sum = 0.0;
    int64_t total = 0;
    for (int y = margin; y < gt.height() - margin; ++y) {
        for (int x = margin; x < gt.width() - margin; ++x) {
            if (!isValidDisparity(gt.at(x, y)) ||
                !isValidDisparity(pred.at(x, y)))
                continue;
            sum += std::abs(double(pred.at(x, y)) - gt.at(x, y));
            ++total;
        }
    }
    return total ? sum / double(total) : 0.0;
}

double
StereoRig::depthFromDisparity(double d_pixels) const
{
    if (d_pixels <= 0.0)
        return std::numeric_limits<double>::infinity();
    return baselineM * focalLengthM / (d_pixels * pixelSizeM);
}

double
StereoRig::disparityFromDepth(double depth_m) const
{
    panic_if(depth_m <= 0.0, "non-positive depth");
    return baselineM * focalLengthM / (depth_m * pixelSizeM);
}

double
StereoRig::depthErrorAt(double depth_m, double err_pixels) const
{
    const double d = disparityFromDepth(depth_m);
    const double perturbed = depthFromDisparity(d - err_pixels);
    return std::abs(perturbed - depth_m);
}

} // namespace asv::stereo
