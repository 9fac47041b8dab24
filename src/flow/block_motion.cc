#include "flow/block_motion.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace asv::flow
{

namespace
{

/** SAD of the size x size patches at (ax, ay) in a and (bx, by) in b. */
double
patchSad(const image::Image &a, const image::Image &b, int ax,
         int ay, int bx, int by, int size)
{
    double sad = 0;
    for (int dy = 0; dy < size; ++dy)
        for (int dx = 0; dx < size; ++dx)
            sad += std::abs(double(a.atClamped(ax + dx, ay + dy)) -
                            b.atClamped(bx + dx, by + dy));
    return sad;
}

} // namespace

FlowField
blockMotion(const image::Image &frame0, const image::Image &frame1,
            const BlockMotionParams &params)
{
    require(image::sameSize(frame0, frame1), "frame size mismatch");
    require(params.blockSize >= 2, "block size too small");

    const int w = frame0.width(), h = frame0.height();
    const int bs = params.blockSize, r = params.searchRadius;
    FlowField flow(w, h);

    for (int by = 0; by < h; by += bs) {
        for (int bx = 0; bx < w; bx += bs) {
            double best = std::numeric_limits<double>::max();
            int best_dx = 0, best_dy = 0;
            for (int dy = -r; dy <= r; ++dy) {
                for (int dx = -r; dx <= r; ++dx) {
                    const double sad = patchSad(
                        frame0, frame1, bx, by, bx + dx, by + dy,
                        bs);
                    if (sad < best) {
                        best = sad;
                        best_dx = dx;
                        best_dy = dy;
                    }
                }
            }
            // Broadcast the block vector to all covered pixels.
            for (int y = by; y < std::min(h, by + bs); ++y) {
                for (int x = bx; x < std::min(w, bx + bs); ++x) {
                    flow.u.at(x, y) = float(best_dx);
                    flow.v.at(x, y) = float(best_dy);
                }
            }
        }
    }
    return flow;
}

int64_t
blockMotionOps(int width, int height, const BlockMotionParams &params)
{
    const int64_t candidates =
        int64_t(2 * params.searchRadius + 1) *
        (2 * params.searchRadius + 1);
    // Every pixel is touched once per candidate (block SADs cover
    // the frame exactly once per candidate).
    return int64_t(width) * height * candidates;
}

} // namespace asv::flow
