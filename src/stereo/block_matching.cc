#include "stereo/block_matching.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace asv::stereo
{

namespace
{

/** SAD between the block at (x, y) in left and (x - d, y) in right. */
double
blockSad(const image::Image &left, const image::Image &right, int x,
         int y, int d, int radius)
{
    double sad = 0.0;
    for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
            sad += std::abs(double(left.atClamped(x + dx, y + dy)) -
                            right.atClamped(x - d + dx, y + dy));
        }
    }
    return sad;
}

/**
 * Per-row state for the SAD search: the y-clamped row base pointers
 * both images share for a given center row, plus the dispatched
 * kernel table. Built once per row by the row-parallel drivers; the
 * pointer arrays live in pooled per-chunk scratch so a warm search
 * allocates nothing.
 */
struct SadRowContext
{
    PoolHandle<const float *> storage;
    const float **lrows, **rrows;
    const simd::Kernels *kernels;

    SadRowContext(int radius, const simd::Kernels &k,
                  BufferPool &pool)
        : storage(pool.acquire<const float *>(
              size_t(2 * (2 * radius + 1)))),
          lrows(storage.data()),
          rrows(storage.data() + (2 * radius + 1)), kernels(&k)
    {
    }

    void
    setRow(const image::Image &left, const image::Image &right,
           int radius, int y)
    {
        const int h = left.height();
        const int w = left.width();
        for (int dy = -radius; dy <= radius; ++dy) {
            const int64_t row = int64_t(clamp(y + dy, 0, h - 1)) * w;
            lrows[dy + radius] = left.data() + row;
            rrows[dy + radius] = right.data() + row;
        }
    }
};

/**
 * Fill costs[d - d_lo] = SAD(x, y, d) for d in [d_lo, d_hi]. The
 * candidate sub-range whose every tap is in bounds goes through the
 * dispatched SIMD span kernel (one disparity per vector lane, the
 * exact scalar accumulation order, so bit-identical); candidates
 * that touch a clamped border fall back to the scalar clamped SAD.
 */
void
sadCosts(const image::Image &left, const image::Image &right, int x,
         int y, int d_lo, int d_hi, int radius,
         const SadRowContext &rows, double *costs)
{
    const int w = left.width();
    // Left block interior: x +/- radius in bounds. Right block
    // interior for candidate d: x - d - radius >= 0 and
    // x - d + radius < w.
    int d_safe_lo = d_lo, d_safe_hi = d_hi;
    if (x - radius < 0 || x + radius >= w) {
        d_safe_lo = 1;
        d_safe_hi = 0;
    } else {
        d_safe_lo = std::max(d_safe_lo, x + radius - (w - 1));
        d_safe_hi = std::min(d_safe_hi, x - radius);
    }
    for (int d = d_lo; d <= d_hi; ++d) {
        if (d < d_safe_lo || d > d_safe_hi)
            costs[d - d_lo] = blockSad(left, right, x, y, d, radius);
    }
    if (d_safe_lo <= d_safe_hi) {
        rows.kernels->sadSpan(rows.lrows, rows.rrows, radius, x,
                              d_safe_lo, d_safe_hi - d_safe_lo + 1,
                              costs + (d_safe_lo - d_lo));
    }
}

/**
 * Parabolic sub-pixel refinement from costs at d-1, d, d+1. Returns
 * the offset in (-0.5, 0.5) to add to the integer disparity.
 */
float
subpixelOffset(double cm, double c0, double cp)
{
    const double denom = cm - 2.0 * c0 + cp;
    if (denom <= 1e-12)
        return 0.f;
    const double off = 0.5 * (cm - cp) / denom;
    return static_cast<float>(clamp(off, -0.5, 0.5));
}

/**
 * Evaluate candidates [d_lo, d_hi] for one pixel and return the best
 * disparity (with optional sub-pixel refinement and uniqueness
 * filtering), or kInvalidDisparity if rejected.
 */
float
matchPixel(const image::Image &left, const image::Image &right, int x,
           int y, int d_lo, int d_hi,
           const BlockMatchingParams &params,
           const SadRowContext &rows, double *costs)
{
    // costs must hold d_hi - d_lo + 1 entries (callers pass a pooled
    // span sized for the full maxDisparity + 1 range).
    sadCosts(left, right, x, y, d_lo, d_hi, params.blockRadius, rows,
             costs);

    double best_cost = std::numeric_limits<double>::max();
    int best_d = -1;
    for (int d = d_lo; d <= d_hi; ++d) {
        const double c = costs[d - d_lo];
        if (c < best_cost) {
            best_cost = c;
            best_d = d;
        }
    }
    if (best_d < 0)
        return kInvalidDisparity;

    if (params.uniquenessRatio > 0.f) {
        // Second-best over candidates at least 2 away from the best
        // (OpenCV semantics): the immediate neighbors of a minimum on
        // a smooth SAD surface are always nearly as good, so counting
        // them as "second best" would reject nearly every pixel —
        // fatal for guided refinement, where all candidates are
        // adjacent integers. A window with no candidate beyond the
        // exclusion zone has no rival to compare against and keeps
        // the match.
        double second_cost = std::numeric_limits<double>::max();
        for (int d = d_lo; d <= d_hi; ++d) {
            if (std::abs(d - best_d) <= 1)
                continue;
            second_cost = std::min(second_cost, costs[d - d_lo]);
        }
        // Reject unless the rival is strictly worse than the best
        // by the ratio. <= (not <) so that exact ties — e.g. a
        // periodic texture matching perfectly at two disparities —
        // are rejected even when the best cost is zero.
        if (second_cost < std::numeric_limits<double>::max() &&
            second_cost <= best_cost * (1.0 + params.uniquenessRatio))
            return kInvalidDisparity;
    }

    float disp = static_cast<float>(best_d);
    if (params.subpixel && best_d > d_lo && best_d < d_hi) {
        disp += subpixelOffset(costs[best_d - d_lo - 1],
                               costs[best_d - d_lo],
                               costs[best_d - d_lo + 1]);
    }
    return disp;
}

} // namespace

DisparityMap
blockMatching(const image::Image &left, const image::Image &right,
              const BlockMatchingParams &params,
              const ExecContext &ctx)
{
    panic_if(left.width() != right.width() ||
                 left.height() != right.height(),
             "stereo pair size mismatch");
    fatal_if(params.maxDisparity < 1, "maxDisparity must be >= 1");

    // Every pixel is written below, so the pooled map skips the
    // clear; per-chunk scratch comes from the same arena.
    DisparityMap disp = image::acquireImageUninit(
        ctx.buffers(), left.width(), left.height());
    const simd::Kernels &kernels = simd::kernels();
    // Pixels are independent; partition the SAD search by row.
    ctx.parallelFor(0, left.height(), [&](int64_t y0, int64_t y1) {
        SadRowContext rows(params.blockRadius, kernels,
                           ctx.buffers());
        auto costs = ctx.buffers().acquire<double>(
            size_t(params.maxDisparity + 1));
        for (int y = int(y0); y < int(y1); ++y) {
            rows.setRow(left, right, params.blockRadius, y);
            for (int x = 0; x < left.width(); ++x) {
                const int d_hi = std::min(params.maxDisparity, x);
                disp.at(x, y) =
                    matchPixel(left, right, x, y, 0, d_hi, params,
                               rows, costs.data());
            }
        }
    });
    return disp;
}

DisparityMap
refineDisparity(const image::Image &left, const image::Image &right,
                const DisparityMap &init, int radius,
                const BlockMatchingParams &params,
                const ExecContext &ctx)
{
    panic_if(left.width() != right.width() ||
                 left.height() != right.height(),
             "stereo pair size mismatch");
    panic_if(init.width() != left.width() ||
                 init.height() != left.height(),
             "init disparity size mismatch");
    fatal_if(radius < 0, "negative refinement radius");

    DisparityMap disp = image::acquireImageUninit(
        ctx.buffers(), left.width(), left.height());
    const simd::Kernels &kernels = simd::kernels();
    ctx.parallelFor(0, left.height(), [&](int64_t y0, int64_t y1) {
        SadRowContext rows(params.blockRadius, kernels,
                           ctx.buffers());
        auto costs = ctx.buffers().acquire<double>(
            size_t(params.maxDisparity + 1));
        for (int y = int(y0); y < int(y1); ++y) {
            rows.setRow(left, right, params.blockRadius, y);
            for (int x = 0; x < left.width(); ++x) {
                const float d0 = init.at(x, y);
                int d_lo, d_hi;
                if (isValidDisparity(d0)) {
                    const int c = static_cast<int>(std::lround(d0));
                    d_lo = std::max(0, c - radius);
                    d_hi =
                        std::min({params.maxDisparity, x, c + radius});
                    if (d_lo > d_hi)
                        d_lo = d_hi = std::min(std::max(0, c), x);
                } else {
                    // Fall back to full search for unseeded pixels.
                    d_lo = 0;
                    d_hi = std::min(params.maxDisparity, x);
                }
                disp.at(x, y) =
                    matchPixel(left, right, x, y, d_lo, d_hi, params,
                               rows, costs.data());
            }
        }
    });
    return disp;
}

int64_t
blockMatchingOps(int width, int height, int block_radius,
                 int candidates)
{
    const int64_t taps =
        int64_t(2 * block_radius + 1) * (2 * block_radius + 1);
    return int64_t(width) * height * candidates * taps;
}

} // namespace asv::stereo
