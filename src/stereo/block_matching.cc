#include "stereo/block_matching.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/buffer_pool.hh"
#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "stereo/subpixel.hh"

namespace asv::stereo
{

namespace
{

/** Pixels per sadBlock call: one iteration of the AVX2 body. */
constexpr int kGroup = 8;

/**
 * The 2r+1 rows around one center row of both images, widened to
 * double and edge-replicated, in the form sadBlock reads them.
 *
 * Every candidate the search evaluates for pixel x is at most x, and
 * a group's candidates at most its last pixel's x, so taps read
 * columns [-r - (kGroup - 1), w + r). Replicating the edge pixels
 * over that margin makes every read equal image::Image::atClamped;
 * y is clamped through the row pointers. The rows sit in a ring of
 * 2r+1 slots keyed by source row (the rows around one center are
 * consecutive, so they never share a slot), and moving to the next
 * center row widens one new row per image. Storage is pooled
 * per-chunk scratch, so a warm search allocates nothing.
 */
class PaddedRows
{
  public:
    PaddedRows(const image::Image &left, const image::Image &right,
               int radius, BufferPool &pool)
        : left_(left), right_(right), radius_(radius),
          taps_(2 * radius + 1), pad_(radius + kGroup - 1),
          stride_(size_t(pad_) + size_t(left.width()) + size_t(radius)),
          rows_(pool.acquire<double>(2 * size_t(taps_) * stride_)),
          ptrs_(pool.acquire<const double *>(2 * size_t(taps_))),
          held_(pool.acquire<uint32_t>(size_t(taps_)))
    {
        std::fill(held_.data(), held_.data() + taps_, kNone);
    }

    /** Point the row arrays at the rows around center row @p y. */
    void
    center(int y)
    {
        for (int t = 0; t < taps_; ++t) {
            const int src = clamp(y + t - radius_, 0, left_.height() - 1);
            const int slot = src % taps_;
            double *l = rows_.data() + size_t(slot) * stride_ + pad_;
            double *r = l + size_t(taps_) * stride_;
            if (held_[size_t(slot)] != uint32_t(src)) {
                widen(left_, src, l);
                widen(right_, src, r);
                held_[size_t(slot)] = uint32_t(src);
            }
            ptrs_[size_t(t)] = l;
            ptrs_[size_t(taps_ + t)] = r;
        }
    }

    const double *const *left() const { return ptrs_.data(); }
    const double *const *right() const { return ptrs_.data() + taps_; }

  private:
    static constexpr uint32_t kNone = ~uint32_t(0);

    /** Row @p y of @p img as double, edges replicated over the pads. */
    void
    widen(const image::Image &img, int y, double *dst) const
    {
        const int w = img.width();
        const float *src = img.data() + int64_t(y) * w;
        std::fill(dst - pad_, dst, double(src[0]));
        std::copy(src, src + w, dst);
        std::fill(dst + w, dst + w + radius_, double(src[w - 1]));
    }

    const image::Image &left_, &right_;
    const int radius_, taps_, pad_;
    const size_t stride_;
    PoolHandle<double> rows_;
    PoolHandle<const double *> ptrs_;
    PoolHandle<uint32_t> held_; //!< source row in each slot
};

/**
 * Pick the disparity of each of @p n pixels from its costs over its
 * own window [lo[i], hi[i]] — the first strict minimum in ascending
 * d, then the optional uniqueness filter and sub-pixel fit — or
 * kInvalidDisparity if rejected. @p cost holds
 * cost[(d - d0) * n + i] for d in [d0, d0 + nd), which covers every
 * window.
 */
void
selectDisparities(const double *cost, int n, int d0, int nd,
                  const int *lo, const int *hi,
                  const BlockMatchingParams &params, float *out)
{
    const auto at = [&](int i, int d) {
        return cost[size_t(d - d0) * size_t(n) + size_t(i)];
    };
    double best_cost[kGroup];
    int best_d[kGroup];
    for (int i = 0; i < n; ++i) {
        best_cost[i] = std::numeric_limits<double>::max();
        best_d[i] = -1;
    }
    // Candidates ascending, pixels across: each pixel keeps its first
    // strict minimum, as a per-pixel scan would. Branch-free selects,
    // since which lane improves is data-dependent.
    for (int d = d0; d < d0 + nd; ++d) {
        for (int i = 0; i < n; ++i) {
            const double c = at(i, d);
            const bool take =
                (d >= lo[i]) & (d <= hi[i]) & (c < best_cost[i]);
            best_cost[i] = take ? c : best_cost[i];
            best_d[i] = take ? d : best_d[i];
        }
    }

    for (int i = 0; i < n; ++i) {
        const int best = best_d[i];
        if (best < 0) {
            out[i] = kInvalidDisparity;
            continue;
        }
        if (params.uniquenessRatio > 0.f) {
            // Second-best over candidates at least 2 away from the
            // best (OpenCV semantics): the immediate neighbors of a
            // minimum on a smooth SAD surface are always nearly as
            // good, so counting them as "second best" would reject
            // nearly every pixel — ruin for guided refinement, where
            // all candidates are adjacent integers. A window with no
            // candidate beyond the exclusion zone has no rival to
            // compare against and keeps the match.
            double second = std::numeric_limits<double>::max();
            for (int d = lo[i]; d <= hi[i]; ++d) {
                if (std::abs(d - best) > 1)
                    second = std::min(second, at(i, d));
            }
            // Reject unless the rival is strictly worse than the best
            // by the ratio. <= (not <) so that exact ties — e.g. a
            // periodic texture matching perfectly at two disparities
            // — are rejected even when the best cost is zero.
            if (second < std::numeric_limits<double>::max() &&
                second <= best_cost[i] * (1.0 + params.uniquenessRatio)) {
                out[i] = kInvalidDisparity;
                continue;
            }
        }
        float disp = static_cast<float>(best);
        if (params.subpixel && best > lo[i] && best < hi[i])
            disp += subpixelOffset(at(i, best - 1), at(i, best),
                                   at(i, best + 1));
        out[i] = disp;
    }
}

/**
 * The SAD search both modes share: pixel (x, y) is matched over the
 * candidate window [lo, hi] that window(x, y, lo, hi) fills in, with
 * every candidate in [0, x]. Each group of kGroup pixels is split
 * into runs of neighbours whose union of windows spans at most twice
 * the widest window among them, and each run is one sadBlock call
 * over that union: nested full-search windows and the overlapping
 * seeded windows of a smooth surface make one run, while a depth
 * edge splits the group rather than paying the whole union for every
 * pixel. @p max_window bounds every window's width, so a run's union
 * fits in 2 * max_window candidates of cost scratch per pixel. Rows
 * are independent and partitioned across the pool, so results are
 * bit-identical for any worker count.
 */
template <typename Window>
DisparityMap
searchWindows(const image::Image &left, const image::Image &right,
              const BlockMatchingParams &params, int max_window,
              const Window &window, const ExecContext &ctx)
{
    const int w = left.width();
    // Every pixel is written below, so the pooled map skips the
    // clear; per-chunk scratch comes from the same arena.
    DisparityMap disp =
        image::acquireImageUninit(ctx.buffers(), w, left.height());
    const simd::Kernels &kernels = simd::kernels();
    const int radius = params.blockRadius;
    ctx.parallelFor(0, left.height(), [&](int64_t y0, int64_t y1) {
        PaddedRows rows(left, right, radius, ctx.buffers());
        auto cost = ctx.buffers().acquire<double>(size_t(kGroup) * 2 *
                                                  size_t(max_window));
        for (int y = int(y0); y < int(y1); ++y) {
            rows.center(y);
            float *out = disp.data() + int64_t(y) * w;
            for (int x0 = 0; x0 < w; x0 += kGroup) {
                const int n = std::min(kGroup, w - x0);
                int lo[kGroup], hi[kGroup];
                for (int i = 0; i < n; ++i)
                    window(x0 + i, y, lo[i], hi[i]);
                for (int i = 0, k; i < n; i = k) {
                    int ulo = lo[i], uhi = hi[i];
                    int widest = hi[i] - lo[i] + 1;
                    for (k = i + 1; k < n; ++k) {
                        const int nlo = std::min(ulo, lo[k]);
                        const int nhi = std::max(uhi, hi[k]);
                        const int nw = std::max(widest, hi[k] - lo[k] + 1);
                        if (nhi - nlo + 1 > 2 * nw)
                            break;
                        ulo = nlo;
                        uhi = nhi;
                        widest = nw;
                    }
                    kernels.sadBlock(rows.left(), rows.right(), radius,
                                     x0 + i, k - i, ulo, uhi - ulo + 1,
                                     cost.data());
                    selectDisparities(cost.data(), k - i, ulo,
                                      uhi - ulo + 1, lo + i, hi + i,
                                      params, out + x0 + i);
                }
            }
        }
    });
    return disp;
}

} // namespace

void
checkParams(const BlockMatchingParams &params, int refine_radius)
{
    require(params.blockRadius >= 0, "blockRadius must be >= 0");
    require(params.maxDisparity >= 1, "maxDisparity must be >= 1");
    require(refine_radius >= 0, "refineRadius must be >= 0");
}

DisparityMap
blockMatching(const image::Image &left, const image::Image &right,
              const BlockMatchingParams &params,
              const ExecContext &ctx)
{
    checkParams(params);
    require(image::sameSize(left, right), "stereo pair size mismatch");

    return searchWindows(
        left, right, params, params.maxDisparity + 1,
        [&](int x, int, int &lo, int &hi) {
            lo = 0;
            hi = std::min(params.maxDisparity, x);
        },
        ctx);
}

DisparityMap
refineDisparity(const image::Image &left, const image::Image &right,
                const DisparityMap &init, int radius,
                const BlockMatchingParams &params,
                const ExecContext &ctx)
{
    checkParams(params, radius);
    require(image::sameSize(left, right), "stereo pair size mismatch");
    require(image::sameSize(init, left), "init disparity size mismatch");

    return searchWindows(
        left, right, params,
        std::max(params.maxDisparity, 2 * radius) + 1,
        [&](int x, int y, int &lo, int &hi) {
            const float d0 = init.at(x, y);
            if (!isValidDisparity(d0)) {
                // Fall back to full search for unseeded pixels.
                lo = 0;
                hi = std::min(params.maxDisparity, x);
                return;
            }
            const int c = roundToInt(d0);
            lo = std::max(0, c - radius);
            hi = std::min({params.maxDisparity, x, c + radius});
            if (lo > hi)
                lo = hi = std::min(std::max(0, c), x);
        },
        ctx);
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
