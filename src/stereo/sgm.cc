#include "stereo/sgm.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "common/simd.hh"
#include "stereo/subpixel.hh"

namespace asv::stereo
{

namespace
{

/**
 * Path-start step (no predecessor): L_r is the raw matching cost.
 * Returns min(cur[0..nd)) — the prev_min of the next pixel.
 */
inline uint16_t
startRow(const uint16_t *cost_px, int nd, uint16_t *cur,
         uint32_t *total_px)
{
    uint16_t cur_min = 0xFFFF;
    for (int d = 0; d < nd; ++d) {
        const uint16_t c = cost_px[d];
        cur[d] = c;
        total_px[d] += c;
        cur_min = std::min(cur_min, c);
    }
    return cur_min;
}

/**
 * Per-path L_r scratch rows padded with the 0xFFFF neighbor
 * sentinels the aggregateRow kernel contract requires at prev[-1]
 * and prev[nd]. The kernel only ever writes cur[0..nd), so the
 * sentinels set at construction survive every swap. Storage comes
 * from the context's BufferPool: recycled contents are re-sentineled
 * here, so a recycled scratch is indistinguishable from a fresh one.
 */
class PathScratch
{
  public:
    PathScratch(int nd, int64_t paths, BufferPool &pool)
        : stride_(nd + 2),
          buf_(pool.acquire<uint16_t>(size_t(stride_ * paths)))
    {
        std::fill(buf_.data(), buf_.data() + buf_.size(),
                  uint16_t(0xFFFF));
    }

    /** Interior (length-nd) slice of path @p i. */
    uint16_t *row(int64_t i) { return buf_.data() + i * stride_ + 1; }

    void swap(PathScratch &other)
    {
        buf_.swap(other.buf_);
    }

  private:
    int64_t stride_;
    PoolHandle<uint16_t> buf_;
};

/**
 * Census transform of one image row into @p out (w entries). The
 * dispatched kernel covers the interior [radius, w - radius); the
 * x-clamped borders run the same scalar code at every SIMD level, so
 * the encoding is bit-identical everywhere. @p rows is caller scratch
 * for the 2*radius+1 y-clamped row base pointers. This is the
 * row-granular building block both censusTransform() and the
 * streaming SGM's on-the-fly cost generation share — one definition
 * of the encoding, so the two cannot drift.
 */
void
censusLineInto(const image::Image &img, int radius, int y,
               const simd::Kernels &k, const float **rows,
               uint64_t *out)
{
    const int w = img.width(), h = img.height();
    const int x_lo = std::min(radius, w);
    const int x_hi = std::max(x_lo, w - radius);
    for (int dy = -radius; dy <= radius; ++dy) {
        rows[size_t(dy + radius)] =
            img.data() + int64_t(clamp(y + dy, 0, h - 1)) * w;
    }
    auto borderPixel = [&](int x) {
        const float center = img.at(x, y);
        uint64_t bits = 0;
        for (int dy = -radius; dy <= radius; ++dy) {
            for (int dx = -radius; dx <= radius; ++dx) {
                if (dx == 0 && dy == 0)
                    continue;
                bits = (bits << 1) |
                       (img.atClamped(x + dx, y + dy) < center
                            ? 1u
                            : 0u);
            }
        }
        out[x] = bits;
    };
    for (int x = 0; x < x_lo; ++x)
        borderPixel(x);
    if (x_hi > x_lo)
        k.censusRow(rows, radius, x_lo, x_hi, out);
    for (int x = x_hi; x < w; ++x)
        borderPixel(x);
}

/**
 * Per-row disparity search windows of the streaming engine. Row y
 * searches the dense candidate window [lo[y], lo[y] + ndw[y]) and its
 * slice of the down-direction partial volume starts at cell off[y]
 * (cell index off[y] + x * ndw[y] + j). The full-range mode is the
 * constant window [0, nd); the range-pruned mode derives each row's
 * window from the propagated previous-frame disparity. All three
 * metadata arrays live in the ExecContext's BufferPool.
 */
struct RowWindows
{
    PoolHandle<uint32_t> lo;  //!< per-row window start (absolute d)
    PoolHandle<uint32_t> ndw; //!< per-row window width (>= 1)
    PoolHandle<uint64_t> off; //!< per-row cell offset, down volume
    uint64_t cells = 0;       //!< total down-volume cells
};

RowWindows
makeFullWindows(int w, int h, int nd, BufferPool &pool)
{
    RowWindows win;
    win.lo = pool.acquireZeroed<uint32_t>(size_t(h));
    win.ndw = pool.acquire<uint32_t>(size_t(h));
    win.off = pool.acquire<uint64_t>(size_t(h));
    for (int y = 0; y < h; ++y) {
        win.ndw[size_t(y)] = uint32_t(nd);
        win.off[size_t(y)] = uint64_t(y) * uint64_t(w) * uint64_t(nd);
    }
    win.cells = uint64_t(h) * uint64_t(w) * uint64_t(nd);
    return win;
}

/**
 * Range-pruned windows: row y searches [min, max] of the guide's
 * valid disparities in that row, widened by @p margin on both sides
 * and clamped to [0, nd). Rows with no valid guide pixel fall back to
 * the full range, so a sparse or failed prior degrades to plain SGM
 * row by row instead of corrupting the search.
 */
RowWindows
makeGuideWindows(const DisparityMap &guide, int nd, int margin,
                 const ExecContext &ctx)
{
    const int w = guide.width(), h = guide.height();
    RowWindows win;
    BufferPool &pool = ctx.buffers();
    win.lo = pool.acquire<uint32_t>(size_t(h));
    win.ndw = pool.acquire<uint32_t>(size_t(h));
    win.off = pool.acquire<uint64_t>(size_t(h));
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            float mn = 0.f, mx = 0.f;
            bool any = false;
            for (int x = 0; x < w; ++x) {
                const float v = guide.at(x, y);
                if (!isValidDisparity(v))
                    continue;
                mn = any ? std::min(mn, v) : v;
                mx = any ? std::max(mx, v) : v;
                any = true;
            }
            int lo = 0, hi = nd - 1;
            if (any) {
                lo = clamp(int(std::floor(mn)) - margin, 0, nd - 1);
                hi = clamp(int(std::ceil(mx)) + margin, lo, nd - 1);
            }
            win.lo[size_t(y)] = uint32_t(lo);
            win.ndw[size_t(y)] = uint32_t(hi - lo + 1);
        }
    });
    uint64_t off = 0;
    for (int y = 0; y < h; ++y) {
        win.off[size_t(y)] = off;
        off += uint64_t(w) * win.ndw[size_t(y)];
    }
    win.cells = off;
    return win;
}

/**
 * Tiled, streaming SGM. Census and Hamming cost rows are
 * generated on the fly inside the aggregation wavefronts (the
 * costRow kernel feeds aggregateRow directly in pixel-major layout),
 * so the resident state is O(tile-rows x width x nd) pool scratch —
 * never a materialized cost volume.
 *
 * The 8-path mode runs two sweeps. The down sweep (top to bottom)
 * aggregates the three down directions (0,1), (1,1), (-1,1) and
 * stores their per-cell partial sum in the only resident plane, the
 * down volume, narrowed adaptively to uint8/uint16/uint32 (TDown):
 * each direction's L_r is bounded by cost + P2 — prev_min + P2 is
 * always a min candidate — so with the default census radius and
 * penalties three directions sum to <= 192 and one byte per cell
 * suffices (~8x smaller than a uint16 cost + uint32 total volume
 * pair). The up sweep regenerates the cost rows, adds the two
 * horizontal paths and the three up directions, widens in the
 * down-volume row — completing the exact 8-direction uint32 total of
 * the directional reference in tests/sgm_reference.hh — and
 * finalizes each row
 * immediately: WTA + sub-pixel + the left-right check, which is
 * per-row because the right image's disparity at xr is
 * argmin_d total(xr + d, y, d) in the same row. Integer sums are
 * order-independent and every directional recurrence replays the
 * reference's start conditions, so the result is bit-identical to
 * tests/sgm_reference.hh at any SIMD level and worker count.
 *
 * paths=4/5 run the single down sweep with the horizontals folded in
 * ((1,0) + optional (-1,0) backward pass at paths=5) and finalize
 * per row — zero resident volume, one pass over the image.
 *
 * Rows are processed in tiles: the cost-row and horizontal stages
 * fan out over a tile's rows (amortizing launch overhead and keeping
 * the tile's cost/total rows cache-resident for the wavefront
 * stage), then the wavefront stage walks the tile's rows serially
 * with pixel-parallel rows. Range pruning plugs in per row: every
 * stage operates on the row's dense candidate window, the L_r scratch
 * keeps absolute-d indexing with 0xFFFF outside the windows actually
 * written (drifted window edges are re-sentineled as the ping-pong
 * buffers cycle), and prev_min stays the true minimum of the previous
 * row's window, so the kernel contract holds unchanged.
 */
template <typename TDown>
class StreamingSgm
{
  public:
    StreamingSgm(const image::Image &left, const image::Image &right,
                 const SgmParams &params, const RowWindows &win,
                 const ExecContext &ctx)
        : left_(left), right_(right), p_(params), win_(win),
          ctx_(ctx), k_(simd::kernels()), w_(left.width()),
          h_(left.height()), nd_(params.maxDisparity + 1),
          p1_(static_cast<uint16_t>(std::min(params.p1, 0xFFFF))),
          p2_(static_cast<uint16_t>(std::min(params.p2, 0xFFFF))),
          tile_rows_(tileRowsFor(w_, nd_)),
          cost_tile_(ctx.buffers().acquire<uint16_t>(
              size_t(int64_t(tile_rows_) * w_ * nd_))),
          total_tile_(ctx.buffers().acquire<uint32_t>(
              size_t(int64_t(tile_rows_) * w_ * nd_))),
          chunks_(ctx.pool().numThreads()),
          census_rows_(ctx.buffers().acquire<const float *>(
              size_t(chunks_) *
              size_t(2 * params.censusRadius + 1))),
          census_codes_(ctx.buffers().acquire<uint64_t>(
              size_t(2 * chunks_) * size_t(w_))),
          horiz_scratch_(nd_, 2 * chunks_, ctx.buffers())
    {
        if (p_.paths == 8)
            down_vol_ =
                ctx.buffers().acquire<TDown>(size_t(win.cells));
    }

    DisparityMap
    run()
    {
        DisparityMap disp =
            image::acquireImageUninit(ctx_.buffers(), w_, h_);
        if (p_.paths == 8) {
            sweep(+1, false, false, false, true, nullptr);
            sweep(-1, true, true, true, false, &disp);
        } else {
            sweep(+1, true, p_.paths == 5, false, false, &disp);
        }
        return disp;
    }

  private:
    /**
     * Tile height: enough rows to amortize the parallel stages'
     * launch overhead, few enough that a tile's cost (uint16) +
     * total (uint32) rows stay L2-resident (~2 MB target).
     */
    static int
    tileRowsFor(int w, int nd)
    {
        const int64_t bytes_per_row = int64_t(w) * nd * 6;
        const int64_t t =
            (int64_t(2) << 20) / std::max<int64_t>(bytes_per_row, 1);
        return int(clamp(t, int64_t(2), int64_t(64)));
    }

    /** Wavefront state of one dy-direction (dx in {0, 1, -1}). */
    struct DirState
    {
        int dx;
        PathScratch prev, cur;
        PoolHandle<uint16_t> prev_min, cur_min;

        DirState(int nd, int w, int dx_, BufferPool &pool)
            : dx(dx_), prev(nd, w, pool), cur(nd, w, pool),
              prev_min(pool.acquireZeroed<uint16_t>(size_t(w))),
              cur_min(pool.acquireZeroed<uint16_t>(size_t(w)))
        {
        }

        void
        advance()
        {
            prev.swap(cur);
            prev_min.swap(cur_min);
        }
    };

    uint16_t *
    costRow(int slot)
    {
        return cost_tile_.data() + int64_t(slot) * w_ * nd_;
    }
    uint32_t *
    totalRow(int slot)
    {
        return total_tile_.data() + int64_t(slot) * w_ * nd_;
    }

    /** Stage A: fused census + pixel-major cost rows of one tile. */
    void
    stageCostRows(int i0, int i1, int y_begin, int dy)
    {
        ctx_.parallelForChunks(i0, i1, [&](int64_t a, int64_t b,
                                           int c) {
            const float **rows =
                census_rows_.data() +
                size_t(c) * size_t(2 * p_.censusRadius + 1);
            uint64_t *cl = census_codes_.data() + int64_t(2 * c) * w_;
            uint64_t *cr = cl + w_;
            for (int i = int(a); i < int(b); ++i) {
                const int y = y_begin + i * dy;
                censusLineInto(left_, p_.censusRadius, y, k_, rows,
                               cl);
                censusLineInto(right_, p_.censusRadius, y, k_, rows,
                               cr);
                k_.costRow(cl, cr, w_, int(win_.lo[size_t(y)]),
                           int(win_.ndw[size_t(y)]), costRow(i - i0));
            }
        });
    }

    /** One horizontal 1-D path over a dense-window row. */
    void
    horizontalScan(const uint16_t *cost, uint32_t *tot, int ndw,
                   int dx, uint16_t *prev, uint16_t *cur)
    {
        int x = dx > 0 ? 0 : w_ - 1;
        uint16_t prev_min = startRow(cost + int64_t(x) * ndw, ndw,
                                     prev, tot + int64_t(x) * ndw);
        for (int s = 1; s < w_; ++s) {
            x += dx;
            prev_min = k_.aggregateRow(cost + int64_t(x) * ndw, prev,
                                       prev_min, ndw, p1_, p2_, cur,
                                       tot + int64_t(x) * ndw);
            std::swap(prev, cur);
        }
    }

    /**
     * Stage B: zero a tile's total rows and add the horizontal
     * path(s). Rows are independent 1-D paths, so the tile fans out.
     */
    void
    stageHorizontal(int i0, int i1, int y_begin, int dy, bool lr_pass,
                    bool rl_pass)
    {
        ctx_.parallelForChunks(i0, i1, [&](int64_t a, int64_t b,
                                           int c) {
            uint16_t *s0 = horiz_scratch_.row(2 * c);
            uint16_t *s1 = horiz_scratch_.row(2 * c + 1);
            for (int i = int(a); i < int(b); ++i) {
                const int y = y_begin + i * dy;
                const int ndw = int(win_.ndw[size_t(y)]);
                const uint16_t *cost = costRow(i - i0);
                uint32_t *tot = totalRow(i - i0);
                std::fill(tot, tot + int64_t(w_) * ndw, 0u);
                // A narrower window than this chunk scratch's last
                // row leaves stale cells right above the window
                // where the kernel reads prev[ndw]; re-sentinel them.
                std::fill(s0 + ndw, s0 + nd_, uint16_t(0xFFFF));
                std::fill(s1 + ndw, s1 + nd_, uint16_t(0xFFFF));
                if (lr_pass)
                    horizontalScan(cost, tot, ndw, +1, s0, s1);
                if (rl_pass)
                    horizontalScan(cost, tot, ndw, -1, s0, s1);
            }
        });
    }

    /**
     * One full sweep in row direction @p dy. Aggregates the three
     * dy-direction wavefront paths (plus horizontals when requested)
     * over every row; optionally widens in (add_down) or narrows out
     * (store_down) the down volume; finalizes rows (WTA + sub-pixel
     * + LR check) when @p disp is non-null.
     */
    void
    sweep(int dy, bool horiz_lr, bool horiz_rl, bool add_down,
          bool store_down, DisparityMap *disp)
    {
        DirState dirs[3] = {DirState(nd_, w_, 0, ctx_.buffers()),
                            DirState(nd_, w_, 1, ctx_.buffers()),
                            DirState(nd_, w_, -1, ctx_.buffers())};
        const bool lr = disp != nullptr && p_.leftRightCheck;
        PoolHandle<float> right_disp;
        if (lr)
            right_disp = ctx_.buffers().acquire<float>(size_t(w_));
        const bool has_horiz = horiz_lr || horiz_rl;
        // Candidate windows of the previous row (now in the `prev`
        // buffers) and of two rows back (still in the `cur` buffers
        // about to be overwritten). Cells they cover outside the new
        // row's window are re-sentineled below, so drifting windows
        // never leak stale L_r into a neighbor load.
        int prev_lo = 0, prev_hi = 0;
        int prev2_lo = 0, prev2_hi = 0;
        const int y_begin = dy > 0 ? 0 : h_ - 1;
        for (int i0 = 0; i0 < h_; i0 += tile_rows_) {
            const int i1 = std::min(i0 + tile_rows_, h_);
            stageCostRows(i0, i1, y_begin, dy);
            if (has_horiz)
                stageHorizontal(i0, i1, y_begin, dy, horiz_lr,
                                horiz_rl);
            for (int i = i0; i < i1; ++i) {
                const int y = y_begin + i * dy;
                const int lo = int(win_.lo[size_t(y)]);
                const int ndw = int(win_.ndw[size_t(y)]);
                const bool first_row = i == 0;
                const uint16_t *cost = costRow(i - i0);
                uint32_t *tot = totalRow(i - i0);
                const TDown *down_row =
                    add_down ? down_vol_.data() + win_.off[size_t(y)]
                             : nullptr;
                TDown *down_out =
                    store_down ? down_vol_.data() + win_.off[size_t(y)]
                               : nullptr;
                // Stale cells of the `cur` buffers: the window of two
                // rows back minus this row's window.
                const int wa0 = prev2_lo;
                const int wa1 = std::min(prev2_hi, lo);
                const int wb0 = std::max(prev2_lo, lo + ndw);
                const int wb1 = prev2_hi;
                ctx_.parallelFor(0, w_, [&](int64_t a, int64_t b) {
                    for (int x = int(a); x < int(b); ++x) {
                        const uint16_t *cost_x =
                            cost + int64_t(x) * ndw;
                        uint32_t *tot_x = tot + int64_t(x) * ndw;
                        if (!has_horiz)
                            std::fill(tot_x, tot_x + ndw, 0u);
                        if (down_row != nullptr) {
                            const TDown *dr =
                                down_row + int64_t(x) * ndw;
                            for (int j = 0; j < ndw; ++j)
                                tot_x[j] += uint32_t(dr[j]);
                        }
                        for (DirState &s : dirs) {
                            uint16_t *base = s.cur.row(x);
                            if (wa0 < wa1)
                                std::fill(base + wa0, base + wa1,
                                          uint16_t(0xFFFF));
                            if (wb0 < wb1)
                                std::fill(base + wb0, base + wb1,
                                          uint16_t(0xFFFF));
                            const int px = x - s.dx;
                            if (first_row || px < 0 || px >= w_) {
                                s.cur_min[size_t(x)] = startRow(
                                    cost_x, ndw, base + lo, tot_x);
                            } else {
                                // Neighbor-candidate contract at the
                                // window edges: the scalar kernel
                                // skips d-1/d+1 by index, the vector
                                // kernels by sentinel. When the
                                // previous row's window is wider,
                                // the cells adjacent to this window
                                // hold live L values the vector path
                                // would consume — mask them so every
                                // level agrees that out-of-window
                                // neighbors are absent. Each prev
                                // row is read by exactly this pixel,
                                // so the write is race-free.
                                uint16_t *pbase = s.prev.row(px);
                                if (lo > 0)
                                    pbase[lo - 1] = 0xFFFF;
                                if (lo + ndw < nd_)
                                    pbase[lo + ndw] = 0xFFFF;
                                s.cur_min[size_t(x)] =
                                    k_.aggregateRow(
                                        cost_x, pbase + lo,
                                        s.prev_min[size_t(px)], ndw,
                                        p1_, p2_, base + lo, tot_x);
                            }
                        }
                        if (down_out != nullptr) {
                            TDown *dr = down_out + int64_t(x) * ndw;
                            for (int j = 0; j < ndw; ++j)
                                dr[j] = TDown(tot_x[j]);
                        }
                        if (disp != nullptr) {
                            uint32_t best = tot_x[0];
                            int bj = 0;
                            for (int j = 1; j < ndw; ++j) {
                                if (tot_x[j] < best) {
                                    best = tot_x[j];
                                    bj = j;
                                }
                            }
                            float dv = float(lo + bj);
                            if (p_.subpixel && bj > 0 &&
                                bj + 1 < ndw) {
                                dv += subpixelOffset(tot_x[bj - 1],
                                                     tot_x[bj],
                                                     tot_x[bj + 1]);
                            }
                            disp->at(x, y) = dv;
                        }
                    }
                });
                if (lr)
                    leftRightCheckRow(*disp, right_disp.data(), tot,
                                      y, lo, ndw);
                prev2_lo = prev_lo;
                prev2_hi = prev_hi;
                prev_lo = lo;
                prev_hi = lo + ndw;
                for (DirState &s : dirs)
                    s.advance();
            }
        }
    }

    /**
     * Per-row left-right consistency check — identical arithmetic to
     * tests/sgm_reference.hh, which is itself per-row: the right
     * image's disparity at xr is argmin_d total(xr + d, y, d).
     */
    void
    leftRightCheckRow(DisparityMap &disp, float *right_disp,
                      const uint32_t *tot, int y, int lo, int ndw)
    {
        ctx_.parallelFor(0, w_, [&](int64_t a, int64_t b) {
            for (int xr = int(a); xr < int(b); ++xr) {
                uint32_t best = std::numeric_limits<uint32_t>::max();
                int bd = lo;
                for (int j = 0; j < ndw && xr + lo + j < w_; ++j) {
                    const uint32_t val =
                        tot[int64_t(xr + lo + j) * ndw + j];
                    if (val < best) {
                        best = val;
                        bd = lo + j;
                    }
                }
                right_disp[xr] = float(bd);
            }
        });
        ctx_.parallelFor(0, w_, [&](int64_t a, int64_t b) {
            for (int x = int(a); x < int(b); ++x) {
                const int d =
                    static_cast<int>(std::lround(disp.at(x, y)));
                const int xr = x - d;
                if (xr < 0 || std::abs(right_disp[xr] - float(d)) >
                                  float(p_.lrTolerance)) {
                    disp.at(x, y) = kInvalidDisparity;
                }
            }
        });
    }

    const image::Image &left_, &right_;
    const SgmParams &p_;
    const RowWindows &win_;
    const ExecContext &ctx_;
    const simd::Kernels &k_;
    int w_, h_, nd_;
    uint16_t p1_, p2_;
    int tile_rows_;
    PoolHandle<uint16_t> cost_tile_;  //!< tile cost rows, stride ndw
    PoolHandle<uint32_t> total_tile_; //!< tile total rows, stride ndw
    // Parallel-stage scratch, pre-acquired per chunk so the live
    // same-shape buffer count (and with it the steady-state pool
    // miss count) never depends on how worker chunks overlap.
    int chunks_;                            //!< max parallel fan-out
    PoolHandle<const float *> census_rows_; //!< census row pointers
    PoolHandle<uint64_t> census_codes_;     //!< left+right code rows
    PathScratch horiz_scratch_; //!< 2 ping-pong rows per chunk
    PoolHandle<TDown> down_vol_; //!< 8-path down-direction sums
};

/**
 * The entry point behind sgmCompute() and sgmComputeGuided():
 * validate, build the per-row windows (full-range, or pruned from
 * @p guide), pick the narrowest down-volume element type that can
 * hold three directions' worth of L_r exactly, and run.
 */
DisparityMap
sgmComputeStreamed(const image::Image &left, const image::Image &right,
                   const SgmParams &params, const DisparityMap *guide,
                   const ExecContext &ctx)
{
    panic_if(left.width() != right.width() ||
                 left.height() != right.height(),
             "stereo pair size mismatch");
    fatal_if(params.p1 < 0 || params.p2 < 0,
             "SGM penalties must be non-negative");
    fatal_if(params.censusRadius < 1 || params.censusRadius > 3,
             "census radius must be in [1, 3] (bits must fit uint64)");
    fatal_if(params.paths != 4 && params.paths != 5 &&
                 params.paths != 8,
             "SGM paths must be 4, 5, or 8");
    const int w = left.width(), h = left.height();
    const int nd = params.maxDisparity + 1;
    const RowWindows win =
        guide != nullptr
            ? makeGuideWindows(*guide, nd,
                               std::max(params.pruneMargin, 0), ctx)
            : makeFullWindows(w, h, nd, ctx.buffers());
    // L_r <= cost + P2 per direction (prev_min + P2 is always a min
    // candidate), and cost <= (2r+1)^2 - 1 census bits, so the exact
    // ceiling of a 3-direction cell is known up front.
    const uint32_t cost_max =
        uint32_t(2 * params.censusRadius + 1) *
            uint32_t(2 * params.censusRadius + 1) -
        1;
    const uint32_t per_dir = std::min<uint32_t>(
        0xFFFFu, cost_max + uint32_t(std::min(params.p2, 0xFFFF)));
    const uint32_t down_max = 3 * per_dir;
    if (params.paths != 8 || down_max <= 0xFF)
        return StreamingSgm<uint8_t>(left, right, params, win, ctx)
            .run();
    if (down_max <= 0xFFFF)
        return StreamingSgm<uint16_t>(left, right, params, win, ctx)
            .run();
    return StreamingSgm<uint32_t>(left, right, params, win, ctx)
        .run();
}

} // namespace

std::vector<uint64_t>
censusTransform(const image::Image &img, int radius,
                const ExecContext &ctx)
{
    fatal_if(radius < 1 || radius > 3,
             "census radius must be in [1, 3] (bits must fit uint64)");
    const int w = img.width(), h = img.height();
    std::vector<uint64_t> census(int64_t(w) * h);
    const simd::Kernels &k = simd::kernels();
    // Rows are independent; each writes a disjoint slice of census.
    // Row-pointer scratch is pre-acquired per chunk: acquiring
    // inside the worker lambdas would make the number of live
    // same-shape buffers — and with it the steady-state pool miss
    // count — depend on thread scheduling.
    const int taps = 2 * radius + 1;
    auto rows = ctx.buffers().acquire<const float *>(
        size_t(ctx.pool().numThreads()) * size_t(taps));
    ctx.parallelForChunks(0, h, [&](int64_t y0, int64_t y1, int c) {
        const float **row = rows.data() + size_t(c) * size_t(taps);
        for (int y = int(y0); y < int(y1); ++y) {
            censusLineInto(img, radius, y, k, row,
                           census.data() + int64_t(y) * w);
        }
    });
    return census;
}

int64_t
sgmOps(int width, int height, const SgmParams &params)
{
    const int64_t pixels = int64_t(width) * height;
    const int64_t nd = params.maxDisparity + 1;
    const int64_t census_taps =
        int64_t(2 * params.censusRadius + 1) *
        (2 * params.censusRadius + 1);
    // Census (2 frames, twice in the two-sweep 8-path mode) + cost
    // rows + aggregation passes (~4 ops per (pixel, d)) + WTA.
    const int64_t sweeps = params.paths == 8 ? 2 : 1;
    return sweeps * (2 * pixels * census_taps + pixels * nd) +
           params.paths * pixels * nd * 4 + pixels * nd;
}

DisparityMap
sgmCompute(const image::Image &left, const image::Image &right,
           const SgmParams &params, const ExecContext &ctx)
{
    return sgmComputeStreamed(left, right, params, nullptr, ctx);
}

DisparityMap
sgmComputeGuided(const image::Image &left, const image::Image &right,
                 const DisparityMap &guide, const SgmParams &params,
                 const ExecContext &ctx)
{
    // A missing or size-mismatched guide (first frame, mid-stream
    // resolution change) degrades to the unguided engine.
    const bool usable = guide.width() == left.width() &&
                        guide.height() == left.height();
    return sgmComputeStreamed(left, right, params,
                              usable ? &guide : nullptr, ctx);
}

} // namespace asv::stereo
