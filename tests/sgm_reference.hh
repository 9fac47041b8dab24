/**
 * @file
 * Test-only directional reference of semi-global matching — the one
 * SGM implementation the library's streaming engine
 * (stereo::sgmCompute / sgmComputeGuided) is checked against, bit
 * for bit, at every SIMD level and worker count.
 *
 * It is written for clarity, not speed: the whole Hamming cost
 * volume and one L_r volume per direction are materialized, so keep
 * inputs small.
 */

#ifndef ASV_TESTS_SGM_REFERENCE_HH
#define ASV_TESTS_SGM_REFERENCE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "image/image.hh"
#include "stereo/disparity.hh"
#include "stereo/sgm.hh"

namespace asv::testref
{

/**
 * Straightforward serial 8-direction SGM: pixel-major cost volume,
 * one full L_r volume per direction, scan order chosen so the
 * predecessor is always computed first, then WTA + sub-pixel and
 * the left-right check over the whole total volume. Honours
 * maxDisparity, censusRadius, p1/p2, subpixel, leftRightCheck and
 * lrTolerance; paths is always 8 and pruneMargin is ignored.
 */
inline stereo::DisparityMap
referenceSgm(const image::Image &left, const image::Image &right,
             const stereo::SgmParams &params)
{
    const int w = left.width(), h = left.height();
    const int nd = params.maxDisparity + 1;
    const auto idx = [&](int x, int y, int d) {
        return (int64_t(y) * w + x) * nd + d;
    };

    // Census at the scalar level on a private 1-worker context, so
    // the reference never depends on the dispatch level or on the
    // pools of the engine under test.
    const simd::Level level = simd::activeLevel();
    simd::setLevel(simd::Level::Scalar);
    ThreadPool pool(1);
    BufferPool buffers;
    const ExecContext ctx(pool, buffers);
    const auto cl =
        stereo::censusTransform(left, params.censusRadius, ctx);
    const auto cr =
        stereo::censusTransform(right, params.censusRadius, ctx);
    simd::setLevel(level);
    std::vector<uint16_t> cost(int64_t(w) * h * nd);
    for (int y = 0; y < h; ++y)
        for (int x = 0; x < w; ++x)
            for (int d = 0; d < nd; ++d) {
                const int xr = std::max(0, x - d);
                cost[idx(x, y, d)] = uint16_t(std::popcount(
                    cl[int64_t(y) * w + x] ^ cr[int64_t(y) * w + xr]));
            }

    std::vector<uint32_t> total(cost.size(), 0);
    const int dirs[8][2] = {{1, 0},  {-1, 0}, {0, 1},  {0, -1},
                            {1, 1},  {-1, 1}, {1, -1}, {-1, -1}};
    for (const auto &dir : dirs) {
        const int dx = dir[0], dy = dir[1];
        std::vector<uint16_t> lr(cost.size());
        const int y_begin = dy >= 0 ? 0 : h - 1;
        const int y_end = dy >= 0 ? h : -1;
        const int y_step = dy >= 0 ? 1 : -1;
        const int x_begin = dx >= 0 ? 0 : w - 1;
        const int x_end = dx >= 0 ? w : -1;
        const int x_step = dx >= 0 ? 1 : -1;
        for (int y = y_begin; y != y_end; y += y_step) {
            for (int x = x_begin; x != x_end; x += x_step) {
                const int px = x - dx, py = y - dy;
                const bool has_prev =
                    px >= 0 && px < w && py >= 0 && py < h;
                uint16_t prev_min = 0;
                const uint16_t *prev = nullptr;
                if (has_prev) {
                    prev = &lr[idx(px, py, 0)];
                    prev_min =
                        *std::min_element(prev, prev + nd);
                }
                for (int d = 0; d < nd; ++d) {
                    uint32_t best;
                    if (!has_prev) {
                        best = 0;
                    } else {
                        best = prev[d];
                        if (d > 0)
                            best = std::min<uint32_t>(
                                best, prev[d - 1] + params.p1);
                        if (d + 1 < nd)
                            best = std::min<uint32_t>(
                                best, prev[d + 1] + params.p1);
                        best = std::min<uint32_t>(
                            best, uint32_t(prev_min) + params.p2);
                        best -= prev_min;
                    }
                    const uint32_t v = cost[idx(x, y, d)] + best;
                    lr[idx(x, y, d)] = uint16_t(
                        std::min<uint32_t>(v, 0xFFFF));
                    total[idx(x, y, d)] += lr[idx(x, y, d)];
                }
            }
        }
    }

    stereo::DisparityMap disp(w, h);
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const uint32_t *s = &total[idx(x, y, 0)];
            int best = 0;
            for (int d = 1; d < nd; ++d)
                if (s[d] < s[best])
                    best = d;
            float dv = float(best);
            if (params.subpixel && best > 0 && best + 1 < nd) {
                const double cm = s[best - 1], c0 = s[best];
                const double cp = s[best + 1];
                const double denom = cm - 2.0 * c0 + cp;
                if (denom > 1e-12) {
                    dv += float(std::clamp(
                        0.5 * (cm - cp) / denom, -0.5, 0.5));
                }
            }
            disp.at(x, y) = dv;
        }
    }

    if (params.leftRightCheck) {
        stereo::DisparityMap right_disp(w, h);
        for (int y = 0; y < h; ++y) {
            for (int xr = 0; xr < w; ++xr) {
                int best = 0;
                uint32_t best_v =
                    std::numeric_limits<uint32_t>::max();
                for (int d = 0; d < nd; ++d) {
                    const int xl = xr + d;
                    if (xl >= w)
                        break;
                    const uint32_t v = total[idx(xl, y, d)];
                    if (v < best_v) {
                        best_v = v;
                        best = d;
                    }
                }
                right_disp.at(xr, y) = float(best);
            }
        }
        for (int y = 0; y < h; ++y) {
            for (int x = 0; x < w; ++x) {
                const int d = int(std::lround(disp.at(x, y)));
                const int xr = x - d;
                if (xr < 0 || std::abs(right_disp.at(xr, y) - d) >
                                  params.lrTolerance) {
                    disp.at(x, y) = stereo::kInvalidDisparity;
                }
            }
        }
    }
    return disp;
}

} // namespace asv::testref

#endif // ASV_TESTS_SGM_REFERENCE_HH
