#include "flow/lucas_kanade.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "image/ops.hh"

namespace asv::flow
{

image::Image
harrisResponse(const image::Image &img, const ExecContext &ctx)
{
    const int w = img.width(), h = img.height();
    const image::Image gx = image::gradientX(img);
    const image::Image gy = image::gradientY(img);

    image::Image ixx(w, h), iyy(w, h), ixy(w, h);
    for (int64_t i = 0; i < ixx.size(); ++i) {
        const float x = gx.data()[i], y = gy.data()[i];
        ixx.data()[i] = x * x;
        iyy.data()[i] = y * y;
        ixy.data()[i] = x * y;
    }
    const image::Image sxx = image::gaussianBlur(ixx, 2, -1.0, ctx);
    const image::Image syy = image::gaussianBlur(iyy, 2, -1.0, ctx);
    const image::Image sxy = image::gaussianBlur(ixy, 2, -1.0, ctx);

    image::Image resp(w, h);
    constexpr double k = 0.04;
    for (int64_t i = 0; i < resp.size(); ++i) {
        const double a = sxx.data()[i], b = sxy.data()[i];
        const double c = syy.data()[i];
        const double det = a * c - b * b;
        const double trace = a + c;
        resp.data()[i] = float(det - k * trace * trace);
    }
    return resp;
}

std::vector<TrackedPoint>
detectCorners(const image::Image &img, const LucasKanadeParams &params,
              const ExecContext &ctx)
{
    const image::Image resp = harrisResponse(img, ctx);
    const int w = img.width(), h = img.height();

    float max_resp = 0.f;
    for (int64_t i = 0; i < resp.size(); ++i)
        max_resp = std::max(max_resp, resp.data()[i]);
    const float threshold = params.qualityLevel * max_resp;

    // Collect local maxima above threshold.
    std::vector<std::pair<float, std::pair<int, int>>> candidates;
    for (int y = 1; y < h - 1; ++y) {
        for (int x = 1; x < w - 1; ++x) {
            const float v = resp.at(x, y);
            if (v < threshold)
                continue;
            bool is_max = true;
            for (int dy = -1; dy <= 1 && is_max; ++dy)
                for (int dx = -1; dx <= 1; ++dx)
                    if (resp.atClamped(x + dx, y + dy) > v) {
                        is_max = false;
                        break;
                    }
            if (is_max)
                candidates.push_back({v, {x, y}});
        }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });

    // Greedy spacing filter, strongest first.
    std::vector<TrackedPoint> points;
    const int64_t min_d2 =
        int64_t(params.minDistance) * params.minDistance;
    for (const auto &[v, pos] : candidates) {
        if (int(points.size()) >= params.maxCorners)
            break;
        bool ok = true;
        for (const auto &p : points) {
            const int64_t dx = int64_t(pos.first - p.x);
            const int64_t dy = int64_t(pos.second - p.y);
            if (dx * dx + dy * dy < min_d2) {
                ok = false;
                break;
            }
        }
        if (ok) {
            TrackedPoint p;
            p.x = float(pos.first);
            p.y = float(pos.second);
            points.push_back(p);
        }
    }
    return points;
}

namespace
{

/**
 * One LK solve at a single pyramid level, updating (u, v). The patch
 * scratch (ix/iy/i0, each (2r+1)^2 floats) is caller-provided pooled
 * storage, shared across all points of one chunk.
 */
bool
trackAtLevel(const image::Image &f0, const image::Image &f1, float x,
             float y, float &u, float &v,
             const LucasKanadeParams &params, float *ix, float *iy,
             float *i0)
{
    const int r = params.windowRadius;

    // Spatial gradient matrix over the window around (x, y) in f0.
    double gxx = 0, gxy = 0, gyy = 0;
    int idx = 0;
    for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx, ++idx) {
            const float xs = x + dx, ys = y + dy;
            const float gx = 0.5f * (f0.sample(xs + 1, ys) -
                                     f0.sample(xs - 1, ys));
            const float gy = 0.5f * (f0.sample(xs, ys + 1) -
                                     f0.sample(xs, ys - 1));
            ix[idx] = gx;
            iy[idx] = gy;
            i0[idx] = f0.sample(xs, ys);
            gxx += double(gx) * gx;
            gxy += double(gx) * gy;
            gyy += double(gy) * gy;
        }
    }
    const double det = gxx * gyy - gxy * gxy;
    if (det < 1e-6)
        return false; // untrackable (flat or edge-only)

    for (int it = 0; it < params.iterations; ++it) {
        double bx = 0, by = 0;
        idx = 0;
        for (int dy = -r; dy <= r; ++dy) {
            for (int dx = -r; dx <= r; ++dx, ++idx) {
                const float diff =
                    i0[idx] -
                    f1.sample(x + u + dx, y + v + dy);
                bx += double(ix[idx]) * diff;
                by += double(iy[idx]) * diff;
            }
        }
        const double du = (gyy * bx - gxy * by) / det;
        const double dv = (gxx * by - gxy * bx) / det;
        u += float(du);
        v += float(dv);
        if (std::abs(du) < 0.01 && std::abs(dv) < 0.01)
            break;
    }
    return std::isfinite(u) && std::isfinite(v);
}

} // namespace

void
trackLucasKanade(const image::Image &frame0,
                 const image::Image &frame1,
                 std::vector<TrackedPoint> &points,
                 const LucasKanadeParams &params,
                 const ExecContext &ctx)
{
    panic_if(frame0.width() != frame1.width() ||
                 frame0.height() != frame1.height(),
             "frame size mismatch");
    const auto pyr0 =
        image::buildPyramid(frame0, params.pyramidLevels, 16, ctx);
    const auto pyr1 =
        image::buildPyramid(frame1, params.pyramidLevels, 16, ctx);
    const int levels = int(pyr0.size());

    // Tracks are independent (each writes only its own entry), so
    // points fan out across the pool.
    ctx.parallelFor(0, int64_t(points.size()), [&](int64_t i0,
                                                   int64_t i1) {
        // Per-chunk pooled patch scratch, reused by every point and
        // level of the chunk.
        const size_t win = size_t(2 * params.windowRadius + 1) *
                           size_t(2 * params.windowRadius + 1);
        auto patch = ctx.buffers().acquire<float>(3 * win);
        float *six = patch.data();
        float *siy = six + win;
        float *si0 = siy + win;
        for (int64_t i = i0; i < i1; ++i) {
            TrackedPoint &p = points[i];
            float u = 0.f, v = 0.f;
            bool ok = true;
            for (int level = levels - 1; level >= 0; --level) {
                const float scale = 1.f / float(1 << level);
                u *= 2.f;
                v *= 2.f;
                if (level == levels - 1) {
                    u = v = 0.f;
                }
                ok = trackAtLevel(pyr0[level], pyr1[level],
                                  p.x * scale, p.y * scale, u, v,
                                  params, six, siy, si0);
                if (!ok)
                    break;
            }
            p.valid = ok && std::abs(u) < frame0.width() &&
                      std::abs(v) < frame0.height();
            if (p.valid) {
                p.u = u;
                p.v = v;
            }
        }
    });
}

FlowField
densifySparseFlow(const std::vector<TrackedPoint> &points, int width,
                  int height)
{
    FlowField flow(width, height);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            double best_d2 = std::numeric_limits<double>::max();
            float u = 0.f, v = 0.f;
            for (const auto &p : points) {
                if (!p.valid)
                    continue;
                const double dx = p.x - x, dy = p.y - y;
                const double d2 = dx * dx + dy * dy;
                if (d2 < best_d2) {
                    best_d2 = d2;
                    u = p.u;
                    v = p.v;
                }
            }
            flow.u.at(x, y) = u;
            flow.v.at(x, y) = v;
        }
    }
    return flow;
}

double
sparseCoverage(const std::vector<TrackedPoint> &points, int width,
               int height, int radius)
{
    const int64_t r2 = int64_t(radius) * radius;
    int64_t covered = 0;
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            for (const auto &p : points) {
                if (!p.valid)
                    continue;
                const int64_t dx = int64_t(p.x) - x;
                const int64_t dy = int64_t(p.y) - y;
                if (dx * dx + dy * dy <= r2) {
                    ++covered;
                    break;
                }
            }
        }
    }
    return double(covered) / (double(width) * height);
}

} // namespace asv::flow
