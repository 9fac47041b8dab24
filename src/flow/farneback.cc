#include "flow/farneback.hh"

#include <array>
#include <cmath>
#include <span>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "image/ops.hh"

namespace asv::flow
{

namespace
{

/** Solve the 6x6 system M x = r in place (partial pivoting). */
std::array<double, 6>
solve6(std::array<std::array<double, 6>, 6> m, std::array<double, 6> r)
{
    constexpr int n = 6;
    for (int col = 0; col < n; ++col) {
        int pivot = col;
        for (int row = col + 1; row < n; ++row)
            if (std::abs(m[row][col]) > std::abs(m[pivot][col]))
                pivot = row;
        std::swap(m[col], m[pivot]);
        std::swap(r[col], r[pivot]);
        panic_if(std::abs(m[col][col]) < 1e-12,
                 "singular Gram matrix in polynomial expansion");
        for (int row = col + 1; row < n; ++row) {
            const double f = m[row][col] / m[col][col];
            for (int k = col; k < n; ++k)
                m[row][k] -= f * m[col][k];
            r[row] -= f * r[col];
        }
    }
    std::array<double, 6> x{};
    for (int row = n - 1; row >= 0; --row) {
        double acc = r[row];
        for (int k = row + 1; k < n; ++k)
            acc -= m[row][k] * x[k];
        x[row] = acc / m[row][row];
    }
    return x;
}

/**
 * Invert the Gram matrix of the basis {1, dx, dy, dx^2, dy^2, dxdy}
 * under the Gaussian applicability, returning G^-1 row by row so the
 * per-pixel projection is six dot products with the moment vector.
 */
std::array<std::array<double, 6>, 6>
inverseGram(int radius, double sigma)
{
    std::array<std::array<double, 6>, 6> g{};
    for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
            const double w =
                std::exp(-(double(dx) * dx + double(dy) * dy) /
                         (2.0 * sigma * sigma));
            const std::array<double, 6> phi = {
                1.0, double(dx), double(dy), double(dx) * dx,
                double(dy) * dy, double(dx) * dy};
            for (int i = 0; i < 6; ++i)
                for (int j = 0; j < 6; ++j)
                    g[i][j] += w * phi[i] * phi[j];
        }
    }
    // Invert column by column.
    std::array<std::array<double, 6>, 6> inv{};
    for (int col = 0; col < 6; ++col) {
        std::array<double, 6> e{};
        e[col] = 1.0;
        const auto x = solve6(g, e);
        for (int row = 0; row < 6; ++row)
            inv[row][col] = x[row];
    }
    return inv;
}

} // namespace

PolyExpansion
polyExpansion(const image::Image &img, int radius, double sigma,
              const ExecContext &ctx)
{
    panic_if(radius < 1, "polynomial radius must be >= 1");
    const int w = img.width(), h = img.height();
    const auto ginv = inverseGram(radius, sigma);

    // Moment taps w(t)*t^p for p = 0, 1, 2; the row and column passes
    // share them.
    const int ntaps = 2 * radius + 1;
    auto kbuf = ctx.buffers().acquire<double>(size_t(3 * ntaps));
    for (int p = 0; p < 3; ++p) {
        for (int t = -radius; t <= radius; ++t) {
            const double wt =
                std::exp(-(double(t) * t) / (2.0 * sigma * sigma));
            kbuf[size_t(p * ntaps + t + radius)] =
                wt * std::pow(double(t), p);
        }
    }
    const auto k = [&](int p) {
        return std::span<const double>(kbuf.data() + p * ntaps,
                                       size_t(ntaps));
    };

    // Separable moments: m(p,q) = col_q(row_p(f)). All intermediates
    // and the six coefficient planes are pooled, so a warm expansion
    // allocates nothing.
    BufferPool &bp = ctx.buffers();
    const auto plane = [&] { return image::acquireImageUninit(bp, w, h); };
    image::Image r0 = plane(), r1 = plane(), r2 = plane();
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        image::convolveX(img, k(0), r0, int(y0), int(y1));
        image::convolveX(img, k(1), r1, int(y0), int(y1));
        image::convolveX(img, k(2), r2, int(y0), int(y1));
    });

    image::Image m00 = plane(), m10 = plane(), m01 = plane();
    image::Image m20 = plane(), m02 = plane(), m11 = plane();
    PolyExpansion pe{plane(), plane(), plane(),
                     plane(), plane(), plane()};

    // Column moments and the 6x6 projection, row by row: the
    // projection of row y needs only row y of the six moments.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        image::convolveY(r0, k(0), m00, int(y0), int(y1));
        image::convolveY(r1, k(0), m10, int(y0), int(y1));
        image::convolveY(r0, k(1), m01, int(y0), int(y1));
        image::convolveY(r2, k(0), m20, int(y0), int(y1));
        image::convolveY(r0, k(2), m02, int(y0), int(y1));
        image::convolveY(r1, k(1), m11, int(y0), int(y1));

        // Basis order: {1, dx, dy, dx^2, dy^2, dxdy}.
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                const std::array<double, 6> m = {
                    m00.at(x, y), m10.at(x, y), m01.at(x, y),
                    m20.at(x, y), m02.at(x, y), m11.at(x, y)};
                std::array<double, 6> coef{};
                for (int i = 0; i < 6; ++i) {
                    double acc = 0.0;
                    for (int j = 0; j < 6; ++j)
                        acc += ginv[i][j] * m[j];
                    coef[i] = acc;
                }
                pe.c.at(x, y) = static_cast<float>(coef[0]);
                pe.bx.at(x, y) = static_cast<float>(coef[1]);
                pe.by.at(x, y) = static_cast<float>(coef[2]);
                pe.axx.at(x, y) = static_cast<float>(coef[3]);
                pe.ayy.at(x, y) = static_cast<float>(coef[4]);
                pe.axy.at(x, y) = static_cast<float>(coef[5]);
            }
        }
    });
    return pe;
}

namespace
{

/**
 * One displacement-update iteration at a single scale ("Matrix
 * Update" + Gaussian blur + "Compute Flow" in ASV's mapping).
 */
void
updateFlow(const PolyExpansion &p1, const PolyExpansion &p2,
           FlowField &flow, int blur_radius, const ExecContext &ctx)
{
    const int w = flow.width(), h = flow.height();

    // The five per-pixel normal-equation planes: G = A^T A (g11, g12,
    // g22) and h = A^T db (h1, h2). The matrix update writes every
    // pixel, so the pooled acquisitions skip the clear.
    enum { G11, G12, G22, H1, H2 };
    BufferPool &bp = ctx.buffers();
    std::array<image::Image, 5> g;
    for (image::Image &plane : g)
        plane = image::acquireImageUninit(bp, w, h);

    // Matrix update: build the per-pixel normal equations. Rows are
    // independent (each writes disjoint slices of g), so they fan
    // out on the context's pool bit-identically.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                const float du = flow.u.at(x, y);
                const float dv = flow.v.at(x, y);
                const float xs = clamp(float(x) + du, 0.f, float(w - 1));
                const float ys = clamp(float(y) + dv, 0.f, float(h - 1));
                // All five p2 samples share (xs, ys): one floor and
                // one set of weights.
                const image::BilinearSample s(w, h, xs, ys);

                // A = (A1(x) + A2(x+d)) / 2, with A =
                // [[axx, axy/2], [axy/2, ayy]].
                const double a11 =
                    0.5 * (p1.axx.at(x, y) + s.apply(p2.axx));
                const double a22 =
                    0.5 * (p1.ayy.at(x, y) + s.apply(p2.ayy));
                const double a12 =
                    0.25 * (p1.axy.at(x, y) + s.apply(p2.axy));

                // db = -(1/2)(b2(x+d) - b1(x)) + A d.
                const double db1 =
                    -0.5 * (s.apply(p2.bx) - p1.bx.at(x, y)) +
                    a11 * du + a12 * dv;
                const double db2 =
                    -0.5 * (s.apply(p2.by) - p1.by.at(x, y)) +
                    a12 * du + a22 * dv;

                g[G11].at(x, y) = float(a11 * a11 + a12 * a12);
                g[G12].at(x, y) = float(a12 * (a11 + a22));
                g[G22].at(x, y) = float(a22 * a22 + a12 * a12);
                g[H1].at(x, y) = float(a11 * db1 + a12 * db2);
                g[H2].at(x, y) = float(a12 * db1 + a22 * db2);
            }
        }
    });

    // Gaussian aggregation of the normal equations: all five planes
    // in one horizontal and one vertical fan-out.
    image::gaussianBlurInPlace(g, blur_radius, -1.0, ctx);

    // Compute flow: per-pixel 2x2 solve, row-parallel.
    ctx.parallelFor(0, h, [&](int64_t y0, int64_t y1) {
        for (int y = int(y0); y < int(y1); ++y) {
            for (int x = 0; x < w; ++x) {
                const double a = g[G11].at(x, y), b = g[G12].at(x, y);
                const double c = g[G22].at(x, y);
                const double det = a * c - b * b;
                if (std::abs(det) < 1e-9)
                    continue; // textureless region: keep previous flow
                const double r1 = g[H1].at(x, y), r2 = g[H2].at(x, y);
                flow.u.at(x, y) = float((c * r1 - b * r2) / det);
                flow.v.at(x, y) = float((a * r2 - b * r1) / det);
            }
        }
    });
}

} // namespace

FlowField
farnebackFlow(const image::Image &frame0, const image::Image &frame1,
              const FarnebackParams &params, const FlowField *init,
              const ExecContext &ctx)
{
    panic_if(frame0.width() != frame1.width() ||
                 frame0.height() != frame1.height(),
             "frame size mismatch");
    panic_if(init && (init->width() != frame0.width() ||
                      init->height() != frame0.height()),
             "init flow size mismatch");

    const image::Pyramid pyr0 = image::buildPyramid(
        frame0, params.pyramidLevels, 16, ctx);
    const image::Pyramid pyr1 = image::buildPyramid(
        frame1, params.pyramidLevels, 16, ctx);
    const int levels = pyr0.size();

    const int wc = pyr0[levels - 1].width();
    const int hc = pyr0[levels - 1].height();
    FlowField flow;
    if (init) {
        const float s = 1.f / float(1 << (levels - 1));
        flow.u = image::resizeBilinear(init->u, wc, hc, ctx);
        flow.v = image::resizeBilinear(init->v, wc, hc, ctx);
        for (int64_t i = 0; i < flow.u.size(); ++i) {
            flow.u.data()[i] *= s;
            flow.v.data()[i] *= s;
        }
    } else {
        // Unseeded flow starts at zero displacement.
        flow.u = image::acquireImage(ctx.buffers(), wc, hc);
        flow.v = image::acquireImage(ctx.buffers(), wc, hc);
    }

    for (int level = levels - 1; level >= 0; --level) {
        const image::Image &f0 = pyr0[level];
        const image::Image &f1 = pyr1[level];

        if (level != levels - 1) {
            // Upsample flow from the coarser level and rescale.
            const float sx = float(f0.width()) / flow.width();
            FlowField up;
            up.u = image::resizeBilinear(flow.u, f0.width(),
                                         f0.height(), ctx);
            up.v = image::resizeBilinear(flow.v, f0.width(),
                                         f0.height(), ctx);
            for (int64_t i = 0; i < up.u.size(); ++i) {
                up.u.data()[i] *= sx;
                up.v.data()[i] *= sx;
            }
            flow = std::move(up);
        }

        const PolyExpansion p0 = polyExpansion(
            f0, params.polyRadius, params.polySigma, ctx);
        const PolyExpansion p1 = polyExpansion(
            f1, params.polyRadius, params.polySigma, ctx);

        for (int it = 0; it < params.iterations; ++it)
            updateFlow(p0, p1, flow, params.blurRadius, ctx);
    }
    return flow;
}

FarnebackCost
farnebackCost(int width, int height, const FarnebackParams &params)
{
    FarnebackCost cost;
    int w = width, h = height;
    for (int level = 0; level < params.pyramidLevels; ++level) {
        const int64_t pixels = int64_t(w) * h;
        const int taps_poly = 2 * params.polyRadius + 1;
        const int taps_blur = 2 * params.blurRadius + 1;

        // Polynomial expansion of both frames: 3 row passes + 6 col
        // passes, each one MAC per tap, plus the 6x6 projection.
        cost.convOps += 2 * pixels * int64_t(9) * taps_poly;
        cost.pointwiseOps += 2 * pixels * 36;

        // Per iteration: matrix update (~20 point ops/pixel), five
        // separable Gaussian blurs, 2x2 solve (~10 point ops/pixel).
        cost.pointwiseOps += int64_t(params.iterations) * pixels * 30;
        cost.convOps += int64_t(params.iterations) * pixels * 5 * 2 *
                        taps_blur;

        w = std::max(1, w / 2);
        h = std::max(1, h / 2);
    }
    return cost;
}

} // namespace asv::flow
