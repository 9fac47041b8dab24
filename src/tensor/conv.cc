#include "tensor/conv.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "common/logging.hh"
#include "common/simd.hh"

namespace asv::tensor
{

namespace
{

/**
 * Geometry of one convolution, every extent hoisted out of the fill
 * and store loops (Tensor::dim() is bounds-checked).
 */
struct ConvGeometry
{
    int nd = 0;
    int64_t in[kMaxSpatialDims] = {};      //!< input spatial extents
    int64_t istride[kMaxSpatialDims] = {}; //!< input spatial strides
    int64_t ichan = 0;                     //!< elements per channel
    int64_t k[kMaxSpatialDims] = {};       //!< window extents
    int64_t out[kMaxSpatialDims] = {};     //!< output extents
    int64_t stride[kMaxSpatialDims] = {};
    int64_t padLo[kMaxSpatialDims] = {};
    int64_t T = 1; //!< window taps per channel
    int64_t P = 1; //!< output positions
};

/** Smallest o >= 0 with o * step >= x. */
int64_t
firstAtLeast(int64_t x, int64_t step)
{
    return x <= 0 ? 0 : (x + step - 1) / step;
}

/** dst[0, n) = src[0, n), in whole 8-float blocks and a tail (no
 *  library call for the short runs a strip is made of). */
void
copyFloats(float *dst, const float *src, int64_t n)
{
    int64_t j = 0;
    for (; j + 8 <= n; j += 8)
        std::memcpy(dst + j, src + j, 8 * sizeof(float));
    for (; j < n; ++j)
        dst[j] = src[j];
}

/**
 * Pack operand columns [j0, j0 + n) into @p dst, row-major at width
 * n: the strip layout gemmTile reads at ldb = n. Row r = c * T + t
 * holds, for channel c and window tap t (raster order over the
 * window's spatial dims, T taps total), the input value under that
 * tap at each position (raster order over the output spatial dims),
 * or 0 where the tap lands in the zero padding. The (c, tap) row
 * order makes the GEMM's ascending-i reduction replay the reference
 * loop's channel-outer, tap-raster-inner accumulation order, and
 * lets a filter bank over the whole window read the row-major
 * [K, C, k...] weight tensor as its [K x R] left operand with no
 * packing.
 *
 * The strip is cut into runs, one per innermost-dim output row it
 * touches. Each run of an operand row is the tap's in-bounds span
 * of one input row (a copy, contiguous at stride 1) between two
 * runs of zeros; the outer dims' bounds are settled once per
 * channel and outer tap, for all of the innermost dim's taps.
 */
void
packStrip(const float *input, const ConvGeometry &g, int64_t C,
          int64_t j0, int n, float *dst)
{
    const int inner = g.nd - 1;
    const int64_t kin = g.k[inner];
    const int64_t outer_taps = g.T / kin;
    const int64_t step = g.stride[inner];
    struct Run
    {
        int64_t o[kMaxSpatialDims]; //!< output index of its first column
        int col;                    //!< its first strip column
        int len;                    //!< its column count
    };
    Run runs[simd::kMaxGemmNr];
    int nruns = 0;
    {
        int64_t o[kMaxSpatialDims];
        int64_t p = j0;
        for (int d = inner; d >= 0; --d) {
            o[d] = p % g.out[d];
            p /= g.out[d];
        }
        for (int col = 0; col < n;) {
            Run &run = runs[nruns++];
            std::copy_n(o, g.nd, run.o);
            run.col = col;
            run.len = static_cast<int>(
                std::min<int64_t>(n - col, g.out[inner] - o[inner]));
            col += run.len;
            o[inner] = 0;
            for (int d = inner - 1; d >= 0 && ++o[d] == g.out[d]; --d)
                o[d] = 0;
        }
    }
    for (int i = 0; i < nruns; ++i) {
        const Run &run = runs[i];
        const int64_t len = run.len;
        // Inner-dim input index under column 0 of the run at tap 0.
        const int64_t x0 = run.o[inner] * step - g.padLo[inner];
        float *row = dst + run.col;
        int64_t tap[kMaxSpatialDims] = {}; // outer dims' taps
        for (int64_t c = 0; c < C; ++c) {
            const float *chan = input + c * g.ichan;
            for (int64_t to = 0; to < outer_taps; ++to) {
                int64_t off = 0;
                bool inside = true;
                for (int d = 0; d < inner; ++d) {
                    const int64_t v =
                        run.o[d] * g.stride[d] - g.padLo[d] + tap[d];
                    inside = inside && v >= 0 && v < g.in[d];
                    off += v * g.istride[d];
                }
                for (int d = inner - 1; d >= 0 && ++tap[d] == g.k[d];
                     --d)
                    tap[d] = 0;
                for (int64_t t = 0; t < kin; ++t, row += n) {
                    // Column j reads input index x0 + t + j * step:
                    // in bounds for j in [a, b). Stride 1, the
                    // deconvolution phases' case, needs no division.
                    const int64_t first = x0 + t;
                    int64_t a = len, b = len;
                    if (inside && step == 1) {
                        a = std::clamp(-first, int64_t(0), len);
                        b = std::clamp(g.in[inner] - first, a, len);
                    } else if (inside) {
                        a = std::min(len, firstAtLeast(-first, step));
                        b = std::clamp(
                            firstAtLeast(g.in[inner] - first, step), a,
                            len);
                    }
                    if (a > 0)
                        std::fill(row, row + a, 0.0f);
                    const float *src = chan + off + first;
                    if (step == 1) {
                        copyFloats(row + a, src + a, b - a);
                    } else {
                        for (int64_t j = a; j < b; ++j)
                            row[j] = src[j * step];
                    }
                    if (b < len)
                        std::fill(row + b, row + len, 0.0f);
                }
            }
        }
    }
}

/**
 * Channel-relative ofmap offset of the @p n operand positions from
 * raster position @p p0 on, stored through @p place into an ofmap
 * with spatial strides @p ostride; -1 for a position outside the
 * phase's @p counts.
 */
void
placedOffsets(const ConvGeometry &g, const OutputPlacement &place,
              const int64_t *counts, const int64_t *ostride, int64_t p0,
              int n, int64_t *off)
{
    int64_t o[kMaxSpatialDims];
    for (int d = g.nd - 1; d >= 0; --d) {
        o[d] = p0 % g.out[d];
        p0 /= g.out[d];
    }
    for (int j = 0; j < n; ++j) {
        off[j] = 0;
        for (int d = 0; d < g.nd; ++d) {
            if (o[d] >= counts[d]) {
                off[j] = -1;
                break;
            }
            off[j] += (o[d] * place.step[d] + place.offset[d]) *
                      ostride[d];
        }
        for (int d = g.nd - 1; d >= 0 && ++o[d] == g.out[d]; --d)
            o[d] = 0;
    }
}

} // namespace

ConvSpec
ConvSpec::uniform(int spatial_dims, int64_t stride, int64_t pad)
{
    ConvSpec spec;
    spec.stride.assign(spatial_dims, stride);
    spec.padLo.assign(spatial_dims, pad);
    spec.padHi.assign(spatial_dims, pad);
    return spec;
}

Shape
convOutShape(const Shape &input, const Shape &weight, const ConvSpec &spec)
{
    const int spatial = static_cast<int>(input.size()) - 1;
    panic_if(spatial < 1, "input must be [C, spatial...]");
    panic_if(static_cast<int>(weight.size()) != spatial + 2,
             "weight must be [K, C, kspatial...]; got ",
             toString(weight));
    panic_if(weight[1] != input[0], "channel mismatch: input C=",
             input[0], " weight C=", weight[1]);
    panic_if(static_cast<int>(spec.stride.size()) != spatial ||
                 static_cast<int>(spec.padLo.size()) != spatial ||
                 static_cast<int>(spec.padHi.size()) != spatial,
             "spec rank mismatch");

    Shape out(spatial + 1);
    out[0] = weight[0];
    for (int d = 0; d < spatial; ++d) {
        const int64_t padded =
            input[1 + d] + spec.padLo[d] + spec.padHi[d];
        const int64_t k = weight[2 + d];
        panic_if(spec.stride[d] < 1, "stride must be >= 1");
        panic_if(padded < k, "kernel dim ", k,
                 " larger than padded input ", padded);
        out[1 + d] = (padded - k) / spec.stride[d] + 1;
    }
    return out;
}

void
convNdInto(const Tensor &input, std::span<const int64_t> window,
           const ConvSpec &spec, std::span<const ConvPhase> phases,
           const ConvEpilogue *epilogue, const ExecContext &ctx,
           Tensor &out)
{
    const int nd = static_cast<int>(input.rank()) - 1;
    panic_if(nd < 1 || nd > kMaxSpatialDims,
             "convNdInto: spatial rank ", nd, " unsupported (1-",
             kMaxSpatialDims, ")");
    panic_if(static_cast<int>(window.size()) != nd,
             "convNdInto: window rank mismatch");
    panic_if(static_cast<int>(spec.stride.size()) != nd ||
                 static_cast<int>(spec.padLo.size()) != nd ||
                 static_cast<int>(spec.padHi.size()) != nd,
             "convNdInto: spec rank mismatch");
    panic_if(static_cast<int>(out.rank()) != nd + 1,
             "convNdInto: bad output shape ", toString(out.shape()));

    ConvGeometry g;
    g.nd = nd;
    g.ichan = spatialStrides(input, g.istride);
    bool direct = true;
    for (int d = 0; d < nd; ++d) {
        panic_if(spec.stride[d] < 1, "stride must be >= 1");
        g.in[d] = input.dim(1 + d);
        g.k[d] = window[d];
        g.stride[d] = spec.stride[d];
        g.padLo[d] = spec.padLo[d];
        const int64_t padded = g.in[d] + spec.padLo[d] + spec.padHi[d];
        panic_if(g.k[d] < 1 || padded < g.k[d], "window dim ", g.k[d],
                 " outside padded input ", padded);
        g.out[d] = (padded - g.k[d]) / spec.stride[d] + 1;
        g.T *= g.k[d];
        g.P *= g.out[d];
        direct = direct && g.k[d] == 1 && spec.stride[d] == 1 &&
                 spec.padLo[d] == 0 && spec.padHi[d] == 0;
    }
    const int64_t C = input.dim(0);
    const int64_t R = C * g.T;
    const int64_t P = g.P;
    panic_if(R > UINT32_MAX, "convNdInto: ", R,
             " operand rows overflow the row table");

    bool identity = false;
    for (const ConvPhase &ph : phases) {
        panic_if(ph.weight == nullptr || ph.place == nullptr,
                 "convNdInto: a phase needs a weight and a placement");
        const Tensor &w = *ph.weight;
        panic_if(static_cast<int>(w.rank()) != nd + 2,
                 "convNdInto: weight must be [K, C, kspatial...]; got ",
                 toString(w.shape()));
        panic_if(w.dim(1) != C, "convNdInto: channel mismatch: input C=",
                 C, " weight C=", w.dim(1));
        panic_if(w.dim(0) != out.dim(0), "convNdInto: ", w.dim(0),
                 " filters for ", out.dim(0), " output channels");
        int64_t depth = C;
        for (int d = 0; d < nd; ++d)
            depth *= w.dim(2 + d);
        if (ph.rows.empty()) {
            panic_if(depth != R, "convNdInto: a phase without a row "
                                 "table must cover the whole window");
            identity = true;
        } else {
            panic_if(static_cast<int64_t>(ph.rows.size()) != depth,
                     "convNdInto: row table of ", ph.rows.size(),
                     " entries for a reduction of ", depth);
            for (uint32_t r : ph.rows)
                panic_if(r >= R, "convNdInto: row ", r,
                         " outside the operand's ", R);
        }
        panic_if(!ph.counts.empty() &&
                     static_cast<int>(ph.counts.size()) != nd,
                 "convNdInto: counts rank mismatch");
        const bool contiguous = ph.place->contiguous();
        panic_if(!contiguous &&
                     (static_cast<int>(ph.place->step.size()) != nd ||
                      static_cast<int>(ph.place->offset.size()) != nd),
                 "convNdInto: placement rank mismatch");
        for (int d = 0; d < nd; ++d) {
            const int64_t count =
                ph.counts.empty() ? g.out[d] : ph.counts[d];
            panic_if(count < 1 || count > g.out[d], "convNdInto: ",
                     count, " positions in dim ", d, " of an operand of ",
                     g.out[d]);
            if (contiguous) {
                panic_if(count != g.out[d] || out.dim(1 + d) != g.out[d],
                         "convNdInto: output spatial mismatch in dim ",
                         d);
            } else {
                const OutputPlacement &pl = *ph.place;
                panic_if(pl.step[d] < 1 || pl.offset[d] < 0 ||
                             pl.offset[d] + (count - 1) * pl.step[d] >=
                                 out.dim(1 + d),
                         "convNdInto: placement leaves the output in "
                         "dim ", d);
            }
        }
    }

    const simd::Kernels &kt = simd::kernels();
    const int mr = kt.gemmMr;
    const int nr = kt.gemmNr;
    const int64_t strips = (P + nr - 1) / nr;

    PoolHandle<uint32_t> ident;
    if (identity) {
        ident = ctx.buffers().acquire<uint32_t>(static_cast<size_t>(R));
        std::iota(ident.data(), ident.data() + R, 0u);
    }
    // Direct route: a pointwise stride-1 unpadded window already has
    // its input laid out as the row-major [R x P] right operand —
    // each tile reads its columns in place at ldb = P. Otherwise each
    // chunk packs one nr-wide strip at a time into its own block,
    // just before the tiles consume it.
    const int64_t chunks = std::min<int64_t>(ctx.numThreads(), strips);
    PoolHandle<float> blocks;
    if (!direct)
        blocks = ctx.buffers().acquire<float>(
            static_cast<size_t>(chunks * R * nr));

    int64_t ostr[kMaxSpatialDims];
    const int64_t ochan = spatialStrides(out, ostr);
    float *od = out.data();
    // Column strips are partitioned across the pool once. Each strip
    // (R x nr) stays cache-resident while every phase's filters
    // sweep it in mr-row register tiles, each reading its own rows
    // through its row table; each tile gets its epilogue and is
    // stored straight to its phase's ofmap positions. Every output
    // element is produced by exactly one thread replaying the serial
    // reduction order, so results are bit-identical for any worker
    // count (and across SIMD levels; see docs/KERNELS.md).
    ctx.parallelForChunks(0, strips, [&](int64_t s0, int64_t s1,
                                         int chunk) {
        alignas(64) float tile[simd::kMaxGemmMr * simd::kMaxGemmNr];
        int64_t dst[simd::kMaxGemmNr];
        float *block = direct ? nullptr : blocks.data() + chunk * R * nr;
        for (int64_t s = s0; s < s1; ++s) {
            const int64_t j0 = s * nr;
            const int n = static_cast<int>(std::min<int64_t>(nr, P - j0));
            if (!direct)
                packStrip(input.data(), g, C, j0, n, block);
            const float *b = direct ? input.data() + j0 : block;
            const int64_t ldb = direct ? P : n;
            for (const ConvPhase &ph : phases) {
                const bool contiguous = ph.place->contiguous();
                if (!contiguous)
                    placedOffsets(g, *ph.place,
                                  ph.counts.empty() ? g.out
                                                    : ph.counts.data(),
                                  ostr, j0, n, dst);
                const uint32_t *rows =
                    ph.rows.empty() ? ident.data() : ph.rows.data();
                const int k = static_cast<int>(
                    ph.rows.empty() ? R : int64_t(ph.rows.size()));
                const float *wd = ph.weight->data();
                const int64_t K = ph.weight->dim(0);
                for (int64_t f0 = 0; f0 < K; f0 += mr) {
                    const int m =
                        static_cast<int>(std::min<int64_t>(mr, K - f0));
                    kt.gemmTile(wd + f0 * k, k, b, ldb, rows, k, m, n,
                                tile, nr);
                    for (int r = 0; r < m; ++r) {
                        float *row = tile + r * nr;
                        const int64_t f = f0 + r;
                        if (epilogue != nullptr)
                            kt.biasReluRow(row, n,
                                           epilogue->bias
                                               ? epilogue->bias[f]
                                               : 0.0f,
                                           epilogue->relu);
                        float *o = od + f * ochan;
                        if (contiguous) {
                            std::memcpy(o + j0, row,
                                        static_cast<size_t>(n) *
                                            sizeof(float));
                        } else {
                            for (int j = 0; j < n; ++j)
                                if (dst[j] >= 0)
                                    o[dst[j]] = row[j];
                        }
                    }
                }
            }
        }
    });
}

void
convNdInto(const Tensor &input, const Tensor &weight,
           const ConvSpec &spec, const ConvEpilogue *epilogue,
           const ExecContext &ctx, Tensor &out,
           const OutputPlacement &place)
{
    panic_if(weight.rank() < 3,
             "convNdInto: weight must be [K, C, kspatial...]; got ",
             toString(weight.shape()));
    int64_t window[kMaxSpatialDims];
    const int nd = std::min(weight.rank() - 2, kMaxSpatialDims);
    for (int d = 0; d < nd; ++d)
        window[d] = weight.dim(2 + d);
    ConvPhase phase;
    phase.weight = &weight;
    phase.place = &place;
    convNdInto(input, std::span<const int64_t>(window, nd), spec,
               std::span<const ConvPhase>(&phase, 1), epilogue, ctx,
               out);
}

Tensor
convNd(const Tensor &input, const Tensor &weight, const ConvSpec &spec,
       const ExecContext &ctx)
{
    Tensor out(convOutShape(input.shape(), weight.shape(), spec));
    convNdInto(input, weight, spec, nullptr, ctx, out);
    return out;
}

Tensor
referenceConv(const Tensor &input, const Tensor &weight,
              const ConvSpec &spec, const ExecContext &ctx)
{
    Tensor out(convOutShape(input.shape(), weight.shape(), spec));
    ConvGeometry g;
    g.nd = input.rank() - 1;
    panic_if(g.nd > kMaxSpatialDims, "referenceConv: spatial rank ",
             g.nd, " unsupported (1-", kMaxSpatialDims, ")");
    g.ichan = spatialStrides(input, g.istride);
    for (int d = 0; d < g.nd; ++d) {
        g.in[d] = input.dim(1 + d);
        g.k[d] = weight.dim(2 + d);
        g.out[d] = out.dim(1 + d);
        g.stride[d] = spec.stride[d];
        g.padLo[d] = spec.padLo[d];
        g.T *= g.k[d];
        g.P *= g.out[d];
    }
    const int64_t C = input.dim(0);

    // Output elements are independent, so the flat output range is
    // statically partitioned across the pool; every element is
    // computed by exactly one thread in the serial reduction order.
    ctx.parallelFor(0, out.size(), [&](int64_t o0, int64_t o1) {
        int64_t o[kMaxSpatialDims];
        int64_t rem = o0 % g.P;
        for (int d = g.nd - 1; d >= 0; --d) {
            o[d] = rem % g.out[d];
            rem /= g.out[d];
        }
        int64_t f = o0 / g.P;
        for (int64_t i = o0; i < o1; ++i) {
            double acc = 0.0;
            for (int64_t c = 0; c < C; ++c) {
                const float *src = input.data() + c * g.ichan;
                const float *w = weight.data() + (f * C + c) * g.T;
                int64_t t[kMaxSpatialDims] = {};
                for (int64_t tap = 0; tap < g.T; ++tap) {
                    bool inside = true;
                    int64_t off = 0;
                    for (int d = 0; d < g.nd; ++d) {
                        const int64_t v =
                            o[d] * g.stride[d] - g.padLo[d] + t[d];
                        inside = inside && v >= 0 && v < g.in[d];
                        off += v * g.istride[d];
                    }
                    const float a = inside ? src[off] : 0.0f;
                    acc += double(a) * w[tap];
                    for (int d = g.nd - 1; d >= 0 && ++t[d] == g.k[d];
                         --d)
                        t[d] = 0;
                }
            }
            out.data()[i] = static_cast<float>(acc);
            int d = g.nd - 1;
            while (d >= 0 && ++o[d] == g.out[d])
                o[d--] = 0;
            if (d < 0)
                ++f;
        }
    });
    return out;
}

} // namespace asv::tensor
