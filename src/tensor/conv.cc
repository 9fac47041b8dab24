#include "tensor/conv.hh"

#include <algorithm>
#include <cstring>

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
    int64_t k[kMaxSpatialDims] = {};       //!< kernel extents
    int64_t out[kMaxSpatialDims] = {};     //!< output extents
    int64_t stride[kMaxSpatialDims] = {};
    int64_t padLo[kMaxSpatialDims] = {};
    int64_t T = 1; //!< kernel taps per channel
    int64_t P = 1; //!< output positions
};

/**
 * The [R x P] im2col matrix packed in column strips of nr columns,
 * the layout the gemmTile kernel reads with ldb = the strip width:
 * strip s holds columns [s * nr, s * nr + width(s)) row-major, so
 * element (i, j) sits at strip(j / nr)[i * width(j / nr) + j % nr].
 * Every strip but the last is nr wide; the last is packed at its own
 * width, so the panel is exactly R * P floats.
 */
struct PackedPanel
{
    float *data;
    int64_t R;
    int64_t P;
    int64_t nr;

    int64_t strips() const { return (P + nr - 1) / nr; }
    int64_t width(int64_t s) const { return std::min(nr, P - s * nr); }
    float *strip(int64_t s) const { return data + s * R * nr; }
};

/** Writes one im2col row into its packed strips, left to right. */
class PackedRowWriter
{
  public:
    PackedRowWriter() = default;
    PackedRowWriter(const PackedPanel &panel, int64_t row)
        : panel_(&panel), row_(row)
    {
    }

    /** The next @p count columns read 0 (zero padding). */
    void
    zeros(int64_t count)
    {
        put(count, [](float *dst, int64_t n) {
            std::fill_n(dst, n, 0.0f);
        });
    }

    /** The next @p count columns read src[0], src[step], ... */
    void
    gather(const float *src, int64_t step, int64_t count)
    {
        int64_t at = 0; // offset of the next column's source
        put(count, [&](float *dst, int64_t n) {
            if (step == 1) {
                std::memcpy(dst, src + at, static_cast<size_t>(n) *
                                               sizeof(float));
            } else {
                for (int64_t j = 0; j < n; ++j)
                    dst[j] = src[at + j * step];
            }
            at += n * step;
        });
    }

  private:
    /** fill(dst, n) for each piece of @p count columns that lies in
     *  one strip. */
    template <typename Fill>
    void
    put(int64_t count, Fill &&fill)
    {
        while (count > 0) {
            if (left_ == 0) {
                ++strip_;
                left_ = panel_->width(strip_);
                dst_ = panel_->strip(strip_) + row_ * left_;
            }
            const int64_t n = std::min(count, left_);
            fill(dst_, n);
            dst_ += n;
            left_ -= n;
            count -= n;
        }
    }

    const PackedPanel *panel_ = nullptr;
    int64_t row_ = 0;
    int64_t strip_ = -1;
    float *dst_ = nullptr;
    int64_t left_ = 0;
};

/** Smallest o >= 0 with o * step >= x. */
int64_t
firstAtLeast(int64_t x, int64_t step)
{
    return x <= 0 ? 0 : (x + step - 1) / step;
}

/**
 * Fill im2col rows [r0, r1) of the packed panel. Row r = c * T + t
 * holds, for channel c and kernel tap t (raster order over the
 * kernel's spatial dims, T taps total), the input value under that
 * tap at every output position p (raster order over the output
 * spatial dims), or 0 where the tap lands in the zero padding. The
 * (c, tap) row order makes the GEMM's ascending-i reduction replay
 * the reference loop's channel-outer, tap-raster-inner accumulation
 * order, and lets the row-major [K, C, k...] weight tensor serve as
 * the [K x R] left operand with no packing.
 *
 * Each output row (innermost dim) of an im2col row is the tap's
 * in-bounds span of one input row, one copy (a memcpy at stride 1,
 * a strided gather otherwise) between two runs of zeros. Rows are
 * filled kRowBlock at a time, output row by output row, so the
 * block's pieces of each strip are written as one contiguous run.
 */
void
im2colRows(const Tensor &input, const ConvGeometry &g,
           const PackedPanel &panel, int64_t r0, int64_t r1)
{
    constexpr int64_t kRowBlock = 8;
    const int inner = g.nd - 1;
    const int64_t width = g.out[inner];
    const int64_t step = g.stride[inner];
    const int64_t rows = g.P / width;
    struct TapRow
    {
        int64_t tap[kMaxSpatialDims];
        int64_t lo, hi;  //!< in-bounds output span of the inner dim
        int64_t first;   //!< input offset read at o = lo
        PackedRowWriter dst;
    };
    TapRow block[kRowBlock];
    for (int64_t rb = r0; rb < r1; rb += kRowBlock) {
        const int64_t nb = std::min(kRowBlock, r1 - rb);
        for (int64_t b = 0; b < nb; ++b) {
            TapRow &tr = block[b];
            const int64_t r = rb + b;
            int64_t t = r % g.T;
            for (int d = inner; d >= 0; --d) {
                tr.tap[d] = t % g.k[d];
                t /= g.k[d];
            }
            // Output position o of the innermost dim reads input
            // index o * step + shift: in bounds for o in [lo, hi).
            const int64_t shift = tr.tap[inner] - g.padLo[inner];
            tr.lo = std::min(width, firstAtLeast(-shift, step));
            tr.hi = std::max(tr.lo,
                             std::min(width, firstAtLeast(
                                                 g.in[inner] - shift,
                                                 step)));
            tr.first = (r / g.T) * g.ichan + tr.lo * step + shift;
            tr.dst = PackedRowWriter(panel, r);
        }
        int64_t o[kMaxSpatialDims] = {};
        for (int64_t row = 0; row < rows; ++row) {
            for (int64_t b = 0; b < nb; ++b) {
                TapRow &tr = block[b];
                int64_t off = 0;
                bool inside = tr.lo < tr.hi;
                for (int d = 0; d < inner; ++d) {
                    const int64_t v =
                        o[d] * g.stride[d] - g.padLo[d] + tr.tap[d];
                    inside = inside && v >= 0 && v < g.in[d];
                    off += v * g.istride[d];
                }
                if (inside) {
                    tr.dst.zeros(tr.lo);
                    tr.dst.gather(input.data() + tr.first + off, step,
                                  tr.hi - tr.lo);
                    tr.dst.zeros(width - tr.hi);
                } else {
                    tr.dst.zeros(width);
                }
            }
            for (int d = inner - 1; d >= 0 && ++o[d] == g.out[d]; --d)
                o[d] = 0;
        }
    }
}

/**
 * Channel-relative ofmap offset of the @p n output positions from
 * raster position @p p0 on, stored through @p place into an ofmap
 * with spatial strides @p ostride.
 */
void
placedOffsets(const ConvGeometry &g, const OutputPlacement &place,
              const int64_t *ostride, int64_t p0, int n, int64_t *off)
{
    int64_t o[kMaxSpatialDims];
    for (int d = g.nd - 1; d >= 0; --d) {
        o[d] = p0 % g.out[d];
        p0 /= g.out[d];
    }
    for (int j = 0; j < n; ++j) {
        off[j] = 0;
        for (int d = 0; d < g.nd; ++d)
            off[j] += (o[d] * place.step[d] + place.offset[d]) *
                      ostride[d];
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
convNdInto(const Tensor &input, const Tensor &weight,
           const ConvSpec &spec, const ConvEpilogue *epilogue,
           const ExecContext &ctx, Tensor &out,
           const OutputPlacement &place)
{
    const int nd = static_cast<int>(input.rank()) - 1;
    panic_if(nd < 1 || nd > kMaxSpatialDims,
             "convNdInto: spatial rank ", nd, " unsupported (1-",
             kMaxSpatialDims, ")");
    panic_if(static_cast<int>(weight.rank()) != nd + 2,
             "convNdInto: weight must be [K, C, kspatial...]; got ",
             toString(weight.shape()));
    panic_if(weight.dim(1) != input.dim(0),
             "convNdInto: channel mismatch: input C=", input.dim(0),
             " weight C=", weight.dim(1));
    panic_if(static_cast<int>(spec.stride.size()) != nd ||
                 static_cast<int>(spec.padLo.size()) != nd ||
                 static_cast<int>(spec.padHi.size()) != nd,
             "convNdInto: spec rank mismatch");
    panic_if(static_cast<int>(out.rank()) != nd + 1 ||
                 out.dim(0) != weight.dim(0),
             "convNdInto: bad output shape ", toString(out.shape()));
    const bool contiguous = place.contiguous();
    panic_if(!contiguous &&
                 (static_cast<int>(place.step.size()) != nd ||
                  static_cast<int>(place.offset.size()) != nd),
             "convNdInto: placement rank mismatch");

    ConvGeometry g;
    g.nd = nd;
    g.ichan = spatialStrides(input, g.istride);
    bool direct = true;
    for (int d = 0; d < nd; ++d) {
        panic_if(spec.stride[d] < 1, "stride must be >= 1");
        g.in[d] = input.dim(1 + d);
        g.k[d] = weight.dim(2 + d);
        g.stride[d] = spec.stride[d];
        g.padLo[d] = spec.padLo[d];
        const int64_t padded = g.in[d] + spec.padLo[d] + spec.padHi[d];
        panic_if(padded < g.k[d], "kernel dim ", g.k[d],
                 " larger than padded input ", padded);
        g.out[d] = (padded - g.k[d]) / spec.stride[d] + 1;
        if (contiguous) {
            panic_if(out.dim(1 + d) != g.out[d],
                     "convNdInto: output spatial mismatch in dim ", d);
        } else {
            panic_if(place.step[d] < 1 || place.offset[d] < 0 ||
                         place.offset[d] +
                                 (g.out[d] - 1) * place.step[d] >=
                             out.dim(1 + d),
                     "convNdInto: placement leaves the output in dim ",
                     d);
        }
        g.T *= g.k[d];
        g.P *= g.out[d];
        direct = direct && g.k[d] == 1 && spec.stride[d] == 1 &&
                 spec.padLo[d] == 0 && spec.padHi[d] == 0;
    }
    const int64_t K = weight.dim(0);
    const int64_t R = input.dim(0) * g.T;
    const int64_t P = g.P;

    const simd::Kernels &kt = simd::kernels();
    const int mr = kt.gemmMr;
    const int nr = kt.gemmNr;

    // Direct route: a pointwise stride-1 unpadded layer already has
    // its input laid out as the row-major [R x P] right operand —
    // each tile reads its columns in place at ldb = P. Otherwise
    // im2col writes the operand packed in nr-wide column strips.
    PoolHandle<float> colbuf;
    PackedPanel panel{nullptr, R, P, nr};
    if (!direct) {
        colbuf =
            ctx.buffers().acquire<float>(static_cast<size_t>(R * P));
        panel.data = colbuf.data();
        ctx.parallelFor(0, R, [&](int64_t r0, int64_t r1) {
            im2colRows(input, g, panel, r0, r1);
        });
    }

    int64_t ostr[kMaxSpatialDims];
    const int64_t ochan = spatialStrides(out, ostr);
    const float *wd = weight.data();
    float *od = out.data();
    // Column strips are partitioned across the pool. Each strip
    // (R x nr) stays cache-resident while every filter sweeps it in
    // mr-row register tiles; each tile gets its epilogue and is
    // stored straight to its ofmap positions. Every output element
    // is produced by exactly one thread replaying the serial
    // reduction order, so results are bit-identical for any worker
    // count (and across SIMD levels; see docs/KERNELS.md).
    ctx.parallelFor(0, panel.strips(), [&](int64_t s0, int64_t s1) {
        alignas(64) float tile[simd::kMaxGemmMr * simd::kMaxGemmNr];
        int64_t dst[simd::kMaxGemmNr];
        for (int64_t s = s0; s < s1; ++s) {
            const int64_t j0 = s * nr;
            const int n = static_cast<int>(panel.width(s));
            const float *b = direct ? input.data() + j0 : panel.strip(s);
            const int64_t ldb = direct ? P : n;
            if (!contiguous)
                placedOffsets(g, place, ostr, j0, n, dst);
            for (int64_t f0 = 0; f0 < K; f0 += mr) {
                const int m =
                    static_cast<int>(std::min<int64_t>(mr, K - f0));
                kt.gemmTile(wd + f0 * R, R, b, ldb,
                            static_cast<int>(R), m, n, tile, nr);
                for (int r = 0; r < m; ++r) {
                    float *row = tile + r * nr;
                    const int64_t f = f0 + r;
                    if (epilogue != nullptr)
                        kt.biasReluRow(
                            row, n,
                            epilogue->bias ? epilogue->bias[f] : 0.0f,
                            epilogue->relu);
                    float *o = od + f * ochan;
                    if (contiguous) {
                        std::memcpy(o + j0, row,
                                    static_cast<size_t>(n) *
                                        sizeof(float));
                    } else {
                        for (int j = 0; j < n; ++j)
                            o[dst[j]] = row[j];
                    }
                }
            }
        }
    });
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
