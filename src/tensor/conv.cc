#include "tensor/conv.hh"

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"

namespace asv::tensor
{

namespace
{

/**
 * True when a MAC convolution rides the dispatched f32 GEMM kernels.
 * Stats collection stays on the double-accumulation reference loop:
 * exact per-tap counters (and the bitwise results the concurrency
 * tests pin) are part of its contract.
 */
bool
gemmEligible(ConvOp op, const ConvStats *stats)
{
    return op == ConvOp::MAC && stats == nullptr;
}

/**
 * Fill im2col rows [r0, r1) of the [R x P] column matrix. Row
 * r = c * T + t holds, for channel c and kernel tap t (raster order
 * over the kernel's spatial dims, T taps total), the input value
 * under that tap at every output position p (raster order over the
 * output spatial dims), or 0 where the tap lands in the zero
 * padding. The (c, tap) row order makes the GEMM's ascending-i
 * reduction replay the reference loop's channel-outer,
 * tap-raster-inner accumulation order, and lets the row-major
 * [K, C, k...] weight tensor serve as the [K x R] left operand with
 * no packing.
 */
void
im2colRows(const Tensor &input, std::span<const int64_t> ospatial,
           std::span<const int64_t> kspatial, const ConvSpec &spec,
           int64_t T, int64_t P, int64_t r0, int64_t r1, float *col)
{
    const int nd = static_cast<int>(ospatial.size());
    int64_t istride[kMaxSpatialDims];
    const int64_t chan_elems = spatialStrides(input, istride);

    int64_t tap[kMaxSpatialDims];
    int64_t o[kMaxSpatialDims];
    for (int64_t r = r0; r < r1; ++r) {
        const int64_t c = r / T;
        int64_t t = r % T;
        for (int d = nd - 1; d >= 0; --d) {
            tap[d] = t % kspatial[d];
            t /= kspatial[d];
        }
        const float *src = input.data() + c * chan_elems;
        float *dst = col + r * P;
        for (int d = 0; d < nd; ++d)
            o[d] = 0;
        for (int64_t p = 0; p < P; ++p) {
            int64_t off = 0;
            bool inside = true;
            for (int d = 0; d < nd; ++d) {
                const int64_t v =
                    o[d] * spec.stride[d] - spec.padLo[d] + tap[d];
                if (v < 0 || v >= input.dim(1 + d)) {
                    inside = false;
                    break;
                }
                off += v * istride[d];
            }
            dst[p] = inside ? src[off] : 0.0f;
            for (int d = nd - 1; d >= 0; --d) {
                if (++o[d] < ospatial[d])
                    break;
                o[d] = 0;
            }
        }
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

    const std::span<const int64_t> kspatial(
        weight.shape().data() + 2, static_cast<size_t>(nd));
    int64_t oext[kMaxSpatialDims];
    int64_t T = 1;
    int64_t P = 1;
    bool direct = true;
    for (int d = 0; d < nd; ++d) {
        panic_if(spec.stride[d] < 1, "stride must be >= 1");
        const int64_t padded =
            input.dim(1 + d) + spec.padLo[d] + spec.padHi[d];
        panic_if(padded < kspatial[d], "kernel dim ", kspatial[d],
                 " larger than padded input ", padded);
        oext[d] = (padded - kspatial[d]) / spec.stride[d] + 1;
        if (contiguous) {
            panic_if(out.dim(1 + d) != oext[d],
                     "convNdInto: output spatial mismatch in dim ", d);
        } else {
            panic_if(place.step[d] < 1 || place.offset[d] < 0 ||
                         place.offset[d] +
                                 (oext[d] - 1) * place.step[d] >=
                             out.dim(1 + d),
                     "convNdInto: placement leaves the output in dim ",
                     d);
        }
        T *= kspatial[d];
        P *= oext[d];
        direct = direct && kspatial[d] == 1 && spec.stride[d] == 1 &&
                 spec.padLo[d] == 0 && spec.padHi[d] == 0;
    }
    const std::span<const int64_t> ospatial(oext,
                                            static_cast<size_t>(nd));
    const int64_t K = weight.dim(0);
    const int64_t R = input.dim(0) * T;

    const simd::Kernels &kt = simd::kernels();

    // Direct route: a pointwise stride-1 unpadded layer already has
    // its input laid out as the [R x P] right operand — skip im2col.
    PoolHandle<float> colbuf;
    const float *col = input.data();
    if (!direct) {
        colbuf =
            ctx.buffers().acquire<float>(static_cast<size_t>(R * P));
        float *cb = colbuf.data();
        ctx.parallelFor(0, R, [&](int64_t r0, int64_t r1) {
            im2colRows(input, ospatial, kspatial, spec, T, P, r0, r1,
                       cb);
        });
        col = cb;
    }

    // A placed output computes each filter row into its chunk's
    // scratch row (one acquire for every chunk, so a warm pool hits
    // whatever the chunks' timing) and stores it from there.
    int64_t ostr[kMaxSpatialDims];
    const int64_t ochan = spatialStrides(out, ostr);
    PoolHandle<float> rowbuf;
    if (!contiguous)
        rowbuf = ctx.buffers().acquire<float>(static_cast<size_t>(
            std::min<int64_t>(K, ctx.numThreads()) * P));
    const int64_t inner = oext[nd - 1];

    const float *wd = weight.data();
    float *od = out.data();
    // One output row (filter) per gemmRow call: every output element
    // is produced by exactly one thread replaying the serial
    // reduction order, so results are bit-identical for any worker
    // count (and across SIMD levels; see docs/KERNELS.md).
    ctx.parallelForChunks(0, K, [&](int64_t f0, int64_t f1, int chunk) {
        for (int64_t f = f0; f < f1; ++f) {
            float *row =
                contiguous ? od + f * P : rowbuf.data() + chunk * P;
            kt.gemmRow(wd + f * R, static_cast<int>(R), col, P, row,
                       static_cast<int>(P));
            if (epilogue != nullptr)
                kt.biasReluRow(
                    row, static_cast<int>(P),
                    epilogue->bias ? epilogue->bias[f] : 0.0f,
                    epilogue->relu);
            if (contiguous)
                continue;
            float *dst = od + f * ochan;
            const int64_t step = place.step[nd - 1];
            forEachPlacedRow(
                ospatial, place, ostr, [&](int64_t r, int64_t base) {
                    const float *src = row + r * inner;
                    for (int64_t j = 0; j < inner; ++j)
                        dst[base + j * step] = src[j];
                });
        }
    });
}

Tensor
convNd(const Tensor &input, const Tensor &weight, const ConvSpec &spec,
       ConvOp op, ConvStats *stats, const ExecContext &ctx)
{
    const Shape out_shape = convOutShape(input.shape(), weight.shape(),
                                         spec);
    const int spatial = static_cast<int>(input.rank()) - 1;
    const int64_t in_channels = input.dim(0);

    Tensor out(out_shape);

    if (gemmEligible(op, stats) && spatial <= kMaxSpatialDims) {
        convNdInto(input, weight, spec, nullptr, ctx, out);
        return out;
    }

    // Iterate output positions [K, o...] in row-major order; for
    // each, reduce over channels and kernel taps. Output elements are
    // independent, so the flat output range is statically partitioned
    // across the pool; every element is computed by exactly one
    // thread with the serial reduction order, so results are
    // bit-identical for any worker count. Op counters accumulate
    // per chunk and are reduced in chunk order (exact integer sums).
    Shape kspatial(weight.shape().begin() + 2, weight.shape().end());

    ThreadPool &pool = ctx.pool();
    const size_t nc =
        ThreadPool::partition(0, out.size(), pool.numThreads()).size();
    std::vector<ConvStats> local(std::max<size_t>(nc, 1));

    pool.parallelForChunks(0, out.size(), [&](int64_t o_begin,
                                              int64_t o_end,
                                              int chunk) {
        ConvStats *st = stats ? &local[chunk] : nullptr;
        Shape out_idx(spatial + 1);
        Shape in_idx(spatial + 1);
        Shape w_idx(spatial + 2);

        // Decompose the chunk's first flat offset into an index
        // vector, then advance it odometer-style.
        int64_t rem = o_begin;
        for (int d = spatial; d >= 0; --d) {
            out_idx[d] = rem % out_shape[d];
            rem /= out_shape[d];
        }

        for (int64_t o = o_begin; o < o_end; ++o) {
            const int64_t k_filter = out_idx[0];
            double acc = 0.0;
            w_idx[0] = k_filter;
            for (int64_t c = 0; c < in_channels; ++c) {
                in_idx[0] = c;
                w_idx[1] = c;
                forEachIndex(kspatial,
                             [&](std::span<const int64_t> tap) {
                    for (int d = 0; d < spatial; ++d) {
                        in_idx[1 + d] =
                            out_idx[1 + d] * spec.stride[d] -
                            spec.padLo[d] + tap[d];
                        w_idx[2 + d] = tap[d];
                    }
                    const float a = input.atOrZero(in_idx);
                    const float w =
                        weight.at(std::span<const int64_t>(
                            w_idx.data(), w_idx.size()));
                    if (st) {
                        ++st->totalOps;
                        if (a == 0.f)
                            ++st->zeroOps;
                    }
                    acc += (op == ConvOp::MAC)
                               ? double(a) * w
                               : std::abs(double(a) - w);
                });
            }
            out.data()[o] = static_cast<float>(acc);

            for (int d = spatial; d >= 0; --d) {
                if (++out_idx[d] < out_shape[d])
                    break;
                out_idx[d] = 0;
            }
        }
    });

    if (stats) {
        for (const ConvStats &st : local) {
            stats->totalOps += st.totalOps;
            stats->zeroOps += st.zeroOps;
        }
    }

    return out;
}

} // namespace asv::tensor
