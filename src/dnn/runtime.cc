#include "dnn/runtime.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "deconv/transform.hh"
#include "tensor/deconv.hh"

namespace asv::dnn
{

namespace
{

/** Stack-array odometer ceiling (spatial rank; the IR allows 1-3). */
constexpr int kMaxDims = 4;

/** Row-major strides of the spatial dims of a [C, spatial...] tensor;
 *  returns the elements per channel. */
int64_t
spatialStrides(const Tensor &t, int64_t *stride)
{
    const int nd = static_cast<int>(t.rank()) - 1;
    int64_t s = 1;
    for (int d = nd - 1; d >= 0; --d) {
        stride[d] = s;
        s *= t.dim(1 + d);
    }
    return s;
}

/** The dispatched kernels' ReLU semantics: v > 0 ? v : +0. */
float
reluRef(float v)
{
    return v > 0.0f ? v : 0.0f;
}

/** Crop the leading/trailing borders of @p in into @p out (the crop
 *  extents are implied by the two shapes plus @p crop_lo). Channels
 *  write disjoint slices; innermost runs are contiguous copies. */
void
runCrop(const Tensor &in, const Shape &crop_lo, Tensor &out,
        const ExecContext &ctx)
{
    const int nd = static_cast<int>(in.rank()) - 1;
    int64_t sstr[kMaxDims];
    int64_t dstr[kMaxDims];
    const int64_t schan = spatialStrides(in, sstr);
    const int64_t dchan = spatialStrides(out, dstr);
    const int64_t inner = out.dim(nd);
    ctx.parallelFor(0, in.dim(0), [&](int64_t c0, int64_t c1) {
        int64_t o[kMaxDims];
        for (int64_t c = c0; c < c1; ++c) {
            const float *sbase = in.data() + c * schan;
            float *dbase = out.data() + c * dchan;
            for (int d = 0; d + 1 < nd; ++d)
                o[d] = 0;
            while (true) {
                int64_t soff = crop_lo[nd - 1];
                int64_t doff = 0;
                for (int d = 0; d + 1 < nd; ++d) {
                    soff += (o[d] + crop_lo[d]) * sstr[d];
                    doff += o[d] * dstr[d];
                }
                std::copy_n(sbase + soff, inner, dbase + doff);
                int d = nd - 2;
                while (d >= 0) {
                    if (++o[d] < out.dim(1 + d))
                        break;
                    o[d] = 0;
                    --d;
                }
                if (d < 0)
                    break;
            }
        }
    });
}

/** Interleave @p sub_out into @p out at positions
 *  j * stride + phase per spatial dim. Filters write disjoint
 *  slices. */
void
runGather(const Tensor &sub_out, const Shape &stride,
          const Shape &phase, Tensor &out, const ExecContext &ctx)
{
    const int nd = static_cast<int>(out.rank()) - 1;
    int64_t sstr[kMaxDims];
    int64_t ostr[kMaxDims];
    const int64_t schan = spatialStrides(sub_out, sstr);
    const int64_t ochan = spatialStrides(out, ostr);
    const int64_t inner = sub_out.dim(nd);
    const int64_t inner_step = stride[nd - 1];
    ctx.parallelFor(0, sub_out.dim(0), [&](int64_t f0, int64_t f1) {
        int64_t o[kMaxDims];
        for (int64_t f = f0; f < f1; ++f) {
            const float *sbase = sub_out.data() + f * schan;
            float *obase = out.data() + f * ochan;
            for (int d = 0; d + 1 < nd; ++d)
                o[d] = 0;
            while (true) {
                int64_t soff = 0;
                int64_t ooff = phase[nd - 1];
                for (int d = 0; d + 1 < nd; ++d) {
                    soff += o[d] * sstr[d];
                    ooff += (o[d] * stride[d] + phase[d]) * ostr[d];
                }
                const float *s = sbase + soff;
                float *dst = obase + ooff;
                for (int64_t j = 0; j < inner; ++j)
                    dst[j * inner_step] = s[j];
                int d = nd - 2;
                while (d >= 0) {
                    if (++o[d] < sub_out.dim(1 + d))
                        break;
                    o[d] = 0;
                    --d;
                }
                if (d < 0)
                    break;
            }
        }
    });
}

/** Fill one empty phase (no kernel taps) with the epilogue of zero:
 *  relu ? max-like(bias) : bias, per filter. */
void
gatherFill(const Shape &counts, const Shape &stride,
           const Shape &phase, const std::vector<float> &bias,
           bool relu, Tensor &out, const ExecContext &ctx)
{
    const int nd = static_cast<int>(out.rank()) - 1;
    int64_t ostr[kMaxDims];
    const int64_t ochan = spatialStrides(out, ostr);
    const int64_t inner = counts[nd - 1];
    const int64_t inner_step = stride[nd - 1];
    ctx.parallelFor(0, out.dim(0), [&](int64_t f0, int64_t f1) {
        int64_t o[kMaxDims];
        for (int64_t f = f0; f < f1; ++f) {
            float v = bias.empty() ? 0.0f : bias[f];
            if (relu)
                v = reluRef(v);
            float *obase = out.data() + f * ochan;
            for (int d = 0; d + 1 < nd; ++d)
                o[d] = 0;
            while (true) {
                int64_t ooff = phase[nd - 1];
                for (int d = 0; d + 1 < nd; ++d)
                    ooff += (o[d] * stride[d] + phase[d]) * ostr[d];
                float *dst = obase + ooff;
                for (int64_t j = 0; j < inner; ++j)
                    dst[j * inner_step] = v;
                int d = nd - 2;
                while (d >= 0) {
                    if (++o[d] < counts[d])
                        break;
                    o[d] = 0;
                    --d;
                }
                if (d < 0)
                    break;
            }
        }
    });
}

/** Max pooling (no padding), serial reduction order per output. */
void
runPool(const Tensor &in, const Shape &kernel, const Shape &stride,
        Tensor &out, const ExecContext &ctx)
{
    const int nd = static_cast<int>(in.rank()) - 1;
    int64_t istr[kMaxDims];
    const int64_t ichan = spatialStrides(in, istr);
    int64_t ochan = 1;
    for (int d = 0; d < nd; ++d)
        ochan *= out.dim(1 + d);
    ctx.parallelFor(0, in.dim(0), [&](int64_t c0, int64_t c1) {
        int64_t o[kMaxDims];
        int64_t t[kMaxDims];
        for (int64_t c = c0; c < c1; ++c) {
            const float *src = in.data() + c * ichan;
            float *dst = out.data() + c * ochan;
            for (int d = 0; d < nd; ++d)
                o[d] = 0;
            for (int64_t p = 0; p < ochan; ++p) {
                float m = -std::numeric_limits<float>::infinity();
                for (int d = 0; d < nd; ++d)
                    t[d] = 0;
                while (true) {
                    int64_t off = 0;
                    for (int d = 0; d < nd; ++d)
                        off += (o[d] * stride[d] + t[d]) * istr[d];
                    const float v = src[off];
                    m = v > m ? v : m;
                    int d = nd - 1;
                    while (d >= 0) {
                        if (++t[d] < kernel[d])
                            break;
                        t[d] = 0;
                        --d;
                    }
                    if (d < 0)
                        break;
                }
                dst[p] = m;
                for (int d = nd - 1; d >= 0; --d) {
                    if (++o[d] < out.dim(1 + d))
                        break;
                    o[d] = 0;
                }
            }
        }
    });
}

/** Element-wise ReLU with the kernels' NaN/-0 semantics. */
void
runRelu(const Tensor &in, Tensor &out, const ExecContext &ctx)
{
    const float *s = in.data();
    float *d = out.data();
    ctx.parallelFor(0, in.size(), [&](int64_t i0, int64_t i1) {
        for (int64_t i = i0; i < i1; ++i)
            d[i] = reluRef(s[i]);
    });
}

} // namespace

NetworkRuntime::NetworkRuntime(const Network &net, uint64_t seed)
{
    const auto &layers = net.layers();
    panic_if(layers.empty(), "NetworkRuntime: empty network ",
             net.name());

    const LayerDesc &first = layers.front();
    input_shape_.push_back(first.inChannels);
    for (int64_t s : first.inSpatial)
        input_shape_.push_back(s);

    Rng rng(seed);
    Shape cur = input_shape_;
    for (size_t i = 0; i < layers.size(); ++i) {
        const LayerDesc &l = layers[i];
        panic_if(l.batch != 1, "NetworkRuntime: layer ", l.name,
                 " has batch ", l.batch, " (only 1 is executable)");
        const int nd = static_cast<int>(cur.size()) - 1;
        panic_if(nd < 1 || nd >= kMaxDims,
                 "NetworkRuntime: unsupported spatial rank ", nd);
        bool chains = l.inChannels == cur[0] &&
                      l.spatialDims() == nd;
        for (int d = 0; chains && d < nd; ++d)
            chains = l.inSpatial[d] == cur[1 + d];
        panic_if(!chains, "NetworkRuntime: layer ", l.name,
                 " input does not chain from the previous layer "
                 "(setChannels/concatChannels IRs are analytic-only)");

        Step st;
        st.kind = l.kind;
        switch (l.kind) {
          case LayerKind::Conv:
          case LayerKind::Deconv: {
            Shape wshape;
            wshape.push_back(l.outChannels);
            wshape.push_back(l.inChannels);
            for (int64_t k : l.kernel)
                wshape.push_back(k);
            st.weight = Tensor(wshape);
            // Fan-in-scaled uniform init keeps activations O(1) so
            // equivalence tolerances stay meaningful in deep nets.
            const double fan_in = static_cast<double>(
                l.inChannels * tensor::numElems(l.kernel));
            const double a = std::sqrt(3.0 / std::max(fan_in, 1.0));
            for (int64_t j = 0; j < st.weight.size(); ++j)
                st.weight.data()[j] =
                    static_cast<float>(rng.uniformReal(-a, a));
            st.bias.resize(static_cast<size_t>(l.outChannels));
            for (float &b : st.bias)
                b = static_cast<float>(rng.uniformReal(-0.1, 0.1));
            // Fuse a directly following Activation into the epilogue.
            if (i + 1 < layers.size() &&
                layers[i + 1].kind == LayerKind::Activation) {
                st.relu = true;
                ++i;
            }
            if (l.kind == LayerKind::Conv) {
                st.conv.stride = l.stride;
                st.conv.padLo = l.pad;
                st.conv.padHi = l.pad;
            } else {
                st.stride = l.stride;
                st.pad = l.pad;
                const deconv::TransformedLayer plan =
                    deconv::transformLayer(l);
                for (const deconv::SubConv &sc : plan.subConvs) {
                    Sub sub;
                    sub.counts = sc.outExtents();
                    if (std::any_of(sub.counts.begin(),
                                    sub.counts.end(),
                                    [](int64_t c) { return c == 0; }))
                        continue; // phase has no output positions
                    sub.phase.resize(nd);
                    for (int d = 0; d < nd; ++d)
                        sub.phase[d] = sc.dims[d].phase;
                    if (sc.empty()) {
                        // Positions exist but no kernel taps overlap:
                        // filled with the epilogue of zero.
                        sub.emptyPhase = true;
                        st.anyEmptySub = true;
                        st.subs.push_back(std::move(sub));
                        continue;
                    }
                    sub.kernel = deconv::extractSubKernel(
                        st.weight, sc, l.stride);
                    // Map the ifmap shift m0 to a leading crop
                    // (m0 > 0) or leading padding (m0 < 0); trailing
                    // pad/crop sizes the output to `count` positions
                    // (same arithmetic as transformedDeconv).
                    sub.cropLo.resize(nd);
                    Shape crop_hi(nd);
                    sub.spec.stride.assign(nd, 1);
                    sub.spec.padLo.resize(nd);
                    sub.spec.padHi.resize(nd);
                    for (int d = 0; d < nd; ++d) {
                        const deconv::DimPlan &dp = sc.dims[d];
                        sub.cropLo[d] =
                            std::max<int64_t>(0, dp.inOffset);
                        sub.spec.padLo[d] =
                            std::max<int64_t>(0, -dp.inOffset);
                        const int64_t len =
                            cur[1 + d] - sub.cropLo[d];
                        panic_if(len < 1,
                                 "sub-conv crop removed entire input");
                        const int64_t ph = dp.count - 1 + dp.taps -
                                           sub.spec.padLo[d] - len;
                        sub.spec.padHi[d] =
                            std::max<int64_t>(0, ph);
                        crop_hi[d] = std::max<int64_t>(0, -ph);
                        if (sub.cropLo[d] > 0 || crop_hi[d] > 0)
                            sub.needCrop = true;
                    }
                    if (sub.needCrop) {
                        Shape cs;
                        cs.push_back(cur[0]);
                        for (int d = 0; d < nd; ++d)
                            cs.push_back(cur[1 + d] - sub.cropLo[d] -
                                         crop_hi[d]);
                        sub.cropped = Tensor(cs);
                    }
                    Shape os;
                    os.push_back(l.outChannels);
                    for (int64_t c : sub.counts)
                        os.push_back(c);
                    sub.out = Tensor(os);
                    st.subs.push_back(std::move(sub));
                }
            }
            break;
          }
          case LayerKind::Activation:
          case LayerKind::Pooling:
            if (l.kind == LayerKind::Pooling) {
                st.poolKernel = l.kernel;
                st.poolStride = l.stride;
            }
            break;
          default:
            panic("NetworkRuntime: layer ", l.name, " kind ",
                  toString(l.kind), " is analytic-only");
        }

        Shape out_shape;
        out_shape.push_back(l.outChannels);
        for (int64_t s : l.outSpatial())
            out_shape.push_back(s);
        st.out = Tensor(out_shape);
        cur = out_shape;
        steps_.push_back(std::move(st));
    }
    output_shape_ = cur;
}

void
NetworkRuntime::runDeconv(Step &st, const Tensor &in,
                          const ExecContext &ctx)
{
    for (Sub &sub : st.subs) {
        if (sub.emptyPhase) {
            gatherFill(sub.counts, st.stride, sub.phase, st.bias,
                       st.relu, st.out, ctx);
            continue;
        }
        const Tensor *src = &in;
        if (sub.needCrop) {
            runCrop(in, sub.cropLo, sub.cropped, ctx);
            src = &sub.cropped;
        }
        const tensor::ConvEpilogue epi{st.bias.data(), st.relu};
        tensor::convNdInto(*src, sub.kernel, sub.spec, &epi, ctx,
                           sub.out);
        runGather(sub.out, st.stride, sub.phase, st.out, ctx);
    }
}

const Tensor &
NetworkRuntime::forward(const Tensor &input, const ExecContext &ctx)
{
    panic_if(input.shape() != input_shape_,
             "NetworkRuntime::forward: input shape ",
             tensor::toString(input.shape()), " != expected ",
             tensor::toString(input_shape_));
    const Tensor *cur = &input;
    for (Step &st : steps_) {
        switch (st.kind) {
          case LayerKind::Conv: {
            const tensor::ConvEpilogue epi{st.bias.data(), st.relu};
            tensor::convNdInto(*cur, st.weight, st.conv, &epi, ctx,
                               st.out);
            break;
          }
          case LayerKind::Deconv:
            runDeconv(st, *cur, ctx);
            break;
          case LayerKind::Activation:
            runRelu(*cur, st.out, ctx);
            break;
          case LayerKind::Pooling:
            runPool(*cur, st.poolKernel, st.poolStride, st.out, ctx);
            break;
          default:
            panic("NetworkRuntime: unreachable step kind");
        }
        cur = &st.out;
    }
    return *cur;
}

Tensor
NetworkRuntime::referenceForward(const Tensor &input,
                                 const ExecContext &ctx) const
{
    Tensor cur = input;
    for (const Step &st : steps_) {
        switch (st.kind) {
          case LayerKind::Conv:
          case LayerKind::Deconv: {
            // Non-null stats force the double-accumulation reference
            // convolution route; Deconv uses the zero-insertion
            // reference — an entirely independent path from the
            // transformed GEMM one forward() takes.
            tensor::ConvStats stats;
            Tensor o;
            if (st.kind == LayerKind::Conv) {
                o = tensor::convNd(cur, st.weight, st.conv,
                                   tensor::ConvOp::MAC, &stats, ctx);
            } else {
                tensor::DeconvSpec dspec;
                dspec.stride = st.stride;
                dspec.pad = st.pad;
                o = tensor::deconvNd(cur, st.weight, dspec, &stats, ctx);
            }
            const int64_t K = o.dim(0);
            const int64_t P = o.size() / std::max<int64_t>(K, 1);
            for (int64_t f = 0; f < K; ++f) {
                float *row = o.data() + f * P;
                for (int64_t j = 0; j < P; ++j) {
                    const float v = row[j] + st.bias[f];
                    row[j] = st.relu ? reluRef(v) : v;
                }
            }
            cur = std::move(o);
            break;
          }
          case LayerKind::Activation: {
            Tensor o(cur.shape());
            runRelu(cur, o, ctx);
            cur = std::move(o);
            break;
          }
          case LayerKind::Pooling: {
            Shape os = cur.shape();
            for (size_t d = 1; d < os.size(); ++d)
                os[d] = (os[d] - st.poolKernel[d - 1]) /
                            st.poolStride[d - 1] +
                        1;
            Tensor o(os);
            runPool(cur, st.poolKernel, st.poolStride, o, ctx);
            cur = std::move(o);
            break;
          }
          default:
            panic("NetworkRuntime: unreachable step kind");
        }
    }
    return cur;
}

} // namespace asv::dnn
