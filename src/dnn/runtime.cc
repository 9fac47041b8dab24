#include "dnn/runtime.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "tensor/deconv.hh"

namespace asv::dnn
{

namespace
{

using tensor::kMaxSpatialDims;

/** The dispatched kernels' ReLU semantics: v > 0 ? v : +0. */
float
reluRef(float v)
{
    return v > 0.0f ? v : 0.0f;
}

/** Max pooling (no padding), serial reduction order per output. */
void
runPool(const Tensor &in, const Shape &kernel, const Shape &stride,
        Tensor &out, const ExecContext &ctx)
{
    const int nd = static_cast<int>(in.rank()) - 1;
    int64_t istr[kMaxSpatialDims];
    const int64_t ichan = tensor::spatialStrides(in, istr);
    int64_t oext[kMaxSpatialDims];
    int64_t ochan = 1;
    for (int d = 0; d < nd; ++d) {
        oext[d] = out.dim(1 + d);
        ochan *= oext[d];
    }
    ctx.parallelFor(0, in.dim(0), [&](int64_t c0, int64_t c1) {
        int64_t o[kMaxSpatialDims];
        int64_t t[kMaxSpatialDims];
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
                    if (++o[d] < oext[d])
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
        panic_if(nd < 1 || nd >= kMaxSpatialDims,
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
                st.deconv.emplace(st.weight, cur,
                                  tensor::DeconvSpec{l.stride, l.pad});
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
          case LayerKind::Conv:
          case LayerKind::Deconv: {
            const tensor::ConvEpilogue epi{st.bias.data(), st.relu};
            if (st.deconv)
                st.deconv->run(*cur, &epi, ctx, st.out);
            else
                tensor::convNdInto(*cur, st.weight, st.conv, &epi, ctx,
                                   st.out);
            break;
          }
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
            // The reference convolution, over the zero-inserted
            // ifmap for a Deconv step: an entirely independent path
            // from the transformed GEMM one forward() takes.
            Tensor o;
            if (st.kind == LayerKind::Conv) {
                o = tensor::referenceConv(cur, st.weight, st.conv, ctx);
            } else {
                const Shape kernel(st.weight.shape().begin() + 2,
                                   st.weight.shape().end());
                o = tensor::referenceConv(
                    tensor::upsampleZeroInsert(cur, st.deconv->spec(),
                                               kernel),
                    st.weight,
                    tensor::ConvSpec::uniform(cur.rank() - 1, 1, 0),
                    ctx);
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
