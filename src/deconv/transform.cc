#include "deconv/transform.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/math_util.hh"

namespace asv::deconv
{

namespace
{

/** Floor division that is correct for negative numerators. */
int64_t
floorDiv(int64_t a, int64_t b)
{
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

/** Positive modulo. */
int64_t
posMod(int64_t a, int64_t b)
{
    const int64_t m = a % b;
    return m < 0 ? m + b : m;
}

} // namespace

Shape
SubConv::kernelExtents() const
{
    Shape k(dims.size());
    for (size_t d = 0; d < dims.size(); ++d)
        k[d] = dims[d].taps;
    return k;
}

Shape
SubConv::outExtents() const
{
    Shape o(dims.size());
    for (size_t d = 0; d < dims.size(); ++d)
        o[d] = dims[d].count;
    return o;
}

bool
SubConv::empty() const
{
    for (const auto &dp : dims)
        if (dp.taps == 0 || dp.count == 0)
            return true;
    return false;
}

int64_t
TransformedLayer::totalMacs() const
{
    int64_t macs = 0;
    for (size_t k = 0; k < subConvs.size(); ++k)
        macs += subConvMacs(k);
    return macs;
}

int64_t
TransformedLayer::subConvMacs(size_t k) const
{
    panic_if(k >= subConvs.size(), "sub-conv index out of range");
    const SubConv &sc = subConvs[k];
    if (sc.empty())
        return 0;
    return batch * inChannels * outChannels *
           tensor::numElems(sc.outExtents()) *
           tensor::numElems(sc.kernelExtents());
}

std::vector<DimPlan>
planDimension(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    panic_if(in < 1 || kernel < 1 || stride < 1 || pad < 0,
             "bad deconv dimension parameters");
    const int64_t out = deconvOutSize(in, kernel, stride, pad);
    panic_if(out < 1, "deconv output collapsed");
    const int64_t q = kernel - 1 - pad;

    std::vector<DimPlan> plans;
    for (int64_t r = 0; r < stride; ++r) {
        DimPlan p;
        p.phase = r;
        p.delta = posMod(q - r, stride);
        p.taps = p.delta <= kernel - 1
                     ? (kernel - 1 - p.delta) / stride + 1
                     : 0;
        p.inOffset = -floorDiv(q - r, stride);
        p.count = r < out ? ceilDiv(out - r, stride) : 0;
        plans.push_back(p);
    }
    return plans;
}

TransformedLayer
transformLayer(const dnn::LayerDesc &layer)
{
    TransformedLayer t;
    t.name = layer.name;
    t.inChannels = layer.inChannels;
    t.outChannels = layer.outChannels;
    t.ifmapSpatial = layer.inSpatial;
    t.batch = layer.batch;

    if (layer.kind == dnn::LayerKind::Conv) {
        // Degenerate single-sub-conv form: the scheduler sees the
        // layer's own kernel/output extents and no ILAR.
        SubConv sc;
        const Shape out = layer.outSpatial();
        for (size_t d = 0; d < layer.inSpatial.size(); ++d) {
            DimPlan p;
            p.phase = 0;
            p.delta = 0;
            p.taps = layer.kernel[d];
            p.inOffset = -layer.pad[d];
            p.count = out[d];
            sc.dims.push_back(p);
        }
        t.subConvs.push_back(std::move(sc));
        t.fromDeconv = false;
        return t;
    }

    panic_if(layer.kind != dnn::LayerKind::Deconv,
             "transformLayer: layer ", layer.name,
             " is neither conv nor deconv");
    t.fromDeconv = true;

    const int nd = layer.spatialDims();
    std::vector<std::vector<DimPlan>> per_dim(nd);
    for (int d = 0; d < nd; ++d) {
        per_dim[d] = planDimension(layer.inSpatial[d], layer.kernel[d],
                                   layer.stride[d], layer.pad[d]);
    }

    // Cartesian product of per-dimension phases -> s^N sub-convs.
    std::vector<size_t> idx(nd, 0);
    while (true) {
        SubConv sc;
        for (int d = 0; d < nd; ++d)
            sc.dims.push_back(per_dim[d][idx[d]]);
        t.subConvs.push_back(std::move(sc));

        int d = nd - 1;
        while (d >= 0) {
            if (++idx[d] < per_dim[d].size())
                break;
            idx[d] = 0;
            --d;
        }
        if (d < 0)
            break;
    }
    return t;
}

Tensor
extractSubKernel(const Tensor &weight, const SubConv &sub,
                 const Shape &stride)
{
    const int nd = static_cast<int>(sub.dims.size());
    panic_if(weight.rank() != nd + 2,
             "weight rank does not match sub-conv dims");

    Shape sk_shape;
    sk_shape.push_back(weight.dim(0));
    sk_shape.push_back(weight.dim(1));
    for (int d = 0; d < nd; ++d)
        sk_shape.push_back(std::max<int64_t>(sub.dims[d].taps, 0));

    Tensor sk(sk_shape);
    if (sub.empty())
        return sk;

    Shape tap_shape(sk_shape.begin() + 2, sk_shape.end());
    Shape w_idx(nd + 2), s_idx(nd + 2);
    for (int64_t f = 0; f < weight.dim(0); ++f) {
        for (int64_t c = 0; c < weight.dim(1); ++c) {
            w_idx[0] = s_idx[0] = f;
            w_idx[1] = s_idx[1] = c;
            tensor::forEachIndex(
                tap_shape, [&](std::span<const int64_t> j) {
                    for (int d = 0; d < nd; ++d) {
                        s_idx[2 + d] = j[d];
                        w_idx[2 + d] =
                            stride[d] * j[d] + sub.dims[d].delta;
                    }
                    sk.at(std::span<const int64_t>(s_idx.data(),
                                                   s_idx.size())) =
                        weight.at(std::span<const int64_t>(
                            w_idx.data(), w_idx.size()));
                });
        }
    }
    return sk;
}

namespace
{

/** Fill one tap-free phase with the epilogue of zero, per filter:
 *  relu(0 + bias), the ReLU with the kernels' `v > 0 ? v : +0`
 *  semantics; +0 without an epilogue. */
void
fillTapFree(const Shape &counts, const tensor::OutputPlacement &place,
            const tensor::ConvEpilogue *epilogue, Tensor &out,
            const ExecContext &ctx)
{
    const int nd = static_cast<int>(counts.size());
    int64_t ostr[tensor::kMaxSpatialDims];
    const int64_t ochan = tensor::spatialStrides(out, ostr);
    const int64_t inner = counts[nd - 1];
    const int64_t step = place.step[nd - 1];
    ctx.parallelFor(0, out.dim(0), [&](int64_t f0, int64_t f1) {
        for (int64_t f = f0; f < f1; ++f) {
            float v = 0.0f;
            if (epilogue != nullptr) {
                if (epilogue->bias != nullptr)
                    v += epilogue->bias[f];
                if (epilogue->relu)
                    v = v > 0.0f ? v : 0.0f;
            }
            float *dst = out.data() + f * ochan;
            tensor::forEachPlacedRow(
                counts, place, ostr, [&](int64_t, int64_t base) {
                    for (int64_t j = 0; j < inner; ++j)
                        dst[base + j * step] = v;
                });
        }
    });
}

} // namespace

DeconvPlan::DeconvPlan(const Tensor &weight, const Shape &input_shape,
                       const tensor::DeconvSpec &spec)
    : spec_(spec), in_shape_(input_shape),
      out_shape_(tensor::deconvOutShape(input_shape, weight.shape(),
                                        spec))
{
    const int nd = static_cast<int>(input_shape.size()) - 1;
    panic_if(nd < 1 || nd > tensor::kMaxSpatialDims,
             "DeconvPlan: spatial rank ", nd, " unsupported (1-",
             tensor::kMaxSpatialDims, ")");

    dnn::LayerDesc layer;
    layer.name = "deconv";
    layer.kind = dnn::LayerKind::Deconv;
    layer.inChannels = input_shape[0];
    layer.outChannels = weight.dim(0);
    layer.inSpatial.assign(input_shape.begin() + 1, input_shape.end());
    layer.kernel.assign(weight.shape().begin() + 2,
                        weight.shape().end());
    layer.stride = spec.stride;
    layer.pad = spec.pad;

    for (const SubConv &sc : transformLayer(layer).subConvs) {
        Phase ph;
        ph.counts = sc.outExtents();
        if (std::any_of(ph.counts.begin(), ph.counts.end(),
                        [](int64_t c) { return c == 0; }))
            continue; // phase has no output positions
        ph.place.step = spec.stride;
        ph.place.offset.resize(nd);
        for (int d = 0; d < nd; ++d)
            ph.place.offset[d] = sc.dims[d].phase;
        if (sc.empty()) {
            // Positions exist but no kernel taps overlap: filled
            // with the epilogue of zero.
            ph.tapFree = true;
            phases_.push_back(std::move(ph));
            continue;
        }
        ph.kernel = extractSubKernel(weight, sc, spec.stride);
        // The ifmap shift m0 is a leading pad (m0 < 0) or crop
        // (m0 > 0, a negative pad); the trailing pad or crop sizes
        // the output to exactly `count` positions.
        ph.conv.stride.assign(nd, 1);
        ph.conv.padLo.resize(nd);
        ph.conv.padHi.resize(nd);
        for (int d = 0; d < nd; ++d) {
            const DimPlan &dp = sc.dims[d];
            ph.conv.padLo[d] = -dp.inOffset;
            ph.conv.padHi[d] = dp.count - 1 + dp.taps -
                               input_shape[1 + d] - ph.conv.padLo[d];
        }
        phases_.push_back(std::move(ph));
    }
}

void
DeconvPlan::run(const Tensor &input,
                const tensor::ConvEpilogue *epilogue,
                const ExecContext &ctx, Tensor &out)
{
    panic_if(input.shape() != in_shape_, "DeconvPlan: input shape ",
             tensor::toString(input.shape()), " != planned ",
             tensor::toString(in_shape_));
    panic_if(out.shape() != out_shape_, "DeconvPlan: output shape ",
             tensor::toString(out.shape()), " != planned ",
             tensor::toString(out_shape_));
    for (const Phase &ph : phases_) {
        if (ph.tapFree)
            fillTapFree(ph.counts, ph.place, epilogue, out, ctx);
        else
            tensor::convNdInto(input, ph.kernel, ph.conv, epilogue, ctx,
                               out, ph.place);
    }
}

Tensor
transformedDeconv(const Tensor &input, const Tensor &weight,
                  const tensor::DeconvSpec &spec, const ExecContext &ctx,
                  const tensor::ConvEpilogue *epilogue)
{
    DeconvPlan plan(weight, input.shape(), spec);
    Tensor out(plan.outputShape());
    plan.run(input, epilogue, ctx, out);
    return out;
}

} // namespace asv::deconv
