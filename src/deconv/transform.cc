#include "deconv/transform.hh"

#include <algorithm>
#include <cstdint>

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
    panic_if(weight.rank() != nd + 2 || nd > tensor::kMaxSpatialDims,
             "weight rank does not match sub-conv dims");

    Shape sk_shape;
    sk_shape.push_back(weight.dim(0));
    sk_shape.push_back(weight.dim(1));
    for (int d = 0; d < nd; ++d)
        sk_shape.push_back(std::max<int64_t>(sub.dims[d].taps, 0));

    Tensor sk(sk_shape);
    if (sub.empty())
        return sk;

    // Offset in one [k...] weight plane of each sub-kernel tap j, in
    // raster order: tap j reads kernel index stride * j + delta.
    int64_t wstride[tensor::kMaxSpatialDims];
    int64_t plane = 1;
    for (int d = nd - 1; d >= 0; --d) {
        wstride[d] = plane;
        plane *= weight.dim(2 + d);
    }
    const int64_t taps = sk.size() / (sk_shape[0] * sk_shape[1]);
    std::vector<int64_t> src(static_cast<size_t>(taps));
    int64_t j[tensor::kMaxSpatialDims] = {};
    for (int64_t t = 0; t < taps; ++t) {
        src[t] = 0;
        for (int d = 0; d < nd; ++d)
            src[t] += (stride[d] * j[d] + sub.dims[d].delta) * wstride[d];
        for (int d = nd - 1; d >= 0 && ++j[d] == sub.dims[d].taps; --d)
            j[d] = 0;
    }
    // One flat strided gather per (filter, channel) plane.
    const float *w = weight.data();
    float *out = sk.data();
    for (int64_t fc = 0; fc < sk_shape[0] * sk_shape[1]; ++fc)
        for (int64_t t = 0; t < taps; ++t)
            *out++ = w[fc * plane + src[t]];
    return sk;
}

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

    std::vector<const SubConv *> computed;
    const TransformedLayer t = transformLayer(layer);
    for (const SubConv &sc : t.subConvs) {
        const Shape counts = sc.outExtents();
        if (std::any_of(counts.begin(), counts.end(),
                        [](int64_t c) { return c == 0; }))
            continue; // phase has no output positions
        tensor::OutputPlacement place;
        place.step = spec.stride;
        for (int d = 0; d < nd; ++d)
            place.offset.push_back(sc.dims[d].phase);
        if (sc.empty()) {
            // Positions exist but no kernel taps overlap: filled
            // with the epilogue of zero.
            tap_free_.push_back({counts, std::move(place)});
            continue;
        }
        Phase ph;
        ph.kernel = extractSubKernel(weight, sc, spec.stride);
        ph.counts = counts;
        ph.place = std::move(place);
        phases_.push_back(std::move(ph));
        computed.push_back(&sc);
    }
    if (phases_.empty())
        return;

    // The union of the phases' input windows: phase tap j of dim d
    // reads ifmap index m + inOffset + j at its position m, so the
    // union starts at the smallest inOffset and its window tap
    // u = j + inOffset - that minimum. Its positions cover the
    // largest phase's counts; each phase stores only its own.
    Shape lo(nd), hi(nd), most(nd);
    for (int d = 0; d < nd; ++d) {
        lo[d] = hi[d] = computed[0]->dims[d].inOffset;
        for (const SubConv *sc : computed) {
            const DimPlan &dp = sc->dims[d];
            lo[d] = std::min(lo[d], dp.inOffset);
            hi[d] = std::max(hi[d], dp.inOffset + dp.taps);
            most[d] = std::max(most[d], dp.count);
        }
        window_.push_back(hi[d] - lo[d]);
        // The window's shift is a leading pad (lo < 0) or crop
        // (lo > 0, a negative pad); the trailing pad or crop sizes
        // the operand to exactly `most` positions.
        operand_.stride.push_back(1);
        operand_.padLo.push_back(-lo[d]);
        operand_.padHi.push_back(most[d] - 1 + window_[d] -
                                 input_shape[1 + d] + lo[d]);
    }
    const int64_t window_taps = tensor::numElems(window_);
    panic_if(input_shape[0] * window_taps > UINT32_MAX,
             "DeconvPlan: operand rows overflow the row table");
    for (size_t i = 0; i < phases_.size(); ++i) {
        const SubConv &sc = *computed[i];
        // Column c * T + j of the sub-kernel reads operand row
        // c * Tu + u(j): the phase's window is a sub-window of the
        // union in the same raster order, so its fused chain is
        // unchanged.
        const int64_t taps = tensor::numElems(sc.kernelExtents());
        std::vector<uint32_t> &rows = phases_[i].rows;
        for (int64_t c = 0; c < input_shape[0]; ++c) {
            int64_t j[tensor::kMaxSpatialDims] = {};
            for (int64_t tap = 0; tap < taps; ++tap) {
                int64_t u = 0;
                for (int d = 0; d < nd; ++d)
                    u = u * window_[d] + j[d] + sc.dims[d].inOffset -
                        lo[d];
                rows.push_back(
                    static_cast<uint32_t>(c * window_taps + u));
                for (int d = nd - 1;
                     d >= 0 && ++j[d] == sc.dims[d].taps; --d)
                    j[d] = 0;
            }
        }
    }
    views_.resize(phases_.size());
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
    if (!phases_.empty()) {
        for (size_t i = 0; i < phases_.size(); ++i) {
            const Phase &ph = phases_[i];
            views_[i] = {&ph.kernel, ph.rows, ph.counts, &ph.place};
        }
        tensor::convNdInto(input, window_, operand_, views_, epilogue,
                           ctx, out);
    }
    if (!tap_free_.empty())
        fillTapFree(epilogue, out, ctx);
}

void
DeconvPlan::fillTapFree(const tensor::ConvEpilogue *epilogue, Tensor &out,
                        const ExecContext &ctx) const
{
    int64_t ostr[tensor::kMaxSpatialDims];
    const int64_t ochan = tensor::spatialStrides(out, ostr);
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
            for (const TapFree &tf : tap_free_) {
                const int64_t inner = tf.counts.back();
                const int64_t step = tf.place.step.back();
                tensor::forEachPlacedRow(
                    tf.counts, tf.place, ostr,
                    [&](int64_t, int64_t base) {
                        for (int64_t j = 0; j < inner; ++j)
                            dst[base + j * step] = v;
                    });
            }
        }
    });
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
