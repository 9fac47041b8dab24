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

Tensor
transformedDeconvImpl(const Tensor &input, const Tensor &weight,
                      const tensor::DeconvSpec &spec,
                      tensor::ConvStats *stats,
                      const tensor::ConvEpilogue *epi,
                      const ExecContext &ctx)
{
    const int nd = input.rank() - 1;

    // Build a LayerDesc-equivalent plan directly.
    dnn::LayerDesc layer;
    layer.name = "functional";
    layer.kind = dnn::LayerKind::Deconv;
    layer.inChannels = input.dim(0);
    layer.outChannels = weight.dim(0);
    layer.inSpatial.assign(input.shape().begin() + 1,
                           input.shape().end());
    layer.kernel.assign(weight.shape().begin() + 2,
                        weight.shape().end());
    layer.stride = spec.stride;
    layer.pad = spec.pad;
    const TransformedLayer plan = transformLayer(layer);

    const Shape out_shape = tensor::deconvOutShape(
        input.shape(), weight.shape(), spec);
    Tensor out(out_shape);

    for (const SubConv &sc : plan.subConvs) {
        if (sc.empty())
            continue;

        const Tensor sk = extractSubKernel(weight, sc, spec.stride);

        // Run the sub-convolution as a dense stride-1 convNd. The
        // ifmap shift m0 maps to leading padding (m0 < 0) or a
        // leading crop (m0 > 0); trailing pad/crop sizes the output
        // to exactly `count` positions.
        Shape crop_lo(nd), pad_lo(nd), pad_hi(nd), crop_hi(nd);
        for (int d = 0; d < nd; ++d) {
            const DimPlan &dp = sc.dims[d];
            crop_lo[d] = std::max<int64_t>(0, dp.inOffset);
            pad_lo[d] = std::max<int64_t>(0, -dp.inOffset);
            const int64_t len = input.dim(1 + d) - crop_lo[d];
            panic_if(len < 1, "sub-conv crop removed entire input");
            const int64_t ph =
                dp.count - 1 + dp.taps - pad_lo[d] - len;
            pad_hi[d] = std::max<int64_t>(0, ph);
            crop_hi[d] = std::max<int64_t>(0, -ph);
        }

        // Crop the input if needed.
        const Tensor *eff_input = &input;
        Tensor cropped;
        bool need_crop = false;
        for (int d = 0; d < nd; ++d)
            if (crop_lo[d] > 0 || crop_hi[d] > 0)
                need_crop = true;
        if (need_crop) {
            Shape cs;
            cs.push_back(input.dim(0));
            for (int d = 0; d < nd; ++d)
                cs.push_back(input.dim(1 + d) - crop_lo[d] -
                             crop_hi[d]);
            cropped = Tensor(cs);
            // Channels write disjoint slices: fan the copy out.
            const Shape spatial(cs.begin() + 1, cs.end());
            ctx.parallelFor(0, cs[0], [&](int64_t c0, int64_t c1) {
                Shape src_idx(nd + 1), dst_idx(nd + 1);
                for (int64_t c = c0; c < c1; ++c) {
                    src_idx[0] = dst_idx[0] = c;
                    tensor::forEachIndex(
                        spatial, [&](std::span<const int64_t> j) {
                            for (int d = 0; d < nd; ++d) {
                                dst_idx[1 + d] = j[d];
                                src_idx[1 + d] =
                                    j[d] + crop_lo[d];
                            }
                            cropped.at(std::span<const int64_t>(
                                dst_idx.data(), dst_idx.size())) =
                                input.at(std::span<const int64_t>(
                                    src_idx.data(),
                                    src_idx.size()));
                        });
                }
            });
            eff_input = &cropped;
        }

        tensor::ConvSpec cspec;
        cspec.stride.assign(nd, 1);
        cspec.padLo = pad_lo;
        cspec.padHi = pad_hi;
        // Sub-convolutions write disjoint ofmap phases, so fusing
        // the bias+ReLU epilogue into each sub-conv is exactly the
        // epilogue on the gathered ofmap.
        const Tensor sub_out =
            epi != nullptr
                ? convNd(*eff_input, sk, cspec, *epi, stats, ctx)
                : convNd(*eff_input, sk, cspec, tensor::ConvOp::MAC,
                         stats, ctx);

        // Gather: interleave into the ofmap at stride positions.
        // Filters write disjoint ofmap slices: fan the scatter out.
        const Shape so_spatial(sub_out.shape().begin() + 1,
                               sub_out.shape().end());
        ctx.parallelFor(
            0, sub_out.dim(0), [&](int64_t f0, int64_t f1) {
                Shape so_idx(nd + 1), out_idx(nd + 1);
                for (int64_t f = f0; f < f1; ++f) {
                    so_idx[0] = out_idx[0] = f;
                    tensor::forEachIndex(
                        so_spatial, [&](std::span<const int64_t> j) {
                            for (int d = 0; d < nd; ++d) {
                                so_idx[1 + d] = j[d];
                                out_idx[1 + d] =
                                    j[d] * spec.stride[d] +
                                    sc.dims[d].phase;
                            }
                            out.at(std::span<const int64_t>(
                                out_idx.data(), out_idx.size())) =
                                sub_out.at(std::span<const int64_t>(
                                    so_idx.data(), so_idx.size()));
                        });
                }
            });
    }
    return out;
}

} // namespace

Tensor
transformedDeconv(const Tensor &input, const Tensor &weight,
                  const tensor::DeconvSpec &spec,
                  tensor::ConvStats *stats, const ExecContext &ctx)
{
    return transformedDeconvImpl(input, weight, spec, stats, nullptr,
                                 ctx);
}

Tensor
transformedDeconv(const Tensor &input, const Tensor &weight,
                  const tensor::DeconvSpec &spec,
                  const tensor::ConvEpilogue &epilogue,
                  tensor::ConvStats *stats, const ExecContext &ctx)
{
    return transformedDeconvImpl(input, weight, spec, stats,
                                 &epilogue, ctx);
}

} // namespace asv::deconv
