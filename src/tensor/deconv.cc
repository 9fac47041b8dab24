#include "tensor/deconv.hh"

#include "common/logging.hh"
#include "common/math_util.hh"

namespace asv::tensor
{

DeconvSpec
DeconvSpec::uniform(int spatial_dims, int64_t stride, int64_t pad)
{
    DeconvSpec spec;
    spec.stride.assign(spatial_dims, stride);
    spec.pad.assign(spatial_dims, pad);
    return spec;
}

Shape
deconvOutShape(const Shape &input, const Shape &weight,
               const DeconvSpec &spec)
{
    const int spatial = static_cast<int>(input.size()) - 1;
    panic_if(spatial < 1, "input must be [C, spatial...]");
    panic_if(static_cast<int>(weight.size()) != spatial + 2,
             "weight must be [K, C, kspatial...]");
    panic_if(weight[1] != input[0], "channel mismatch");
    panic_if(static_cast<int>(spec.stride.size()) != spatial ||
                 static_cast<int>(spec.pad.size()) != spatial,
             "spec rank mismatch");

    Shape out(spatial + 1);
    out[0] = weight[0];
    for (int d = 0; d < spatial; ++d) {
        const int64_t o = deconvOutSize(input[1 + d], weight[2 + d],
                                        spec.stride[d], spec.pad[d]);
        panic_if(o < 1, "deconv output dim ", d, " non-positive");
        out[1 + d] = o;
    }
    return out;
}

Tensor
upsampleZeroInsert(const Tensor &input, const DeconvSpec &spec,
                   const Shape &kernel)
{
    const int spatial = input.rank() - 1;
    panic_if(static_cast<int>(kernel.size()) != spatial,
             "kernel rank mismatch");
    panic_if(spatial < 1 || spatial > kMaxSpatialDims,
             "upsampleZeroInsert: spatial rank ", spatial,
             " unsupported (1-", kMaxSpatialDims, ")");

    // Upsampled extent: deconv output + (k - 1) so that a stride-1
    // valid convolution lands exactly on the deconv output size.
    Shape up_shape(spatial + 1);
    up_shape[0] = input.dim(0);
    Shape pad_lo(spatial);
    for (int d = 0; d < spatial; ++d) {
        const int64_t out = deconvOutSize(input.dim(1 + d), kernel[d],
                                          spec.stride[d], spec.pad[d]);
        up_shape[1 + d] = out + kernel[d] - 1;
        pad_lo[d] = kernel[d] - 1 - spec.pad[d];
        panic_if(pad_lo[d] < 0,
                 "pad larger than kernel-1 is not supported");
    }

    // A placed store of each channel: input position i lands at
    // i * stride + pad_lo, every other position stays zero.
    Tensor up(up_shape);
    if (input.size() == 0)
        return up;
    OutputPlacement place{spec.stride, pad_lo};
    const Shape extents(input.shape().begin() + 1, input.shape().end());
    int64_t ustr[kMaxSpatialDims];
    const int64_t uchan = spatialStrides(up, ustr);
    const int64_t width = extents[spatial - 1];
    const int64_t step = spec.stride[spatial - 1];
    const int64_t ichan = numElems(extents);
    for (int64_t c = 0; c < input.dim(0); ++c) {
        const float *src = input.data() + c * ichan;
        float *dst = up.data() + c * uchan;
        forEachPlacedRow(extents, place, ustr,
                         [&](int64_t row, int64_t base) {
            for (int64_t j = 0; j < width; ++j)
                dst[base + j * step] = src[row * width + j];
        });
    }
    return up;
}

Tensor
deconvNd(const Tensor &input, const Tensor &weight,
         const DeconvSpec &spec, const ExecContext &ctx)
{
    const int spatial = input.rank() - 1;
    Shape kernel(weight.shape().begin() + 2, weight.shape().end());

    Tensor up = upsampleZeroInsert(input, spec, kernel);

    ConvSpec conv_spec = ConvSpec::uniform(spatial, 1, 0);
    Tensor out = convNd(up, weight, conv_spec, ctx);

    // Sanity: the computed output must match the analytic shape.
    const Shape expect = deconvOutShape(input.shape(), weight.shape(),
                                        spec);
    panic_if(out.shape() != expect, "deconv shape mismatch: got ",
             toString(out.shape()), " expected ", toString(expect));
    return out;
}

} // namespace asv::tensor
