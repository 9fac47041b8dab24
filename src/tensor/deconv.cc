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

    Tensor up(up_shape);
    Shape in_shape_only(input.shape().begin() + 1, input.shape().end());
    Shape up_idx(spatial + 1);
    for (int64_t c = 0; c < input.dim(0); ++c) {
        up_idx[0] = c;
        Shape in_idx(spatial + 1);
        in_idx[0] = c;
        forEachIndex(in_shape_only,
                     [&](std::span<const int64_t> pos) {
            bool in_range = true;
            for (int d = 0; d < spatial; ++d) {
                up_idx[1 + d] = pos[d] * spec.stride[d] + pad_lo[d];
                if (up_idx[1 + d] < 0 ||
                    up_idx[1 + d] >= up_shape[1 + d]) {
                    in_range = false;
                    break;
                }
                in_idx[1 + d] = pos[d];
            }
            if (in_range) {
                up.at(std::span<const int64_t>(up_idx.data(),
                                               up_idx.size())) =
                    input.at(std::span<const int64_t>(in_idx.data(),
                                                      in_idx.size()));
            }
        });
    }
    return up;
}

Tensor
deconvNd(const Tensor &input, const Tensor &weight,
         const DeconvSpec &spec, ConvStats *stats,
         const ExecContext &ctx)
{
    const int spatial = input.rank() - 1;
    Shape kernel(weight.shape().begin() + 2, weight.shape().end());

    Tensor up = upsampleZeroInsert(input, spec, kernel);

    ConvSpec conv_spec = ConvSpec::uniform(spatial, 1, 0);
    Tensor out =
        convNd(up, weight, conv_spec, ConvOp::MAC, stats, ctx);

    // Sanity: the computed output must match the analytic shape.
    const Shape expect = deconvOutShape(input.shape(), weight.shape(),
                                        spec);
    panic_if(out.shape() != expect, "deconv shape mismatch: got ",
             toString(out.shape()), " expected ", toString(expect));
    return out;
}

} // namespace asv::tensor
