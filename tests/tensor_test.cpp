/**
 * @file
 * Unit tests for the tensor substrate: shapes, element access,
 * convolution, the reference convolution and deconvolution
 * semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/buffer_pool.hh"
#include "common/exec_context.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"
#include "tensor/tensor.hh"
#include "tensor_index.hh"

namespace
{

using asv::ExecContext;
using asv::Rng;
using namespace asv::tensor;
using asv::testref::forEachIndex;

Tensor
randomTensor(Shape shape, Rng &rng, float lo = -1.f, float hi = 1.f)
{
    Tensor t(std::move(shape));
    for (auto &v : t.flat())
        v = static_cast<float>(rng.uniformReal(lo, hi));
    return t;
}

TEST(Tensor, ShapeAndSize)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.rank(), 3);
    EXPECT_EQ(t.size(), 24);
    EXPECT_EQ(t.dim(0), 2);
    EXPECT_EQ(t.dim(2), 4);
    EXPECT_EQ(numElems({5, 7}), 35);
}

TEST(Tensor, IotaRowMajorOrder)
{
    Tensor t = Tensor::iota({2, 2, 2});
    EXPECT_FLOAT_EQ(t.at({0, 0, 0}), 0.f);
    EXPECT_FLOAT_EQ(t.at({0, 0, 1}), 1.f);
    EXPECT_FLOAT_EQ(t.at({0, 1, 0}), 2.f);
    EXPECT_FLOAT_EQ(t.at({1, 0, 0}), 4.f);
    EXPECT_FLOAT_EQ(t.at({1, 1, 1}), 7.f);
}

TEST(Tensor, ForEachIndexVisitsAll)
{
    int64_t count = 0;
    forEachIndex({3, 4}, [&](std::span<const int64_t>) { ++count; });
    EXPECT_EQ(count, 12);
}

TEST(Tensor, MaxAbsDiffAndAllClose)
{
    Tensor a = Tensor::full({2, 2}, 1.f);
    Tensor b = Tensor::full({2, 2}, 1.f);
    b.at({1, 1}) = 1.5f;
    EXPECT_DOUBLE_EQ(a.maxAbsDiff(b), 0.5);
    EXPECT_FALSE(a.allClose(b));
    EXPECT_TRUE(a.allClose(b, 0.5));
}

TEST(Conv, IdentityKernelPassesThrough)
{
    Rng rng(1);
    Tensor in = randomTensor({1, 5, 5}, rng);
    Tensor w({1, 1, 1, 1}, {1.f});
    Tensor out =
        convNd(in, w, ConvSpec::uniform(2, 1, 0), ExecContext::global());
    EXPECT_TRUE(out.allClose(in));
}

TEST(Conv, KnownValues3x3)
{
    // Input 1..9 in a 3x3 grid, all-ones 3x3 kernel, valid conv:
    // single output = 45.
    Tensor in = Tensor::iota({1, 3, 3}, 1.f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 1.f);
    Tensor out =
        convNd(in, w, ConvSpec::uniform(2, 1, 0), ExecContext::global());
    ASSERT_EQ(out.shape(), (Shape{1, 1, 1}));
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 45.f);
}

TEST(Conv, PaddingGrowsOutput)
{
    Tensor in = Tensor::full({1, 3, 3}, 1.f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 1.f);
    Tensor out =
        convNd(in, w, ConvSpec::uniform(2, 1, 1), ExecContext::global());
    EXPECT_EQ(out.shape(), (Shape{1, 3, 3}));
    // Center output sees all nine ones; corners see four.
    EXPECT_FLOAT_EQ(out.at({0, 1, 1}), 9.f);
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 4.f);
}

TEST(Conv, StrideSubsamples)
{
    Tensor in = Tensor::iota({1, 4, 4});
    Tensor w({1, 1, 1, 1}, {1.f});
    ConvSpec spec = ConvSpec::uniform(2, 2, 0);
    Tensor out = convNd(in, w, spec, ExecContext::global());
    ASSERT_EQ(out.shape(), (Shape{1, 2, 2}));
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 0.f);
    EXPECT_FLOAT_EQ(out.at({0, 1, 1}), 10.f);
}

TEST(Conv, MultiChannelAccumulates)
{
    Rng rng(2);
    Tensor in = randomTensor({3, 4, 4}, rng);
    Tensor w = Tensor::full({2, 3, 2, 2}, 0.5f);
    Tensor out =
        convNd(in, w, ConvSpec::uniform(2, 1, 0), ExecContext::global());
    EXPECT_EQ(out.shape(), (Shape{2, 3, 3}));
    // Both filters are identical, so both output channels match.
    double diff = 0;
    for (int64_t y = 0; y < 3; ++y)
        for (int64_t x = 0; x < 3; ++x)
            diff += std::abs(out.at({0, y, x}) - out.at({1, y, x}));
    EXPECT_NEAR(diff, 0.0, 1e-5);
}

TEST(Conv, AsymmetricPadding)
{
    Tensor in = Tensor::full({1, 2, 2}, 1.f);
    ConvSpec spec;
    spec.stride = {1, 1};
    spec.padLo = {1, 0};
    spec.padHi = {0, 1};
    Tensor w = Tensor::full({1, 1, 2, 2}, 1.f);
    Tensor out = convNd(in, w, spec, ExecContext::global());
    EXPECT_EQ(out.shape(), (Shape{1, 2, 2}));
    // Top-left output covers one padded row: sees 2 ones.
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 2.f);
    // Bottom-left output is fully interior: sees 4 ones.
    EXPECT_FLOAT_EQ(out.at({0, 1, 0}), 4.f);
}

/** FNV-1a (64-bit) over the bit patterns of @p t. */
uint64_t
fnv1a(const Tensor &t)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (float v : t.flat()) {
        const uint32_t bits = std::bit_cast<uint32_t>(v);
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

TEST(ReferenceConv, PinnedAcrossWorkerCounts)
{
    // Bit patterns of the double-accumulation reduction (channels
    // outer, taps in raster order, double(a) * w, one cast at the
    // end) on padded, strided, cropped, 1-D and 3-D windows. Any
    // change to its order or to its padding semantics shows here.
    struct Case
    {
        Shape in, w, padLo, padHi;
        int64_t stride;
        uint64_t pin;
    };
    const std::vector<Case> cases = {
        {{3, 11, 9}, {4, 3, 3, 3}, {1, 1}, {1, 1}, 1,
         0x1a5cf9bad2997610ull},
        {{3, 13, 17}, {4, 3, 3, 3}, {1, 0}, {0, 1}, 2,
         0xe5dba40304bf8e06ull},
        {{3, 11, 10}, {2, 3, 3, 3}, {-2, -1}, {-1, -3}, 2,
         0x71691c94f5427fc5ull},
        {{2, 21}, {3, 2, 4}, {1}, {2}, 3, 0x4f81ec271398ae26ull},
        {{2, 6, 7, 5}, {3, 2, 2, 3, 2}, {1, 0, -1}, {0, 1, 1}, 1,
         0xdd046facb120a04eull},
    };
    Rng rng(101);
    for (const Case &c : cases) {
        Tensor in = randomTensor(c.in, rng);
        for (size_t i = 0; i < size_t(in.size()); i += 5)
            in.flat()[i] = 0.f;
        const Tensor w = randomTensor(c.w, rng);
        ConvSpec spec;
        spec.stride.assign(c.in.size() - 1, c.stride);
        spec.padLo = c.padLo;
        spec.padHi = c.padHi;
        for (int workers : {1, 3}) {
            asv::ThreadPool pool(workers);
            asv::BufferPool buffers;
            const Tensor out = referenceConv(
                in, w, spec, ExecContext(pool, buffers));
            EXPECT_EQ(out.shape(),
                      convOutShape(in.shape(), w.shape(), spec));
            EXPECT_EQ(fnv1a(out), c.pin)
                << toString(c.in) << " * " << toString(c.w)
                << " workers=" << workers;
        }
    }
}

TEST(Deconv, OutShapeFormula)
{
    // (3-1)*2 - 2*1 + 3 = 5 (the Fig. 6 example).
    EXPECT_EQ(asv::deconvOutSize(3, 3, 2, 1), 5);
    // (4-1)*2 - 2*1 + 4 = 8 (the common k4 s2 p1 doubling).
    EXPECT_EQ(asv::deconvOutSize(4, 4, 2, 1), 8);
}

TEST(Deconv, Paper3x3Example)
{
    // Fig. 6: 3x3 ifmap (A..I), 3x3 kernel (a..i), stride 2 pad 1,
    // 5x5 ofmap with (1,1) = A*e, (1,2) = A*d + B*f,
    // (2,1) = A*b + D*h, (2,2) = A*a + B*c + D*g + E*i.
    Tensor ifmap({1, 3, 3},
                 {1, 2, 3, 4, 5, 6, 7, 8, 9}); // A..I
    Tensor kernel({1, 1, 3, 3},
                  {10, 20, 30, 40, 50, 60, 70, 80, 90}); // a..i
    DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    Tensor out = deconvNd(ifmap, kernel, spec, ExecContext::global());
    ASSERT_EQ(out.shape(), (Shape{1, 5, 5}));
    const float A = 1, B = 2, D = 4, E = 5;
    const float a = 10, bk = 20, c = 30, d = 40, e = 50, f = 60,
                g = 70, h = 80, i = 90;
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), A * e);
    EXPECT_FLOAT_EQ(out.at({0, 0, 1}), A * d + B * f);
    EXPECT_FLOAT_EQ(out.at({0, 1, 0}), A * bk + D * h);
    EXPECT_FLOAT_EQ(out.at({0, 1, 1}),
                    A * a + B * c + D * g + E * i);
    // And the mirrored corner relations from Fig. 6.
    const float F = 6, H = 8, I = 9;
    EXPECT_FLOAT_EQ(out.at({0, 4, 4}), I * e);
    EXPECT_FLOAT_EQ(out.at({0, 3, 4}), F * bk + I * h);
    EXPECT_FLOAT_EQ(out.at({0, 4, 3}), H * d + I * f);
}

TEST(Deconv, UpsampleZeroInsertPlacesValues)
{
    Tensor in({1, 2, 2}, {1, 2, 3, 4});
    DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    Tensor up = upsampleZeroInsert(in, spec, {3, 3});
    // out = (2-1)*2 - 2 + 3 = 3; upsampled = 3 + 3 - 1 = 5.
    ASSERT_EQ(up.shape(), (Shape{1, 5, 5}));
    // pad_lo = k - 1 - p = 1: input lands at odd positions.
    EXPECT_FLOAT_EQ(up.at({0, 1, 1}), 1.f);
    EXPECT_FLOAT_EQ(up.at({0, 1, 3}), 2.f);
    EXPECT_FLOAT_EQ(up.at({0, 3, 3}), 4.f);
    EXPECT_FLOAT_EQ(up.at({0, 0, 0}), 0.f);
    EXPECT_EQ(std::count(up.flat().begin(), up.flat().end(), 0.f),
              25 - 4);
}

TEST(Deconv, UpsampleZeroInsertFollowsIndexRule)
{
    // Every upsampled position u holds input[(u - (k-1-p)) / s] where
    // that divides exactly and lands inside the input, 0 elsewhere:
    // per-dim strides and pads, 1-D, 2-D and 3-D.
    struct Case
    {
        Shape in, kernel, stride, pad;
    };
    const std::vector<Case> cases = {
        {{2, 5}, {4}, {3}, {1}},
        {{2, 3, 4}, {3, 4}, {2, 3}, {1, 0}},
        {{1, 2, 3, 2}, {2, 3, 3}, {2, 1, 3}, {0, 2, 1}},
    };
    for (const Case &c : cases) {
        const Tensor in = Tensor::iota(c.in, 1.f);
        const DeconvSpec spec{c.stride, c.pad};
        const Tensor up = upsampleZeroInsert(in, spec, c.kernel);
        const int nd = static_cast<int>(c.kernel.size());
        Shape src(size_t(nd + 1));
        forEachIndex(up.shape(), [&](std::span<const int64_t> u) {
            bool hit = true;
            src[0] = u[0];
            for (int d = 0; d < nd; ++d) {
                const int64_t v =
                    u[1 + d] - (c.kernel[d] - 1 - c.pad[d]);
                hit = hit && v >= 0 && v % c.stride[d] == 0 &&
                      v / c.stride[d] < c.in[1 + d];
                src[1 + d] = hit ? v / c.stride[d] : 0;
            }
            EXPECT_EQ(up.at(u), hit ? in.at(src) : 0.f)
                << toString(c.in) << " at "
                << toString(Shape(u.begin(), u.end()));
        });
    }
}

} // namespace
