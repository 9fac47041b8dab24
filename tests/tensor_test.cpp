/**
 * @file
 * Unit tests for the tensor substrate: shapes, element access,
 * reference convolution and deconvolution semantics.
 */

#include <gtest/gtest.h>

#include "common/exec_context.hh"
#include "common/math_util.hh"
#include "common/rng.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"
#include "tensor/tensor.hh"

namespace
{

using asv::ExecContext;
using asv::Rng;
using namespace asv::tensor;

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

TEST(Tensor, AtOrZeroOutOfBounds)
{
    Tensor t = Tensor::full({1, 2, 2}, 3.f);
    const int64_t inside[] = {0, 1, 1};
    const int64_t outside[] = {0, 2, 0};
    const int64_t negative[] = {0, -1, 0};
    EXPECT_FLOAT_EQ(t.atOrZero(inside), 3.f);
    EXPECT_FLOAT_EQ(t.atOrZero(outside), 0.f);
    EXPECT_FLOAT_EQ(t.atOrZero(negative), 0.f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t = Tensor::iota({2, 6});
    Tensor r = t.reshaped({3, 4});
    EXPECT_EQ(r.dim(0), 3);
    EXPECT_FLOAT_EQ(r.at({2, 3}), 11.f);
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
    Tensor out = convNd(in, w, ConvSpec::uniform(2, 1, 0), ConvOp::MAC,
                        nullptr, ExecContext::global());
    EXPECT_TRUE(out.allClose(in));
}

TEST(Conv, KnownValues3x3)
{
    // Input 1..9 in a 3x3 grid, all-ones 3x3 kernel, valid conv:
    // single output = 45.
    Tensor in = Tensor::iota({1, 3, 3}, 1.f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 1.f);
    Tensor out = convNd(in, w, ConvSpec::uniform(2, 1, 0), ConvOp::MAC,
                        nullptr, ExecContext::global());
    ASSERT_EQ(out.shape(), (Shape{1, 1, 1}));
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 45.f);
}

TEST(Conv, PaddingGrowsOutput)
{
    Tensor in = Tensor::full({1, 3, 3}, 1.f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 1.f);
    Tensor out = convNd(in, w, ConvSpec::uniform(2, 1, 1), ConvOp::MAC,
                        nullptr, ExecContext::global());
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
    Tensor out = convNd(in, w, spec, ConvOp::MAC, nullptr,
                        ExecContext::global());
    ASSERT_EQ(out.shape(), (Shape{1, 2, 2}));
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 0.f);
    EXPECT_FLOAT_EQ(out.at({0, 1, 1}), 10.f);
}

TEST(Conv, MultiChannelAccumulates)
{
    Rng rng(2);
    Tensor in = randomTensor({3, 4, 4}, rng);
    Tensor w = Tensor::full({2, 3, 2, 2}, 0.5f);
    Tensor out = convNd(in, w, ConvSpec::uniform(2, 1, 0), ConvOp::MAC,
                        nullptr, ExecContext::global());
    EXPECT_EQ(out.shape(), (Shape{2, 3, 3}));
    // Both filters are identical, so both output channels match.
    double diff = 0;
    for (int64_t y = 0; y < 3; ++y)
        for (int64_t x = 0; x < 3; ++x)
            diff += std::abs(out.at({0, y, x}) - out.at({1, y, x}));
    EXPECT_NEAR(diff, 0.0, 1e-5);
}

TEST(Conv, SadReduction)
{
    // SAD of identical block and window is zero.
    Tensor in = Tensor::iota({1, 3, 3});
    Tensor w({1, 1, 3, 3}, in.flat());
    Tensor out = convNd(in, w, ConvSpec::uniform(2, 1, 0),
                        ConvOp::SAD, nullptr, ExecContext::global());
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 0.f);

    // Constant offset of 1 over 9 taps -> SAD 9.
    Tensor w2 = w;
    for (auto &v : w2.flat())
        v += 1.f;
    Tensor out2 = convNd(in, w2, ConvSpec::uniform(2, 1, 0),
                         ConvOp::SAD, nullptr, ExecContext::global());
    EXPECT_FLOAT_EQ(out2.at({0, 0, 0}), 9.f);
}

TEST(Conv, AsymmetricPadding)
{
    Tensor in = Tensor::full({1, 2, 2}, 1.f);
    ConvSpec spec;
    spec.stride = {1, 1};
    spec.padLo = {1, 0};
    spec.padHi = {0, 1};
    Tensor w = Tensor::full({1, 1, 2, 2}, 1.f);
    Tensor out = convNd(in, w, spec, ConvOp::MAC, nullptr,
                        ExecContext::global());
    EXPECT_EQ(out.shape(), (Shape{1, 2, 2}));
    // Top-left output covers one padded row: sees 2 ones.
    EXPECT_FLOAT_EQ(out.at({0, 0, 0}), 2.f);
    // Bottom-left output is fully interior: sees 4 ones.
    EXPECT_FLOAT_EQ(out.at({0, 1, 0}), 4.f);
}

TEST(Conv, StatsCountOps)
{
    Tensor in = Tensor::full({1, 3, 3}, 1.f);
    Tensor w = Tensor::full({1, 1, 3, 3}, 1.f);
    ConvStats stats;
    convNd(in, w, ConvSpec::uniform(2, 1, 1), ConvOp::MAC, &stats,
           ExecContext::global());
    EXPECT_EQ(stats.totalOps, 9 * 9); // 9 outputs x 9 taps
    // Padded border zeros: 4 corner outputs see 5 padded taps each,
    // 4 edge outputs see 3, the center sees none -> 32.
    EXPECT_EQ(stats.zeroOps, 4 * 5 + 4 * 3);
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
    Tensor out = deconvNd(ifmap, kernel, spec, nullptr, ExecContext::global());
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

TEST(Deconv, ZeroWasteIsAtLeast75PercentFor2dStride2)
{
    // Sec. 4.1: "a naive mapping results in over 75% of redundant
    // computations due to one or more zero operands".
    Rng rng(3);
    Tensor in = randomTensor({2, 8, 8}, rng, 0.1f, 1.f);
    Tensor w = randomTensor({4, 2, 4, 4}, rng, 0.1f, 1.f);
    ConvStats stats;
    deconvNd(in, w, DeconvSpec::uniform(2, 2, 1), &stats,
             ExecContext::global());
    EXPECT_GE(stats.zeroFraction(), 0.75);
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
    EXPECT_EQ(up.countZeros(), 25 - 4);
}

} // namespace
