/**
 * @file
 * Tests for the deconvolution-to-convolution transformation
 * (Sec. 4.1 / Appendix A): sub-kernel decomposition correctness and
 * exact functional equivalence against the zero-insertion reference,
 * swept over kernel sizes, strides, paddings and dimensionalities.
 */

#include <gtest/gtest.h>

#include <bit>
#include <tuple>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "deconv/transform.hh"
#include "dnn/layer.hh"
#include "tensor/deconv.hh"

namespace
{

using asv::ExecContext;
using asv::Rng;
using namespace asv::deconv;
using asv::tensor::DeconvSpec;
using asv::tensor::numElems;

Tensor
randomTensor(Shape shape, Rng &rng, float lo = 0.1f, float hi = 1.f)
{
    Tensor t(std::move(shape));
    for (auto &v : t.flat())
        v = static_cast<float>(rng.uniformReal(lo, hi));
    return t;
}

asv::dnn::LayerDesc
makeDeconvLayer(Shape in_spatial, int64_t in_c, int64_t out_c,
                int64_t k, int64_t s, int64_t p)
{
    asv::dnn::LayerDesc l;
    l.name = "dc";
    l.kind = asv::dnn::LayerKind::Deconv;
    l.inChannels = in_c;
    l.outChannels = out_c;
    l.inSpatial = std::move(in_spatial);
    l.kernel.assign(l.inSpatial.size(), k);
    l.stride.assign(l.inSpatial.size(), s);
    l.pad.assign(l.inSpatial.size(), p);
    return l;
}

TEST(Decompose, Paper3x3Stride2SubKernelShapes)
{
    // Sec. 4.1: "decomposing a 3x3 kernel results in four sub-kernels
    // of shapes 2x2, 1x2, 2x1, and 1x1".
    auto layer = makeDeconvLayer({8, 8}, 1, 1, 3, 2, 1);
    TransformedLayer t = transformLayer(layer);
    ASSERT_EQ(t.subConvs.size(), 4u);

    std::vector<std::pair<int64_t, int64_t>> shapes;
    for (const auto &sc : t.subConvs)
        shapes.emplace_back(sc.dims[0].taps, sc.dims[1].taps);
    // Phases enumerate (r_y, r_x) in row-major order; collect the
    // multiset of shapes.
    std::sort(shapes.begin(), shapes.end());
    const std::vector<std::pair<int64_t, int64_t>> expect = {
        {1, 1}, {1, 2}, {2, 1}, {2, 2}};
    EXPECT_EQ(shapes, expect);
}

TEST(Decompose, SubKernelElementsMatchAppendixA)
{
    // kernel [[a b c] [d e f] [g h i]] as 1..9; delta_j = (k>>j)&1
    // (Appendix A): the 2x2 sub-kernel is [[a c] [g i]], the 1x2 is
    // [d f], the 2x1 is [b; h], the 1x1 is [e].
    Tensor w = Tensor::iota({1, 1, 3, 3}, 1.f); // a..i = 1..9
    auto layer = makeDeconvLayer({4, 4}, 1, 1, 3, 2, 1);
    TransformedLayer t = transformLayer(layer);

    bool saw_2x2 = false, saw_1x1 = false, saw_1x2 = false,
         saw_2x1 = false;
    for (const auto &sc : t.subConvs) {
        Tensor sk = extractSubKernel(w, sc, {2, 2});
        const auto ky = sc.dims[0].taps, kx = sc.dims[1].taps;
        if (ky == 2 && kx == 2) {
            saw_2x2 = true;
            EXPECT_FLOAT_EQ(sk.at({0, 0, 0, 0}), 1.f); // a
            EXPECT_FLOAT_EQ(sk.at({0, 0, 0, 1}), 3.f); // c
            EXPECT_FLOAT_EQ(sk.at({0, 0, 1, 0}), 7.f); // g
            EXPECT_FLOAT_EQ(sk.at({0, 0, 1, 1}), 9.f); // i
        } else if (ky == 1 && kx == 1) {
            saw_1x1 = true;
            EXPECT_FLOAT_EQ(sk.at({0, 0, 0, 0}), 5.f); // e
        } else if (ky == 1 && kx == 2) {
            saw_1x2 = true;
            EXPECT_FLOAT_EQ(sk.at({0, 0, 0, 0}), 4.f); // d
            EXPECT_FLOAT_EQ(sk.at({0, 0, 0, 1}), 6.f); // f
        } else if (ky == 2 && kx == 1) {
            saw_2x1 = true;
            EXPECT_FLOAT_EQ(sk.at({0, 0, 0, 0}), 2.f); // b
            EXPECT_FLOAT_EQ(sk.at({0, 0, 1, 0}), 8.f); // h
        }
    }
    EXPECT_TRUE(saw_2x2 && saw_1x1 && saw_1x2 && saw_2x1);
}

TEST(Decompose, ConvLayerPassesThroughAsSingleSubConv)
{
    asv::dnn::LayerDesc l;
    l.name = "conv";
    l.kind = asv::dnn::LayerKind::Conv;
    l.inChannels = 8;
    l.outChannels = 16;
    l.inSpatial = {32, 32};
    l.kernel = {3, 3};
    l.stride = {1, 1};
    l.pad = {1, 1};
    TransformedLayer t = transformLayer(l);
    ASSERT_EQ(t.subConvs.size(), 1u);
    EXPECT_FALSE(t.fromDeconv);
    EXPECT_EQ(t.subConvs[0].kernelExtents(), (Shape{3, 3}));
    EXPECT_EQ(t.subConvs[0].outExtents(), (Shape{32, 32}));
    EXPECT_EQ(t.totalMacs(), l.macs());
}

TEST(Decompose, TransformedMacsMatchLayerUsefulMacs)
{
    // The analytic zeroMacs() in LayerDesc must agree exactly with
    // the decomposition's total MACs.
    for (int64_t k : {2, 3, 4, 5}) {
        for (int64_t s : {2, 3}) {
            for (int64_t p : {0, 1}) {
                if (p > k - 1)
                    continue;
                auto layer = makeDeconvLayer({9, 11}, 3, 5, k, s, p);
                TransformedLayer t = transformLayer(layer);
                EXPECT_EQ(t.totalMacs(),
                          layer.macs() - layer.zeroMacs())
                    << "k=" << k << " s=" << s << " p=" << p;
            }
        }
    }
}

TEST(Decompose, ThreeDKernelYieldsEightSubKernels)
{
    auto layer = makeDeconvLayer({4, 4, 4}, 2, 2, 3, 2, 1);
    TransformedLayer t = transformLayer(layer);
    EXPECT_EQ(t.subConvs.size(), 8u); // 2^3 (Appendix A)
}

TEST(Functional, MatchesReferenceOnPaperExample)
{
    Rng rng(7);
    Tensor in = randomTensor({1, 3, 3}, rng);
    Tensor w = randomTensor({1, 1, 3, 3}, rng);
    DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    Tensor ref = deconvNd(in, w, spec, ExecContext::global());
    Tensor got = transformedDeconv(in, w, spec, ExecContext::global());
    EXPECT_TRUE(got.allClose(ref, 1e-5))
        << "max diff " << got.maxAbsDiff(ref);
}

TEST(Functional, ExecContextBitIdenticalToSerial)
{
    // The threaded transform (each sub-conv's filters, and their
    // stores into the strided ofmap, fanned over the pool) must be
    // bit-identical to the serial path for any worker count.
    Rng rng(13);
    const Tensor in = randomTensor({3, 9, 7}, rng);
    asv::ThreadPool serial(1), pool(4);
    // On this non-square input, k5 s3 p2 mixes sub-kernel extents,
    // k3 s2 p2 has a phase with negative pads on both sides and
    // k2 s3 p0 has a
    // tap-free phase.
    struct Case
    {
        int64_t k, s, p;
    };
    for (const Case c : {Case{5, 3, 2}, Case{3, 2, 2}, Case{2, 3, 0}}) {
        const Tensor w = randomTensor({4, 3, c.k, c.k}, rng);
        const DeconvSpec spec = DeconvSpec::uniform(2, c.s, c.p);
        const Tensor ref =
            transformedDeconv(in, w, spec, asv::ExecContext(serial));
        for (const ExecContext &ctx :
             {asv::ExecContext(pool), ExecContext::global()}) {
            const Tensor got = transformedDeconv(in, w, spec, ctx);
            ASSERT_EQ(got.shape(), ref.shape());
            for (int64_t i = 0; i < numElems(ref.shape()); ++i) {
                ASSERT_EQ(std::bit_cast<uint32_t>(ref.flat()[i]),
                          std::bit_cast<uint32_t>(got.flat()[i]))
                    << "k" << c.k << " s" << c.s << " p" << c.p
                    << " flat index " << i;
            }
        }
        const Tensor naive =
            deconvNd(in, w, spec, ExecContext::global());
        EXPECT_TRUE(ref.allClose(naive, 1e-4))
            << "max diff " << ref.maxAbsDiff(naive);
    }
}

TEST(Functional, TransformSavesOpsVsNaive)
{
    const auto layer = makeDeconvLayer({10, 10}, 2, 4, 4, 2, 1);
    const int64_t transformed = transformLayer(layer).totalMacs();
    // The transformation must cut total taps by ~4x for stride 2.
    EXPECT_LT(transformed, layer.macs() / 3);
}

/**
 * Property sweep: the transformation must be exactly equivalent to
 * the reference for every (kernel, stride, pad, size, channels)
 * combination, 2-D.
 */
class TransformEquivalence2d
    : public ::testing::TestWithParam<
          std::tuple<int64_t, int64_t, int64_t, int64_t>>
{};

TEST_P(TransformEquivalence2d, MatchesReference)
{
    const auto [k, s, p, n] = GetParam();
    if (p > k - 1)
        GTEST_SKIP() << "unsupported pad";
    if ((n - 1) * s - 2 * p + k < 1)
        GTEST_SKIP() << "output collapses";

    Rng rng(1000 * k + 100 * s + 10 * p + n);
    Tensor in = randomTensor({3, n, n + 1}, rng);
    Tensor w = randomTensor({2, 3, k, k}, rng);
    DeconvSpec spec = DeconvSpec::uniform(2, s, p);

    Tensor ref = deconvNd(in, w, spec, ExecContext::global());
    Tensor got = transformedDeconv(in, w, spec, ExecContext::global());
    ASSERT_EQ(got.shape(), ref.shape());
    EXPECT_TRUE(got.allClose(ref, 1e-4))
        << "k=" << k << " s=" << s << " p=" << p << " n=" << n
        << " max diff " << got.maxAbsDiff(ref);
}

INSTANTIATE_TEST_SUITE_P(
    KernelStridePadSize, TransformEquivalence2d,
    ::testing::Combine(::testing::Values<int64_t>(1, 2, 3, 4, 5, 7),
                       ::testing::Values<int64_t>(2, 3, 4),
                       ::testing::Values<int64_t>(0, 1, 2),
                       ::testing::Values<int64_t>(3, 6)));

/** Property sweep in 1-D and 3-D to cover the N-D generalization. */
class TransformEquivalenceNd
    : public ::testing::TestWithParam<std::tuple<int, int64_t,
                                                 int64_t>>
{};

TEST_P(TransformEquivalenceNd, MatchesReference)
{
    const auto [nd, k, s] = GetParam();
    Rng rng(31 * nd + 7 * k + s);
    Shape in_shape{2};
    for (int d = 0; d < nd; ++d)
        in_shape.push_back(4 + d);
    Shape w_shape{3, 2};
    for (int d = 0; d < nd; ++d)
        w_shape.push_back(k);

    Tensor in = randomTensor(in_shape, rng);
    Tensor w = randomTensor(w_shape, rng);
    DeconvSpec spec = DeconvSpec::uniform(nd, s, 1);

    Tensor ref = deconvNd(in, w, spec, ExecContext::global());
    Tensor got = transformedDeconv(in, w, spec, ExecContext::global());
    EXPECT_TRUE(got.allClose(ref, 1e-4))
        << "nd=" << nd << " k=" << k << " s=" << s;
}

INSTANTIATE_TEST_SUITE_P(
    Dimensionality, TransformEquivalenceNd,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values<int64_t>(3, 4),
                       ::testing::Values<int64_t>(2, 3)));

TEST(Analytic, StereoDeconvK4S2P1Splits)
{
    // The standard stereo-DNN deconv (k4 s2 p1) decomposes into four
    // 2x2 sub-kernels: all phases get exactly 4 taps.
    auto layer = makeDeconvLayer({16, 16}, 8, 8, 4, 2, 1);
    TransformedLayer t = transformLayer(layer);
    ASSERT_EQ(t.subConvs.size(), 4u);
    for (const auto &sc : t.subConvs) {
        EXPECT_EQ(sc.dims[0].taps, 2);
        EXPECT_EQ(sc.dims[1].taps, 2);
    }
    // Dense = 4x the useful MACs for this shape.
    EXPECT_EQ(layer.macs(), 4 * t.totalMacs());
}

} // namespace
