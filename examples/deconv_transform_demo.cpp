/**
 * @file
 * The deconvolution transformation, walked through on the paper's
 * own Fig. 6 example: a 3x3 ifmap (A..I) deconvolved with a 3x3
 * kernel (a..i) at stride 2.
 *
 * Prints the four sub-kernels (Appendix A), executes both the
 * standard path (zero-insertion upsample + dense convolution) and
 * the transformed path (four dense sub-convolutions, each storing
 * straight into its strided phase of the ofmap),
 * verifies they agree exactly, and reports the arithmetic saved.
 */

#include <cstdio>

#include "deconv/transform.hh"
#include "dnn/layer.hh"
#include "tensor/deconv.hh"

int
main()
{
    using namespace asv;
    using tensor::Shape;
    using tensor::Tensor;

    // Fig. 6 operands: ifmap A..I = 1..9, kernel a..i = 1..9.
    Tensor ifmap({1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    Tensor kernel({1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
    const tensor::DeconvSpec spec =
        tensor::DeconvSpec::uniform(2, 2, 1);

    std::printf("== deconvolution transformation demo (Fig. 6) "
                "==\n\n");

    // Decompose and print sub-kernels.
    dnn::LayerDesc layer;
    layer.name = "fig6";
    layer.kind = dnn::LayerKind::Deconv;
    layer.inChannels = layer.outChannels = 1;
    layer.inSpatial = {3, 3};
    layer.kernel = {3, 3};
    layer.stride = {2, 2};
    layer.pad = {1, 1};
    const auto t = deconv::transformLayer(layer);

    const char *names = "abcdefghi";
    std::printf("original 3x3 kernel:\n");
    for (int r = 0; r < 3; ++r)
        std::printf("  %c %c %c\n", names[3 * r], names[3 * r + 1],
                    names[3 * r + 2]);
    std::printf("\nsub-kernels (Appendix A):\n");
    for (size_t k = 0; k < t.subConvs.size(); ++k) {
        const auto &sc = t.subConvs[k];
        const Tensor sk =
            deconv::extractSubKernel(kernel, sc, {2, 2});
        std::printf("  S%zu (%lldx%lld):", k,
                    (long long)sc.dims[0].taps,
                    (long long)sc.dims[1].taps);
        for (int64_t i = 0; i < sk.size(); ++i)
            std::printf(" %c",
                        names[int(sk.flat()[i]) - 1]);
        std::printf("\n");
    }

    // Execute both paths.
    const Tensor ref = deconvNd(ifmap, kernel, spec,
                                ExecContext::global());
    const Tensor got = deconv::transformedDeconv(ifmap, kernel, spec,
                                                 ExecContext::global());

    std::printf("\n5x5 ofmap (standard deconvolution):\n");
    for (int64_t y = 0; y < 5; ++y) {
        std::printf("  ");
        for (int64_t x = 0; x < 5; ++x)
            std::printf("%6.0f", ref.at({0, y, x}));
        std::printf("\n");
    }
    std::printf("\ntransformed path matches exactly: %s "
                "(max diff %.2g)\n",
                got.allClose(ref) ? "yes" : "NO",
                got.maxAbsDiff(ref));
    std::printf("\narithmetic: dense %lld taps (%lld, %.0f%%, on zero "
                "operands) vs transformed %lld taps\n",
                (long long)layer.macs(), (long long)layer.zeroMacs(),
                100.0 * double(layer.zeroMacs()) / double(layer.macs()),
                (long long)t.totalMacs());
    std::printf("the transformation removes the zero work without "
                "any hardware change (Sec. 4.1).\n");
    return 0;
}
