/**
 * @file
 * Fig. 13: ASV (DCO / ISM / DCO+ISM) versus Eyeriss and a mobile
 * Pascal GPU, normalized to Eyeriss, averaged over the four stereo
 * DNNs. Eyeriss also receives the deconvolution transformation
 * ("Trans.") as a stronger baseline.
 *
 * The BENCH_kernels.json datapoint is BM_Fig13RefinementForward/<isa>:
 * real wall time of one dnn::NetworkRuntime::forward() frame of a
 * DispNet-style refinement stack (conv/ReLU/deconv-k4s2p1 chain)
 * through the dispatched f32 GEMM route, one instance per supported
 * SIMD level. The analytic Fig. 13 normalized-to-Eyeriss averages
 * from the cycle-level simulators ride along as counters (sim_*).
 *
 * Run with --table for the original human-readable paper table (no
 * benchmarks run).
 *
 * Paper reference points: ASV 8.2x speedup / 0.16x energy vs
 * Eyeriss; Eyeriss+DCT 1.6x / 0.69x vs plain Eyeriss; GPU 0.3x
 * speed / 2.33x energy of Eyeriss; ASV 27x faster / 15x lower
 * energy than GPU.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "core/asv_system.hh"
#include "dnn/runtime.hh"
#include "dnn/zoo.hh"
#include "sim/eyeriss.hh"
#include "sim/gpu.hh"
#include "tensor/tensor.hh"

namespace
{

using namespace asv;
using tensor::Tensor;

/** Analytic Fig. 13 per-frame averages over the four stereo DNNs. */
struct Fig13Analytic
{
    double eyeriss_s = 0, eyeriss_j = 0;
    double eyeriss_dct_s = 0, eyeriss_dct_j = 0;
    double gpu_s = 0, gpu_j = 0;
    double asv_s[3] = {0, 0, 0}, asv_j[3] = {0, 0, 0};
};

const Fig13Analytic &
analytic()
{
    static const Fig13Analytic a = [] {
        Fig13Analytic r;
        using core::SystemVariant;
        sched::HardwareConfig hw;
        const auto nets = dnn::zoo::stereoNetworks();
        const double n = double(nets.size());
        for (const auto &net : nets) {
            const auto ey = sim::simulateEyeriss(net, hw, false);
            const auto eyd = sim::simulateEyeriss(net, hw, true);
            r.eyeriss_s += ey.seconds(hw) / n;
            r.eyeriss_j += ey.energy.total() / n;
            r.eyeriss_dct_s += eyd.seconds(hw) / n;
            r.eyeriss_dct_j += eyd.energy.total() / n;

            const auto gpu = sim::simulateGpu(net);
            r.gpu_s += gpu.seconds / n;
            r.gpu_j += gpu.energyJ / n;

            const SystemVariant variants[3] = {
                SystemVariant::DcoOnly, SystemVariant::IsmOnly,
                SystemVariant::IsmDco};
            for (int i = 0; i < 3; ++i) {
                const auto res =
                    core::simulateSystem(net, hw, variants[i]);
                r.asv_s[i] += res.average.seconds / n;
                r.asv_j[i] += res.average.energyJ / n;
            }
        }
        return r;
    }();
    return a;
}

void
printTable()
{
    const Fig13Analytic &a = analytic();
    std::printf("=== Fig. 13: ASV vs Eyeriss vs GPU (normalized "
                "to Eyeriss) ===\n\n");
    std::printf("%-16s %10s %12s\n", "system", "speedup",
                "norm-energy");
    auto row = [&](const char *name, double s, double j) {
        std::printf("%-16s %9.2fx %12.2f\n", name, a.eyeriss_s / s,
                    j / a.eyeriss_j);
    };
    row("Eyeriss", a.eyeriss_s, a.eyeriss_j);
    row("Eyeriss+Trans.", a.eyeriss_dct_s, a.eyeriss_dct_j);
    row("GPU", a.gpu_s, a.gpu_j);
    row("ASV-DCO", a.asv_s[0], a.asv_j[0]);
    row("ASV-ISM", a.asv_s[1], a.asv_j[1]);
    row("ASV-DCO+ISM", a.asv_s[2], a.asv_j[2]);

    std::printf("\nASV vs GPU: %.1fx faster, %.1fx lower energy "
                "(paper: 27x, 15x)\n",
                a.gpu_s / a.asv_s[2], a.gpu_j / a.asv_j[2]);
    std::printf("paper: ASV 8.2x / 0.16, Eyeriss+Trans. 1.6x / "
                "0.69, GPU 0.3x / 2.33.\n");
}

/** Force a level for one benchmark, restoring the active one. */
class LevelGuard
{
  public:
    explicit LevelGuard(simd::Level level)
        : previous_(simd::activeLevel())
    {
        simd::setLevel(level);
    }
    ~LevelGuard() { simd::setLevel(previous_); }

  private:
    simd::Level previous_;
};

/**
 * DispNet-style disparity refinement stack: the deconv-heavy tail
 * the DCO targets, scaled to bench-friendly extents. Two k4 s2 p1
 * deconvolutions interleaved with 3x3 convolutions, ReLU fused
 * throughout.
 */
dnn::Network
refinementNet()
{
    dnn::NetworkBuilder b("fig13-refine", 64, {24, 36});
    b.conv("c1", 64, 3, 1, 1, dnn::Stage::DisparityRefinement);
    b.activation("r1");
    b.deconv("d1", 32, 4, 2, 1, dnn::Stage::DisparityRefinement);
    b.activation("r2");
    b.conv("c2", 16, 3, 1, 1, dnn::Stage::DisparityRefinement);
    b.activation("r3");
    b.deconv("d2", 8, 4, 2, 1, dnn::Stage::DisparityRefinement);
    b.activation("r4");
    b.conv("c3", 1, 3, 1, 1, dnn::Stage::DisparityRefinement);
    return b.build();
}

void
BM_Fig13RefinementForward(benchmark::State &state, simd::Level level)
{
    LevelGuard guard(level);
    dnn::NetworkRuntime rt(refinementNet(), 3);
    Rng rng(4);
    Tensor in(rt.inputShape());
    for (auto &v : in.flat())
        v = float(rng.uniformReal(-1, 1));
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(rt.forward(in, ctx));
    state.SetItemsProcessed(state.iterations() *
                            refinementNet().stats().totalMacs);

    const Fig13Analytic &a = analytic();
    state.counters["sim_asv_speedup_vs_eyeriss"] =
        benchmark::Counter(a.eyeriss_s / a.asv_s[2]);
    state.counters["sim_asv_energy_vs_eyeriss"] =
        benchmark::Counter(a.asv_j[2] / a.eyeriss_j);
    state.counters["sim_eyeriss_dct_speedup"] =
        benchmark::Counter(a.eyeriss_s / a.eyeriss_dct_s);
    state.counters["sim_gpu_speedup_vs_eyeriss"] =
        benchmark::Counter(a.eyeriss_s / a.gpu_s);
    state.counters["sim_asv_vs_gpu_speedup"] =
        benchmark::Counter(a.gpu_s / a.asv_s[2]);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--table") == 0) {
            printTable();
            return 0;
        }
    }
    for (asv::simd::Level level : asv::simd::supportedLevels()) {
        const std::string suffix = asv::simd::levelName(level);
        benchmark::RegisterBenchmark(
            ("BM_Fig13RefinementForward/" + suffix).c_str(),
            BM_Fig13RefinementForward, level)
            ->UseRealTime();
    }
    benchmark::AddCustomContext("asv_simd", asv::simd::activeName());
    benchmark::AddCustomContext(
        "asv_simd_best",
        asv::simd::levelName(asv::simd::bestSupported()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
