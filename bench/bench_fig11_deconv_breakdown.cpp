/**
 * @file
 * Fig. 11: speedup and energy reduction of the deconvolution
 * optimizations, teased apart as DCT (transformation only), ConvR
 * (reuse optimizer without ILAR) and ILAR (full optimizer), on
 * (a) the deconvolution layers alone and (b) the entire network,
 * for the four stereo DNNs.
 *
 * Two kinds of datapoint land in BENCH_kernels.json:
 *  - BM_Fig11DeconvReference/<isa>: real wall time of the naive
 *    zero-insertion deconvolution (tensor::deconvNd) on a
 *    representative DispNet refinement layer (k4 s2 p1, C=64 ->
 *    K=32) — the measured "baseline" bar, one instance per
 *    supported SIMD level, so each transformed row has a baseline
 *    at its own level;
 *  - BM_Fig11DeconvTransformed/<isa>: the same layer through the
 *    Sec. 4.1 transformation with ILAR (deconv::DeconvPlan::run, one
 *    union-window operand for all four phases) on the dispatched
 *    f32 GEMM route, one instance per supported SIMD level. The plan
 *    is built once outside the timed loop, as NetworkRuntime does.
 *    The analytic Fig. 11 averages from the cycle-level simulator
 *    ride along as counters (sim_*), so the measured and simulated
 *    speedups sit side by side in one JSON record.
 *
 * Run with --table for the original human-readable paper table
 * (per-network DCT/ConvR/ILAR breakdown; no benchmarks run).
 *
 * Paper reference points: deconv-only speedup 3.9x (DCT) -> 5.6x
 * (ILAR) on average, 7.7x for the 3-D networks; whole-network
 * speedup 1.4x -> 1.6x; deconv-only energy reduction 62% (DCT),
 * 73% (ConvR), 83% (ILAR); whole-network 38%.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "deconv/transform.hh"
#include "dnn/zoo.hh"
#include "sim/accelerator.hh"
#include "tensor/deconv.hh"

namespace
{

using namespace asv;
using tensor::DeconvSpec;
using tensor::Shape;
using tensor::Tensor;

/** Analytic Fig. 11 averages over the four stereo DNNs. */
struct Fig11Analytic
{
    double sp[3] = {0, 0, 0};  //!< deconv-only speedup DCT/ConvR/ILAR
    double en[3] = {0, 0, 0};  //!< deconv-only energy reduction %
    double nsp[3] = {0, 0, 0}; //!< whole-network speedup
    double nen[3] = {0, 0, 0}; //!< whole-network energy reduction %
    std::vector<std::string> names;
    std::vector<std::array<double, 12>> rows; //!< per-network table
};

const Fig11Analytic &
analytic()
{
    static const Fig11Analytic a = [] {
        Fig11Analytic r;
        sched::HardwareConfig hw;
        const std::vector<dnn::Network> nets =
            dnn::zoo::stereoNetworks();
        const sim::Variant variants[3] = {sim::Variant::Dct,
                                          sim::Variant::ConvR,
                                          sim::Variant::Ilar};
        for (const auto &net : nets) {
            const auto base = sim::simulateNetwork(
                net, hw, sim::Variant::Baseline);
            std::array<double, 12> row{};
            for (int i = 0; i < 3; ++i) {
                const auto c =
                    sim::simulateNetwork(net, hw, variants[i]);
                row[i] = double(base.deconvCycles) / c.deconvCycles;
                row[3 + i] =
                    100.0 *
                    (1.0 - c.deconvEnergyJ / base.deconvEnergyJ);
                row[6 + i] = double(base.cycles) / c.cycles;
                row[9 + i] =
                    100.0 *
                    (1.0 - c.energy.total() / base.energy.total());
                r.sp[i] += row[i] / double(nets.size());
                r.en[i] += row[3 + i] / double(nets.size());
                r.nsp[i] += row[6 + i] / double(nets.size());
                r.nen[i] += row[9 + i] / double(nets.size());
            }
            r.names.push_back(net.name());
            r.rows.push_back(row);
        }
        return r;
    }();
    return a;
}

void
printTable()
{
    const Fig11Analytic &a = analytic();
    std::printf("=== Fig. 11: deconvolution optimization breakdown "
                "===\n\n");
    std::printf("(a) deconvolution layers only\n");
    std::printf("%-10s %12s %12s %12s %14s %14s %14s\n", "network",
                "DCT-speedup", "ConvR-spdup", "ILAR-spdup",
                "DCT-energy-%", "ConvR-enrg-%", "ILAR-enrg-%");
    for (size_t n = 0; n < a.rows.size(); ++n) {
        const auto &row = a.rows[n];
        std::printf("%-10s %11.2fx %11.2fx %11.2fx %13.1f%% "
                    "%13.1f%% %13.1f%%\n",
                    a.names[n].c_str(), row[0], row[1], row[2],
                    row[3], row[4], row[5]);
    }
    std::printf("%-10s %11.2fx %11.2fx %11.2fx %13.1f%% %13.1f%% "
                "%13.1f%%\n",
                "AVG", a.sp[0], a.sp[1], a.sp[2], a.en[0], a.en[1],
                a.en[2]);

    std::printf("\n(b) entire network\n");
    std::printf("%-10s %12s %12s %12s %14s %14s %14s\n", "network",
                "DCT-speedup", "ConvR-spdup", "ILAR-spdup",
                "DCT-energy-%", "ConvR-enrg-%", "ILAR-enrg-%");
    for (size_t n = 0; n < a.rows.size(); ++n) {
        const auto &row = a.rows[n];
        std::printf("%-10s %11.2fx %11.2fx %11.2fx %13.1f%% "
                    "%13.1f%% %13.1f%%\n",
                    a.names[n].c_str(), row[6], row[7], row[8],
                    row[9], row[10], row[11]);
    }
    std::printf("%-10s %11.2fx %11.2fx %11.2fx %13.1f%% %13.1f%% "
                "%13.1f%%\n",
                "AVG", a.nsp[0], a.nsp[1], a.nsp[2], a.nen[0],
                a.nen[1], a.nen[2]);

    std::printf("\npaper: deconv-only avg 3.9x/5.6x/5.6x speedup, "
                "62%%/73%%/83%% energy;\n"
                "       whole-net avg 1.4x/1.6x/1.6x speedup, "
                "38%% energy (full DCO).\n");
}

Tensor
randomTensor(Shape shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    for (auto &v : t.flat())
        v = float(rng.uniformReal(-1, 1));
    return t;
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

// Representative DispNet refinement deconvolution: k4 s2 p1,
// C=64 -> K=32 on a 24x24 ifmap.
constexpr int64_t kIn = 24;

void
BM_Fig11DeconvReference(benchmark::State &state, simd::Level level)
{
    LevelGuard guard(level);
    Tensor in = randomTensor({64, kIn, kIn}, 1);
    Tensor w = randomTensor({32, 64, 4, 4}, 2);
    const DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::deconvNd(in, w, spec, ctx));
    state.SetItemsProcessed(state.iterations() * 64 * 32 * 16 * kIn *
                            kIn);
}

void
BM_Fig11DeconvTransformed(benchmark::State &state, simd::Level level)
{
    LevelGuard guard(level);
    Tensor in = randomTensor({64, kIn, kIn}, 1);
    Tensor w = randomTensor({32, 64, 4, 4}, 2);
    const DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    // The plan and the ofmap are built once, as NetworkRuntime does;
    // only run() is timed, so plan construction is excluded.
    deconv::DeconvPlan plan(w, in.shape(), spec);
    Tensor out(plan.outputShape());
    for (auto _ : state) {
        plan.run(in, nullptr, ctx, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * 64 * 32 * 16 * kIn *
                            kIn);
    const Fig11Analytic &a = analytic();
    state.counters["sim_dct_speedup"] = benchmark::Counter(a.sp[0]);
    state.counters["sim_convr_speedup"] =
        benchmark::Counter(a.sp[1]);
    state.counters["sim_ilar_speedup"] = benchmark::Counter(a.sp[2]);
    state.counters["sim_ilar_energy_red_pct"] =
        benchmark::Counter(a.en[2]);
    state.counters["sim_net_ilar_speedup"] =
        benchmark::Counter(a.nsp[2]);
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
            ("BM_Fig11DeconvReference/" + suffix).c_str(),
            BM_Fig11DeconvReference, level)
            ->UseRealTime();
        benchmark::RegisterBenchmark(
            ("BM_Fig11DeconvTransformed/" + suffix).c_str(),
            BM_Fig11DeconvTransformed, level)
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
