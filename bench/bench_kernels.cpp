/**
 * @file
 * google-benchmark microbenchmarks of the functional kernels: the
 * reference deconvolution vs the transformed execution (the wall
 * clock counterpart of the op-count savings), Farnebäck flow and its
 * polynomial expansion, block matching and SGM — the streaming
 * engine plus its 4-path and range-pruned variants, each reporting
 * its peak resident arena bytes — plus a per-SIMD-level sweep of the
 * census, SGM aggregation-row, and fused cost-row kernels, of the
 * f32 DNN route (BM_ConvGemm /
 * BM_Deconv: packed im2col + gemmTile with the fused bias+ReLU
 * epilogue, the deconvolutions through a prebuilt DeconvPlan;
 * BM_RefinementForward: asv_camera's two-layer key-frame network),
 * and
 * of the Farnebäck separable filter (BM_SepRow / BM_GaussianBlur) and
 * of one non-key ISM propagation (BM_IsmPropagate: scatter, hole fill
 * and the pixel-lane sadBlock search) — the vector-vs-scalar
 * datapoints tracked in BENCH_kernels.json. The benchmark context
 * records the dispatched ISA (asv_simd) so trajectory comparisons
 * across hosts stay meaningful.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "core/ism.hh"
#include "data/oracle.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "deconv/transform.hh"
#include "dnn/network.hh"
#include "dnn/runtime.hh"
#include "flow/farneback.hh"
#include "image/ops.hh"
#include "stereo/block_matching.hh"
#include "stereo/sgm.hh"
#include "tensor/conv.hh"
#include "tensor/deconv.hh"

namespace
{

using namespace asv;
using tensor::DeconvSpec;
using tensor::Shape;
using tensor::Tensor;

Tensor
randomTensor(Shape shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor t(std::move(shape));
    for (auto &v : t.flat())
        v = float(rng.uniformReal(-1, 1));
    return t;
}

void
BM_DeconvTransformed(benchmark::State &state)
{
    const int64_t n = state.range(0);
    Tensor in = randomTensor({8, n, n}, 1);
    Tensor w = randomTensor({8, 8, 4, 4}, 2);
    const DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    // The plan and the ofmap are built once, as NetworkRuntime does;
    // only run() is timed.
    deconv::DeconvPlan plan(w, in.shape(), spec);
    Tensor out(plan.outputShape());
    for (auto _ : state) {
        plan.run(in, nullptr, ctx, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_DeconvTransformed)->Arg(16)->Arg(32);

void
BM_FarnebackFlow(benchmark::State &state)
{
    Rng rng(3);
    const int n = int(state.range(0));
    image::Image a = data::makeTexture(n, n, 8.f, rng);
    image::Image b = data::makeTexture(n, n, 8.f, rng);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            flow::farnebackFlow(a, b, {}, nullptr, ctx));
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_FarnebackFlow)->Arg(64)->Arg(128);

void
BM_PolyExpansion(benchmark::State &state)
{
    // Farnebäck's per-frame expansion at the ISM flow resolution
    // (160x120 for a 320x240 camera at flowScale 2): three row and
    // six column moment passes through the sepRowF64 kernel plus the
    // 6x6 projection, two fan-outs on the global pool.
    Rng rng(16);
    const int w = int(state.range(0)), h = int(state.range(1));
    image::Image img = data::makeTexture(w, h, 8.f, rng);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(flow::polyExpansion(img, 3, 1.2, ctx));
    state.SetItemsProcessed(state.iterations() * w * h);
}
BENCHMARK(BM_PolyExpansion)->Args({160, 120});

void
BM_BlockMatchingFull(benchmark::State &state)
{
    Rng rng(4);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::BlockMatchingParams p;
    p.maxDisparity = 32;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stereo::blockMatching(left, right, p, ExecContext::global()));
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BlockMatchingFull)->Arg(64)->Arg(128);

void
BM_BlockMatchingGuided(benchmark::State &state)
{
    Rng rng(5);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::DisparityMap init(n, n);
    init.fill(8.f);
    stereo::BlockMatchingParams p;
    p.maxDisparity = 32;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            stereo::refineDisparity(left, right, init, 2, p,
                                    ExecContext::global()));
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_BlockMatchingGuided)->Arg(64)->Arg(128);

/**
 * Shared driver for the SGM wall-clock/footprint variants. Each
 * variant runs against its own arena so the `resident_bytes`
 * counter isolates that engine's peak working set: between frames
 * every pool handle has been released back to the shelves, so the
 * shelved bytes ARE the engine's resident footprint — the number
 * the streaming engine keeps below one full cost volume.
 */
void
runSgmVariant(benchmark::State &state, const stereo::SgmParams &p,
              bool guided)
{
    Rng rng(6);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::DisparityMap guide;
    if (guided) // seed the per-row windows from a full-range pass
        guide = stereo::sgmCompute(left, right, p, ExecContext::global());
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state) {
        if (guided)
            benchmark::DoNotOptimize(stereo::sgmComputeGuided(
                left, right, guide, p, ctx));
        else
            benchmark::DoNotOptimize(
                stereo::sgmCompute(left, right, p, ctx));
    }
    state.counters["resident_bytes"] =
        benchmark::Counter(double(buffers.stats().residentBytes));
    state.SetItemsProcessed(state.iterations() * n * n);
}

void
BM_Sgm(benchmark::State &state)
{
    stereo::SgmParams p;
    p.maxDisparity = 32;
    runSgmVariant(state, p, false);
}
// 256² is the reference point for the parallel-speedup trajectory:
// compare ASV_THREADS=1 against ASV_THREADS=4+ (UseRealTime makes
// the wall clock, not the calling thread's CPU time, the metric).
// 512/1024 are the streaming-SGM datapoints: at these sizes a
// full cost volume would no longer fit in LLC, which is where the
// tile-resident engine pays off.
BENCHMARK(BM_Sgm)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Arg(1024)
    ->UseRealTime();

void
BM_SgmPaths4(benchmark::State &state)
{
    // Single-sweep engine: drops the up directions and the down
    // volume entirely, trading accuracy (see the README table) for
    // one pass over the image and the smallest footprint.
    stereo::SgmParams p;
    p.maxDisparity = 32;
    p.paths = 4;
    runSgmVariant(state, p, false);
}
BENCHMARK(BM_SgmPaths4)->Arg(512)->Arg(1024)->UseRealTime();

void
BM_SgmRangePruned(benchmark::State &state)
{
    // ISM-style coarse-to-fine: per-row disparity windows seeded
    // from a previous full-range result (default pruneMargin).
    stereo::SgmParams p;
    p.maxDisparity = 32;
    runSgmVariant(state, p, true);
}
BENCHMARK(BM_SgmRangePruned)->Arg(512)->Arg(1024)->UseRealTime();

void
BM_SteadyStateAlloc(benchmark::State &state)
{
    // The zero-allocation contract as a trajectory datapoint: heap
    // allocations per warm SGM frame (the gate proper — exactly 0 —
    // lives in alloc_baseline_test) and the arena hit rate once the
    // shelves are populated. A hit rate falling away from ~1.0 means
    // some hot path started asking the pool for shapes it never
    // returns, i.e. recycling broke even if timings look fine.
    Rng rng(10);
    const int n = int(state.range(0));
    image::Image left = data::makeTexture(n, n, 8.f, rng);
    image::Image right = data::makeTexture(n, n, 8.f, rng);
    stereo::SgmParams p;
    p.maxDisparity = 32;

    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (int i = 0; i < 3; ++i) // populate the shelves
        benchmark::DoNotOptimize(
            stereo::sgmCompute(left, right, p, ctx));
    const BufferPool::Stats warm = buffers.stats();

    uint64_t allocs = 0, frames = 0;
    for (auto _ : state) {
        debug::AllocScope scope;
        benchmark::DoNotOptimize(
            stereo::sgmCompute(left, right, p, ctx));
        allocs += scope.counts().allocs;
        ++frames;
    }

    const BufferPool::Stats s = buffers.stats();
    const uint64_t hits = s.hits - warm.hits;
    const uint64_t misses = s.misses - warm.misses;
    state.counters["allocs_per_frame"] = benchmark::Counter(
        frames ? double(allocs) / double(frames) : 0.0);
    state.counters["pool_hit_rate"] = benchmark::Counter(
        hits + misses ? double(hits) / double(hits + misses) : 1.0);
    state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_SteadyStateAlloc)->Arg(128)->UseRealTime();

// --------------------------------------------------- SIMD level sweep
//
// One benchmark instance per supported ISA, so the scalar baseline
// and the vector backends land in the same BENCH_kernels.json run
// (the ≥2x census / cost-volume acceptance datapoints).

/** Force a level for one benchmark, restoring the active one after
 * (so an ASV_SIMD override keeps governing the rest of the run). */
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

void
BM_Census(benchmark::State &state, simd::Level level)
{
    LevelGuard guard(level);
    Rng rng(7);
    const int n = int(state.range(0));
    image::Image img = data::makeTexture(n, n, 8.f, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(stereo::censusTransform(
            img, 2, ExecContext::global()));
    state.SetItemsProcessed(state.iterations() * n * n);
}

void
BM_AggregateRow(benchmark::State &state, simd::Level level)
{
    // One horizontal SGM path over a 256-pixel row: per pixel, the
    // dispatched aggregateRow kernel updates all nd disparity lanes
    // and hands its horizontal min to the next pixel — the exact
    // call pattern of the aggregation passes. Buffers follow the
    // kernel contract (0xFFFF sentinels at prev[-1]/prev[nd]).
    LevelGuard guard(level);
    Rng rng(9);
    const int nd = int(state.range(0));
    const int w = 256;
    std::vector<uint16_t> cost(int64_t(w) * nd);
    for (auto &c : cost)
        c = uint16_t(rng.uniformInt(0, 48));
    std::vector<uint16_t> prev(nd + 2, 0xFFFF), cur(nd + 2, 0xFFFF);
    std::vector<uint32_t> total(int64_t(w) * nd, 0);
    const simd::Kernels &k = simd::kernels();
    for (auto _ : state) {
        uint16_t *pp = prev.data() + 1, *pc = cur.data() + 1;
        uint16_t m = 0xFFFF;
        for (int d = 0; d < nd; ++d) {
            pp[d] = cost[d];
            m = std::min(m, pp[d]);
        }
        for (int x = 1; x < w; ++x) {
            m = k.aggregateRow(cost.data() + int64_t(x) * nd, pp, m,
                               nd, 3, 40, pc,
                               total.data() + int64_t(x) * nd);
            std::swap(pp, pc);
        }
        benchmark::DoNotOptimize(m);
    }
    state.SetItemsProcessed(state.iterations() * (w - 1) * nd);
}

void
BM_ConvGemm(benchmark::State &state, simd::Level level)
{
    // The DNN-path f32 route: 3x3 convolution over a representative
    // DispNet refinement shape (C=64 -> K=32 on a 32² ifmap),
    // lowered to a packed im2col + the dispatched gemmTile kernel
    // with the bias+ReLU epilogue fused. The ≥3x AVX2-vs-scalar acceptance
    // datapoint tracked in BENCH_kernels.json.
    LevelGuard guard(level);
    const int64_t n = state.range(0);
    Tensor in = randomTensor({64, n, n}, 12);
    Tensor w = randomTensor({32, 64, 3, 3}, 13);
    std::vector<float> bias(32, 0.1f);
    const tensor::ConvSpec spec = tensor::ConvSpec::uniform(2, 1, 1);
    tensor::ConvEpilogue epi;
    epi.bias = bias.data();
    epi.relu = true;
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    Tensor out(tensor::convOutShape(in.shape(), w.shape(), spec));
    for (auto _ : state) {
        tensor::convNdInto(in, w, spec, &epi, ctx, out);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 32 * 9 * n * n);
}

void
BM_DeconvReference(benchmark::State &state, simd::Level level)
{
    // The naive zero-insertion deconvolution (tensor::deconvNd) at
    // one level, the baseline of BM_DeconvTransformed's shapes.
    LevelGuard guard(level);
    const int64_t n = state.range(0);
    Tensor in = randomTensor({8, n, n}, 1);
    Tensor w = randomTensor({8, 8, 4, 4}, 2);
    const DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(tensor::deconvNd(in, w, spec, ctx));
    state.SetItemsProcessed(state.iterations() * n * n);
}

void
BM_Deconv(benchmark::State &state, simd::Level level)
{
    // The paper's deconvolution proper, per ISA: transformed k4 s2 p1
    // (DispNet/FlowNetS refinement layer, C=64 -> K=32), sub-convs on
    // the f32 GEMM route with the epilogue fused. Contrast with the
    // BM_DeconvReference/BM_DeconvTransformed pair, which measures
    // the transformation itself.
    LevelGuard guard(level);
    const int64_t n = state.range(0);
    Tensor in = randomTensor({64, n, n}, 14);
    Tensor w = randomTensor({32, 64, 4, 4}, 15);
    std::vector<float> bias(32, 0.1f);
    const DeconvSpec spec = DeconvSpec::uniform(2, 2, 1);
    tensor::ConvEpilogue epi;
    epi.bias = bias.data();
    epi.relu = true;
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    deconv::DeconvPlan plan(w, in.shape(), spec);
    Tensor out(plan.outputShape());
    for (auto _ : state) {
        plan.run(in, &epi, ctx, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    // MACs of the transformed deconv = K*C*k² useful taps per ofmap
    // position (4 sub-kernels of 2x2 over a 2n² ofmap grid).
    state.SetItemsProcessed(state.iterations() * 64 * 32 * 16 * n *
                            n);
}

void
BM_RefinementForward(benchmark::State &state, simd::Level level)
{
    // asv_camera's key-frame network: the DispNet refinement stack's
    // last two k4 s2 p1 up-convolutions (64 -> 32 with a fused ReLU,
    // then 32 -> 16) from a 64 x 60 x 80 input up to 240 x 320,
    // through NetworkRuntime::forward on an explicit 2-worker pool.
    LevelGuard guard(level);
    dnn::NetworkBuilder nb("dispnet-refine", 64, {60, 80});
    nb.deconv("upconv1", 32, 4, 2, 1, dnn::Stage::DisparityRefinement);
    nb.activation("relu_u1");
    nb.deconv("upconv0", 16, 4, 2, 1, dnn::Stage::DisparityRefinement);
    const dnn::Network net = nb.build();
    dnn::NetworkRuntime rt(net, 21);
    Tensor in = randomTensor(rt.inputShape(), 22);
    ThreadPool pool(2);
    BufferPool buffers;
    const ExecContext ctx(pool, buffers);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rt.forward(in, ctx).data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * net.stats().totalMacs);
}

void
BM_FusedCostRow(benchmark::State &state, simd::Level level)
{
    // The streaming-SGM inner producer: one image row of Hamming
    // costs computed on the fly from two census rows, written into
    // tile scratch instead of a resident volume. Matches the
    // dispatched costRow kernel contract (full range: dlo=0,
    // ndw=nd).
    LevelGuard guard(level);
    Rng rng(11);
    const int nd = int(state.range(0));
    const int w = 1024;
    std::vector<uint64_t> cl(w), cr(w);
    for (int x = 0; x < w; ++x) {
        cl[x] = uint64_t(rng.uniformInt64(0, INT64_MAX));
        cr[x] = uint64_t(rng.uniformInt64(0, INT64_MAX));
    }
    std::vector<uint16_t> out(int64_t(w) * nd);
    const simd::Kernels &k = simd::kernels();
    for (auto _ : state) {
        k.costRow(cl.data(), cr.data(), w, 0, nd, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w * nd);
}

void
BM_SepRow(benchmark::State &state, simd::Level level)
{
    // One vertical-pass row of the r=5 Farnebäck aggregation blur:
    // 11 row pointers, f32 taps, one 160-wide output row through the
    // dispatched sepRowF32 kernel.
    LevelGuard guard(level);
    Rng rng(17);
    const int w = int(state.range(0));
    constexpr int kTaps = 11;
    const std::vector<float> k = image::gaussianKernel1d(5, -1.0);
    std::vector<float> src(size_t(kTaps) * w), out(w);
    for (auto &v : src)
        v = float(rng.uniformReal(0, 255));
    const float *rows[kTaps];
    for (int t = 0; t < kTaps; ++t)
        rows[t] = src.data() + t * w;
    const simd::Kernels &kern = simd::kernels();
    for (auto _ : state) {
        kern.sepRowF32(rows, k.data(), kTaps, w, out.data());
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * w * kTaps);
}

void
BM_GaussianBlur(benchmark::State &state, simd::Level level)
{
    // The r=5 aggregation blur of one 160x120 plane: both separable
    // passes, row-parallel on the global pool.
    LevelGuard guard(level);
    Rng rng(18);
    const int w = int(state.range(0)), h = int(state.range(1));
    image::Image img = data::makeTexture(w, h, 8.f, rng);
    BufferPool buffers;
    const ExecContext ctx(ThreadPool::global(), buffers);
    for (auto _ : state)
        benchmark::DoNotOptimize(image::gaussianBlur(img, 5, -1.0, ctx));
    state.SetItemsProcessed(state.iterations() * w * h);
}

void
BM_IsmPropagate(benchmark::State &state, simd::Level level)
{
    // One non-key propagation of asv_camera's shape: a 320x240 frame,
    // the previous frame's oracle DispNet map moved by the real
    // ismFlow pair, refined on a 2-worker pool. Inputs are built once;
    // the loop times ismPropagate alone (scatter, hole fill, guided
    // SAD search).
    LevelGuard guard(level);
    data::SceneConfig cfg;
    cfg.width = 320;
    cfg.height = 240;
    const data::StereoSequence seq = data::generateSequence(cfg, 2, 1000);
    const data::StereoFrame &a = seq.frames[0], &b = seq.frames[1];
    ThreadPool pool(2);
    BufferPool buffers;
    const ExecContext ctx(pool, buffers);
    const core::IsmParams p;
    Rng rng(9);
    const stereo::DisparityMap prev = data::oracleInference(
        a.gtDisparity, data::OracleModel::forNetwork("DispNet"), rng);
    const flow::FlowField fl = core::ismFlow(a.left, b.left, p, ctx);
    const flow::FlowField fr = core::ismFlow(a.right, b.right, p, ctx);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::ismPropagate(b.left, b.right, prev, fl, fr, p, ctx));
    state.SetItemsProcessed(state.iterations() * cfg.width * cfg.height);
}

} // namespace

int
main(int argc, char **argv)
{
    for (simd::Level level : simd::supportedLevels()) {
        const std::string suffix = simd::levelName(level);
        benchmark::RegisterBenchmark(
            ("BM_Census/" + suffix).c_str(), BM_Census, level)
            ->Arg(256);
        benchmark::RegisterBenchmark(
            ("BM_AggregateRow/" + suffix).c_str(), BM_AggregateRow,
            level)
            ->Arg(64);
        benchmark::RegisterBenchmark(
            ("BM_FusedCostRow/" + suffix).c_str(), BM_FusedCostRow,
            level)
            ->Arg(64);
        benchmark::RegisterBenchmark(
            ("BM_ConvGemm/" + suffix).c_str(), BM_ConvGemm, level)
            ->Arg(32)
            ->UseRealTime();
        benchmark::RegisterBenchmark(
            ("BM_DeconvReference/" + suffix).c_str(),
            BM_DeconvReference, level)
            ->Arg(16)
            ->Arg(32);
        benchmark::RegisterBenchmark(
            ("BM_Deconv/" + suffix).c_str(), BM_Deconv, level)
            ->Arg(16)
            ->UseRealTime();
        benchmark::RegisterBenchmark(
            ("BM_RefinementForward/" + suffix).c_str(),
            BM_RefinementForward, level)
            ->UseRealTime();
        benchmark::RegisterBenchmark(
            ("BM_SepRow/" + suffix).c_str(), BM_SepRow, level)
            ->Arg(160);
        benchmark::RegisterBenchmark(
            ("BM_GaussianBlur/" + suffix).c_str(), BM_GaussianBlur,
            level)
            ->Args({160, 120})
            ->UseRealTime();
        benchmark::RegisterBenchmark(
            ("BM_IsmPropagate/" + suffix).c_str(), BM_IsmPropagate,
            level)
            ->UseRealTime();
    }
    benchmark::AddCustomContext("asv_simd", simd::activeName());
    benchmark::AddCustomContext(
        "asv_simd_best", simd::levelName(simd::bestSupported()));
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
