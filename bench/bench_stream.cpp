/**
 * @file
 * Frames-in-flight throughput of the streaming ISM pipeline — the
 * wall-clock counterpart of the Sec. 5.2 sequencer design. Compares
 * the serial processFrame() loop on a 1/2/4-thread pool against
 * StreamPipeline at 1/2/4 executors on the same bench scene with an
 * expensive (SGM, standing in for DNN inference) key-frame source.
 * items_per_second is frames/second; the streaming speedup comes
 * from overlapping key inference and flow estimation across frames
 * while propagation chains stay ordered.
 *
 * The two Arg(N) families are like for like in thread count, not in
 * kernel parallelism: the serial loop's N threads all fan out every
 * kernel, while StreamPipeline's N executors each run a whole stage,
 * and a nested parallelFor on their own pool runs serially. So
 * BM_IsmSerialLoop/1 and BM_IsmStreamPipeline/1 both run every
 * kernel on one thread.
 *
 * run_benchmarks.sh appends these datapoints to BENCH_kernels.json.
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/stream_pipeline.hh"
#include "data/scene.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;

/** The bench scene: a 256x128 street-style 12-frame sequence. */
const data::StereoSequence &
benchScene()
{
    static const data::StereoSequence seq = [] {
        data::SceneConfig cfg;
        cfg.width = 256;
        cfg.height = 128;
        cfg.groundStrips = 4;
        cfg.numObjects = 5;
        cfg.maxDisparity = 40.f;
        return data::generateSequence(cfg, 12, /*seed=*/77);
    }();
    return seq;
}

/**
 * Expensive, pure key-frame engine modelling DNN inference. It fans
 * out on the pipeline's own pool, like every registry engine.
 */
std::shared_ptr<const stereo::Matcher>
sgmKeySource()
{
    static const auto sgm = stereo::makeMatcher("sgm", "maxDisparity=48");
    return sgm;
}

core::IsmParams
benchParams()
{
    core::IsmParams params;
    params.propagationWindow = 4;
    params.maxDisparity = 48;
    return params;
}

/** Arg = pool threads (a pool of 1 runs every kernel on the caller). */
void
BM_IsmSerialLoop(benchmark::State &state)
{
    const auto &seq = benchScene();
    const auto pool = std::make_shared<ThreadPool>(int(state.range(0)));
    for (auto _ : state) {
        core::IsmPipeline ism(
            benchParams(), sgmKeySource(),
            core::makeStaticSequencer(benchParams().propagationWindow),
            pool);
        for (const auto &f : seq.frames)
            benchmark::DoNotOptimize(ism.processFrame(f.left,
                                                      f.right));
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(seq.frames.size()));
}
BENCHMARK(BM_IsmSerialLoop)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/** Arg = executor threads; maxInFlight = 8 frames. */
void
BM_IsmStreamPipeline(benchmark::State &state)
{
    const auto &seq = benchScene();
    core::StreamParams sp;
    sp.maxInFlight = 8;
    sp.workers = int(state.range(0));
    for (auto _ : state) {
        core::StreamPipeline stream(benchParams(), sgmKeySource(),
                                    sp);
        for (const auto &f : seq.frames)
            stream.submit(f.left, f.right);
        benchmark::DoNotOptimize(stream.drain());
    }
    state.SetItemsProcessed(state.iterations() *
                            int64_t(seq.frames.size()));
}
BENCHMARK(BM_IsmStreamPipeline)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

} // namespace

BENCHMARK_MAIN();
