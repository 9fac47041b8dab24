/**
 * @file
 * Streaming ISM demo: the same stereo video through the serial
 * IsmPipeline loop and through StreamPipeline with frames in
 * flight, verifying bit-identical output and reporting the
 * throughput of each.
 *
 * Usage: stream_demo [frames] [pw] [workers] [maxInFlight]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "core/ism.hh"
#include "core/stream_pipeline.hh"
#include "data/scene.hh"
#include "stereo/disparity.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    const int frames = argc > 1 ? std::atoi(argv[1]) : 16;
    const int pw = argc > 2 ? std::atoi(argv[2]) : 4;
    const int workers = argc > 3 ? std::atoi(argv[3]) : 0;
    const int max_in_flight = argc > 4 ? std::atoi(argv[4]) : 8;

    data::SceneConfig cfg;
    cfg.width = 256;
    cfg.height = 128;
    cfg.groundStrips = 4;
    cfg.numObjects = 5;
    const data::StereoSequence seq =
        data::generateSequence(cfg, frames, /*seed=*/99);

    core::IsmParams params;
    params.propagationWindow = pw;
    params.maxDisparity = 48;

    // Pure, thread-safe key-frame engine (stands in for the DNN); it
    // fans out on each pipeline's own pool.
    const auto key_source =
        stereo::makeMatcher("bm", "maxDisparity=48,blockRadius=3");

    // Serial reference: one frame retires before the next starts.
    core::IsmPipeline serial(params, key_source);
    std::vector<core::IsmFrameResult> serial_results;
    const auto t_serial = std::chrono::steady_clock::now();
    for (const auto &f : seq.frames)
        serial_results.push_back(serial.processFrame(f.left, f.right));
    const double serial_s = secondsSince(t_serial);

    // Streaming: key inference and flow estimation overlap across
    // frames; only the propagation chain stays ordered.
    core::StreamParams sp;
    sp.maxInFlight = max_in_flight;
    sp.workers = workers;
    core::StreamPipeline stream(params, key_source, sp);
    const auto t_stream = std::chrono::steady_clock::now();
    for (const auto &f : seq.frames)
        stream.submit(f.left, f.right);
    const std::vector<core::IsmFrameResult> stream_results =
        stream.drain();
    const double stream_s = secondsSince(t_stream);

    std::printf("frame  kind     identical\n");
    bool all_identical = true;
    for (size_t i = 0; i < serial_results.size(); ++i) {
        const bool same =
            serial_results[i].keyFrame == stream_results[i].keyFrame &&
            serial_results[i].disparity.maxAbsDiff(
                stream_results[i].disparity) == 0.0;
        all_identical = all_identical && same;
        std::printf("%5zu  %-7s %s\n", i,
                    stream_results[i].keyFrame ? "key" : "non-key",
                    same ? "yes" : "NO");
    }

    std::printf("\nserial: %6.2f fps   stream (%d workers, %d in "
                "flight): %6.2f fps   speedup: %.2fx\n",
                frames / serial_s, stream.workers(),
                stream.maxInFlight(), frames / stream_s,
                serial_s / stream_s);
    std::printf("outputs bit-identical: %s\n",
                all_identical ? "yes" : "NO");
    return all_identical ? 0 : 1;
}
