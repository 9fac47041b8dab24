/**
 * @file
 * Stream-vs-serial bit-identity suite for StreamPipeline.
 *
 * The streaming layer's contract is that reordering work across
 * frames must not change a single bit of output: the same frame
 * sequence through StreamPipeline at any maxInFlight and through
 * the serial IsmPipeline loop must produce identical disparity
 * maps, key-frame flags, and op counts — including across a forced
 * reset and a mid-stream resolution change. The suite also covers
 * the ticketing/ordering guarantees, backpressure accounting, and
 * error recovery.
 */

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/ism.hh"
#include "core/sequencer.hh"
#include "core/stream_pipeline.hh"
#include "data/scene.hh"
#include "fn_matcher.hh"
#include "image/image.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;
using namespace asv::core;

struct FramePair
{
    image::Image left;
    image::Image right;
};

std::vector<FramePair>
toPairs(const data::StereoSequence &seq)
{
    std::vector<FramePair> frames;
    for (const auto &f : seq.frames)
        frames.push_back({f.left, f.right});
    return frames;
}

/**
 * Deterministic, thread-safe key-frame engine: a pure function of
 * the submitted pair (the streaming determinism contract), standing
 * in for DNN inference.
 */
std::shared_ptr<const stereo::Matcher>
keyMatcher()
{
    return stereo::makeMatcher("bm", "maxDisparity=48,blockRadius=3");
}

IsmParams
testParams()
{
    IsmParams params;
    params.propagationWindow = 3;
    params.maxDisparity = 48;
    return params;
}

std::vector<IsmFrameResult>
runSerial(const std::vector<FramePair> &frames,
          const IsmParams &params,
          std::unique_ptr<KeyFrameSequencer> sequencer,
          int reset_at = -1)
{
    IsmPipeline ism(params, keyMatcher(), std::move(sequencer));
    std::vector<IsmFrameResult> out;
    for (size_t i = 0; i < frames.size(); ++i) {
        if (static_cast<int>(i) == reset_at)
            ism.reset();
        out.push_back(ism.processFrame(frames[i].left,
                                       frames[i].right));
    }
    return out;
}

std::vector<IsmFrameResult>
runStream(const std::vector<FramePair> &frames,
          const IsmParams &params,
          std::unique_ptr<KeyFrameSequencer> sequencer,
          const StreamParams &stream_params, int reset_at = -1)
{
    StreamPipeline stream(params, keyMatcher(),
                          std::move(sequencer), stream_params);
    std::vector<IsmFrameResult> out;
    for (size_t i = 0; i < frames.size(); ++i) {
        if (static_cast<int>(i) == reset_at) {
            auto flushed = stream.drain();
            out.insert(out.end(), flushed.begin(), flushed.end());
            stream.reset();
        }
        stream.submit(frames[i].left, frames[i].right);
    }
    auto flushed = stream.drain();
    out.insert(out.end(), flushed.begin(), flushed.end());
    return out;
}

void
expectIdentical(const std::vector<IsmFrameResult> &serial,
                const std::vector<IsmFrameResult> &stream)
{
    ASSERT_EQ(serial.size(), stream.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].keyFrame, stream[i].keyFrame)
            << "frame " << i;
        EXPECT_EQ(serial[i].arithmeticOps, stream[i].arithmeticOps)
            << "frame " << i;
        ASSERT_EQ(serial[i].disparity.width(),
                  stream[i].disparity.width())
            << "frame " << i;
        ASSERT_EQ(serial[i].disparity.height(),
                  stream[i].disparity.height())
            << "frame " << i;
        EXPECT_EQ(serial[i].disparity.maxAbsDiff(stream[i].disparity),
                  0.0)
            << "frame " << i;
    }
}

TEST(StreamPipeline, BitIdenticalToSerialAtAnyInFlight)
{
    data::SceneConfig cfg;
    cfg.width = 128;
    cfg.height = 64;
    const auto frames =
        toPairs(data::generateSequence(cfg, 10, 41));
    const auto serial = runSerial(frames, testParams(),
                                  makeStaticSequencer(3));

    for (int max_in_flight : {1, 2, 8}) {
        StreamParams sp;
        sp.maxInFlight = max_in_flight;
        sp.workers = 3;
        const auto stream = runStream(frames, testParams(),
                                      makeStaticSequencer(3), sp);
        SCOPED_TRACE("maxInFlight = " + std::to_string(max_in_flight));
        expectIdentical(serial, stream);
    }
}

TEST(StreamPipeline, BitIdenticalAcrossResetAndResolutionChange)
{
    data::SceneConfig big;
    big.width = 128;
    big.height = 64;
    data::SceneConfig small_cfg;
    small_cfg.width = 96;
    small_cfg.height = 48;
    auto frames = toPairs(data::generateSequence(big, 4, 42));
    const auto tail =
        toPairs(data::generateSequence(small_cfg, 4, 43));
    frames.insert(frames.end(), tail.begin(), tail.end());

    // Resolution changes at frame 4; both pipelines reset at frame 6.
    const int reset_at = 6;
    const auto serial = runSerial(frames, testParams(),
                                  makeStaticSequencer(3), reset_at);

    for (int max_in_flight : {2, 8}) {
        StreamParams sp;
        sp.maxInFlight = max_in_flight;
        sp.workers = 2;
        const auto stream =
            runStream(frames, testParams(), makeStaticSequencer(3),
                      sp, reset_at);
        SCOPED_TRACE("maxInFlight = " + std::to_string(max_in_flight));
        expectIdentical(serial, stream);
    }
}

TEST(StreamPipeline, BitIdenticalWithAdaptiveSequencer)
{
    // The sequencer runs on the submission thread; its stateful
    // change detection (including forced-key resyncs) must see the
    // same frame sequence as in the serial loop.
    data::SceneConfig cfg;
    cfg.width = 128;
    cfg.height = 64;
    const auto frames =
        toPairs(data::generateSequence(cfg, 8, 44));

    const auto serial = runSerial(frames, testParams(),
                                  makeAdaptiveSequencer(6.0, 5));
    StreamParams sp;
    sp.maxInFlight = 4;
    sp.workers = 2;
    const auto stream = runStream(frames, testParams(),
                                  makeAdaptiveSequencer(6.0, 5), sp);
    expectIdentical(serial, stream);
}

TEST(StreamPipeline, TicketsFollowSubmissionOrderAndResetRestarts)
{
    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 48;
    const auto frames = toPairs(data::generateSequence(cfg, 4, 45));

    StreamParams sp;
    sp.maxInFlight = 4;
    sp.workers = 2;
    StreamPipeline stream(testParams(), keyMatcher(), sp);
    for (int64_t i = 0; i < 4; ++i)
        EXPECT_EQ(stream.submit(frames[i].left, frames[i].right), i);
    EXPECT_EQ(stream.drain().size(), 4u);
    EXPECT_FALSE(stream.pending());

    stream.reset();
    EXPECT_EQ(stream.submit(frames[0].left, frames[0].right), 0);
    const auto r = stream.next();
    EXPECT_TRUE(r.keyFrame); // first frame after reset re-keys
}

TEST(StreamPipeline, MaxInFlightOneInterleavedMatchesSerial)
{
    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 48;
    const auto frames = toPairs(data::generateSequence(cfg, 6, 46));
    const auto serial = runSerial(frames, testParams(),
                                  makeStaticSequencer(3));

    StreamParams sp;
    sp.maxInFlight = 1;
    sp.workers = 1;
    StreamPipeline stream(testParams(), keyMatcher(),
                          makeStaticSequencer(3), sp);
    std::vector<IsmFrameResult> results;
    for (const auto &f : frames) {
        stream.submit(f.left, f.right);
        results.push_back(stream.next());
    }
    expectIdentical(serial, results);
}

TEST(StreamPipeline, BackpressureBoundsFramesInFlight)
{
    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 48;
    const auto frames = toPairs(data::generateSequence(cfg, 8, 47));

    StreamParams sp;
    sp.maxInFlight = 2;
    sp.workers = 2;
    StreamPipeline stream(testParams(), keyMatcher(), sp);
    for (const auto &f : frames) {
        stream.submit(f.left, f.right);
        // submit() returns only once fewer than maxInFlight frames
        // were uncomputed, and adds exactly one.
        EXPECT_LE(stream.inFlight(), sp.maxInFlight);
    }
    EXPECT_EQ(stream.drain().size(), frames.size());
}

TEST(StreamPipeline, StageErrorSurfacesInOrderAndResetRecovers)
{
    constexpr float kPoisonPixel = -1234.5f;
    auto key_source = testref::fnMatcher(
        [bm = keyMatcher()](const image::Image &left,
                            const image::Image &right) {
            if (left.at(0, 0) == kPoisonPixel)
                throw std::runtime_error("injected DNN failure");
            return bm->compute(left, right, ExecContext::global());
        });

    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 48;
    auto frames = toPairs(data::generateSequence(cfg, 6, 48));
    frames[3].left.at(0, 0) = kPoisonPixel; // frame 3 is a key (PW 3)

    StreamParams sp;
    sp.maxInFlight = 8;
    sp.workers = 2;
    StreamPipeline stream(testParams(), key_source,
                          makeStaticSequencer(3), sp);
    for (const auto &f : frames)
        stream.submit(f.left, f.right);

    for (int i = 0; i < 3; ++i)
        EXPECT_NO_THROW(stream.next()) << "frame " << i;
    // The failed key frame, and the non-key frames chained on its
    // disparity, all rethrow from next().
    for (int i = 3; i < 6; ++i)
        EXPECT_THROW(stream.next(), std::runtime_error)
            << "frame " << i;
    EXPECT_FALSE(stream.pending());

    // reset() clears the poisoned chain; the pipeline is reusable.
    stream.reset();
    for (const auto &f : {frames[0], frames[1], frames[2]})
        stream.submit(f.left, f.right);
    const auto results = stream.drain();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_TRUE(results[0].keyFrame);
    EXPECT_FALSE(results[1].keyFrame);
}

} // namespace
