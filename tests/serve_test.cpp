/**
 * @file
 * asv::serve::Server contract suite.
 *
 * Covers the serving frontend's load-bearing guarantees:
 *
 *  - per-stream FIFO delivery under concurrent submitters (including
 *    two clients racing into the *same* stream);
 *  - global backpressure: a tiny submission ring saturates, blocking
 *    submit() never loses a frame, trySubmit() reports QueueFull;
 *  - load shedding drops oldest-non-key only, never an accepted key
 *    frame, and every shed frame is reported at its ordered position;
 *  - results are bit-identical to a serial IsmPipeline loop over the
 *    same frames (the serving layer adds scheduling, not arithmetic);
 *  - the serve hot path — submit, ring transfer, routing, shedding,
 *    shed delivery — is allocation-free at steady state
 *    (AllocTracker-guarded, including the FrameQueue in isolation);
 *  - a malformed StreamConfig or a full stream table throws from
 *    openStream() and leaves the server unchanged and serving; a bad
 *    ServerConfig, an unknown id in setPaused(), an empty
 *    heartbeat callback and pump() on a threaded server throw as
 *    well.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/ism.hh"
#include "core/sequencer.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "image/image.hh"
#include "serve/frame_queue.hh"
#include "serve/server.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;
using namespace asv::serve;

struct FramePair
{
    image::Image left;
    image::Image right;
};

std::vector<FramePair>
makeFrames(int count, uint64_t seed, int width = 64, int height = 48)
{
    data::SceneConfig cfg;
    cfg.width = width;
    cfg.height = height;
    cfg.maxDisparity = 14.f;
    const auto seq = data::generateSequence(cfg, count, seed);
    std::vector<FramePair> frames;
    for (const auto &f : seq.frames)
        frames.push_back({f.left, f.right});
    return frames;
}

std::shared_ptr<const stereo::Matcher>
testMatcher()
{
    return stereo::makeMatcher("bm", "maxDisparity=16,blockRadius=2");
}

core::IsmParams
testParams(int propagation_window = 3)
{
    core::IsmParams params;
    params.propagationWindow = propagation_window;
    params.maxDisparity = 16;
    return params;
}

/** Per-stream capture of everything the callback delivered. The
 *  callback runs on the dispatcher thread; tests read only after
 *  drain()/stop(), whose internal accounting publishes the writes. */
struct ResultLog
{
    std::vector<ServeResult> results;
    void
    operator()(ServeResult &&r)
    {
        results.push_back(std::move(r));
    }
};

StreamConfig
streamConfig(ResultLog &log, int propagation_window = 3,
             int max_queued = 64, int max_in_flight = 2)
{
    StreamConfig cfg;
    cfg.params = testParams(propagation_window);
    cfg.matcher = testMatcher();
    cfg.maxQueued = max_queued;
    cfg.maxInFlight = max_in_flight;
    cfg.onResult = [&log](ServeResult &&r) { log(std::move(r)); };
    return cfg;
}

TEST(Serve, SubmitStatuses)
{
    ServerConfig sc;
    sc.manualDispatch = true;
    sc.workers = 2;
    sc.queueCapacity = 2;
    Server server(sc);

    ResultLog log;
    const StreamId id = server.openStream(streamConfig(log));
    const auto frames = makeFrames(1, 7);

    EXPECT_EQ(server.submit(99, frames[0].left, frames[0].right),
              SubmitStatus::UnknownStream);
    EXPECT_EQ(server.trySubmit(id, frames[0].left, frames[0].right),
              SubmitStatus::Accepted);
    EXPECT_EQ(server.trySubmit(id, frames[0].left, frames[0].right),
              SubmitStatus::Accepted);
    // Ring capacity 2, nobody pumping: the third attempt reports
    // QueueFull instead of blocking.
    EXPECT_EQ(server.trySubmit(id, frames[0].left, frames[0].right),
              SubmitStatus::QueueFull);

    server.drain();
    server.stop();
    EXPECT_EQ(server.submit(id, frames[0].left, frames[0].right),
              SubmitStatus::Closed);

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].submitted, 4);
    EXPECT_EQ(stats.streams[0].rejected, 2); // QueueFull + Closed
    EXPECT_EQ(stats.streams[0].accepted, 2);
    EXPECT_EQ(stats.delivered, stats.accepted);
    EXPECT_EQ(log.results.size(), 2u);
}

TEST(Serve, BadStreamConfigThrowsAndLeavesServerUsable)
{
    ServerConfig sc;
    sc.workers = 2;
    sc.maxStreams = 1;
    Server server(sc);
    ResultLog log;

    auto broken = [&log](auto &&mutate) {
        StreamConfig cfg = streamConfig(log);
        mutate(cfg);
        return cfg;
    };
    EXPECT_THROW(server.openStream(broken(
                     [](StreamConfig &c) { c.matcher = nullptr; })),
                 std::invalid_argument);
    EXPECT_THROW(server.openStream(broken(
                     [](StreamConfig &c) { c.onResult = nullptr; })),
                 std::invalid_argument);
    EXPECT_THROW(server.openStream(
                     broken([](StreamConfig &c) { c.maxQueued = 0; })),
                 std::invalid_argument);
    EXPECT_THROW(server.openStream(broken(
                     [](StreamConfig &c) { c.maxInFlight = 0; })),
                 std::invalid_argument);
    EXPECT_THROW(server.openStream(broken(
                     [](StreamConfig &c) { c.maxInFlight = -1; })),
                 std::invalid_argument);
    EXPECT_THROW(server.openStream(broken([](StreamConfig &c) {
                     c.params.propagationWindow = 0;
                 })),
                 std::invalid_argument);
    EXPECT_TRUE(server.stats().streams.empty());

    // The rejected requests left the table untouched: the one slot
    // is still free, and the stream opened into it serves.
    const StreamId id = server.openStream(streamConfig(log));
    EXPECT_EQ(id, 0);
    EXPECT_THROW(server.openStream(streamConfig(log)),
                 std::length_error);
    const auto frames = makeFrames(4, 9);
    for (const FramePair &f : frames)
        ASSERT_EQ(server.submit(id, f.left, f.right),
                  SubmitStatus::Accepted);
    server.drain();
    server.stop();

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].completed, 4);
    ASSERT_EQ(log.results.size(), frames.size());
    for (size_t f = 0; f < frames.size(); ++f) {
        EXPECT_EQ(log.results[f].ticket, static_cast<int64_t>(f));
        EXPECT_EQ(log.results[f].status, ResultStatus::Ok);
        EXPECT_EQ(log.results[f].disparity.width(),
                  frames[f].left.width());
    }
}

TEST(Serve, BadServerInputThrowsAndLeavesServerUsable)
{
    // A bad ServerConfig throws before the server builds anything.
    auto broken = [](auto &&mutate) {
        ServerConfig sc;
        sc.workers = 2;
        mutate(sc);
        return sc;
    };
    EXPECT_THROW(Server(broken([](ServerConfig &c) { c.workers = -1; })),
                 std::invalid_argument);
    EXPECT_THROW(
        Server(broken([](ServerConfig &c) { c.queueCapacity = 0; })),
        std::invalid_argument);
    EXPECT_THROW(
        Server(broken([](ServerConfig &c) { c.maxStreams = 0; })),
        std::invalid_argument);

    // A bad call on a running server throws and changes nothing.
    ServerConfig sc;
    sc.workers = 2;
    sc.heartbeatPeriod = std::chrono::milliseconds(1);
    Server server(sc);
    ResultLog log;
    const StreamId id = server.openStream(streamConfig(log));
    EXPECT_THROW(server.setPaused(id + 1, true), std::invalid_argument);
    EXPECT_THROW(server.setPaused(-1, true), std::invalid_argument);
    EXPECT_THROW(server.subscribe(HeartbeatFn{}), std::invalid_argument);

    // The stream is still unpaused and the server serves it.
    const auto frames = makeFrames(4, 13);
    for (const FramePair &f : frames)
        ASSERT_EQ(server.submit(id, f.left, f.right),
                  SubmitStatus::Accepted);
    server.drain();
    server.stop();
    ASSERT_EQ(log.results.size(), frames.size());
    for (size_t f = 0; f < frames.size(); ++f) {
        EXPECT_EQ(log.results[f].ticket, static_cast<int64_t>(f));
        EXPECT_EQ(log.results[f].status, ResultStatus::Ok);
    }
}

TEST(Serve, PumpOnThreadedServerThrowsAndLeavesServerUsable)
{
    // The dispatcher thread owns this server's pipelines: pump()
    // from a client thread is a misuse that throws, touching nothing.
    ServerConfig sc;
    sc.workers = 2;
    Server server(sc);
    ResultLog log;
    const StreamId id = server.openStream(streamConfig(log));
    EXPECT_THROW(server.pump(), std::logic_error);

    const auto frames = makeFrames(4, 17);
    for (const FramePair &f : frames)
        ASSERT_EQ(server.submit(id, f.left, f.right),
                  SubmitStatus::Accepted);
    EXPECT_THROW(server.pump(), std::logic_error);
    server.drain();
    server.stop();
    ASSERT_EQ(log.results.size(), frames.size());
    for (size_t f = 0; f < frames.size(); ++f) {
        EXPECT_EQ(log.results[f].ticket, static_cast<int64_t>(f));
        EXPECT_EQ(log.results[f].status, ResultStatus::Ok);
    }
}

TEST(Serve, BitIdenticalToSerialLoop)
{
    constexpr int kFrames = 10;
    constexpr int kWindow = 3;

    // Two streams with different content on one server: shared pool,
    // interleaved dispatch — and still every stream's results must
    // equal its own serial IsmPipeline loop bit for bit.
    const std::vector<std::vector<FramePair>> frames = {
        makeFrames(kFrames, 11), makeFrames(kFrames, 22)};

    std::vector<ResultLog> logs(2);
    ServerConfig sc;
    sc.workers = 2;
    Server server(sc);
    std::vector<StreamId> ids;
    for (int s = 0; s < 2; ++s)
        ids.push_back(server.openStream(
            streamConfig(logs[static_cast<size_t>(s)], kWindow,
                         /*max_queued=*/kFrames)));

    for (int f = 0; f < kFrames; ++f)
        for (size_t s = 0; s < 2; ++s)
            ASSERT_EQ(server.submit(ids[s],
                                    frames[s][static_cast<size_t>(f)].left,
                                    frames[s][static_cast<size_t>(f)].right),
                      SubmitStatus::Accepted);
    server.drain();
    server.stop();

    for (size_t s = 0; s < 2; ++s) {
        core::IsmPipeline serial(testParams(kWindow), testMatcher(),
                                 core::makeStaticSequencer(kWindow));
        ASSERT_EQ(logs[s].results.size(), static_cast<size_t>(kFrames));
        for (int f = 0; f < kFrames; ++f) {
            const core::IsmFrameResult expect = serial.processFrame(
                frames[s][static_cast<size_t>(f)].left,
                frames[s][static_cast<size_t>(f)].right);
            const ServeResult &got =
                logs[s].results[static_cast<size_t>(f)];
            EXPECT_EQ(got.ticket, f);
            EXPECT_EQ(got.status, ResultStatus::Ok);
            EXPECT_EQ(got.keyFrame, expect.keyFrame)
                << "stream " << s << " frame " << f;
            ASSERT_EQ(got.disparity.width(), expect.disparity.width());
            EXPECT_EQ(got.disparity.maxAbsDiff(expect.disparity), 0.0)
                << "stream " << s << " frame " << f;
        }
    }
}

TEST(Serve, PerStreamFifoUnderConcurrentSubmitters)
{
    constexpr int kStreams = 4;
    constexpr int kFrames = 12;

    std::vector<ResultLog> logs(kStreams);
    ServerConfig sc;
    sc.workers = 2;
    sc.queueCapacity = 16;
    Server server(sc);
    std::vector<StreamId> ids;
    for (int s = 0; s < kStreams; ++s)
        ids.push_back(server.openStream(
            streamConfig(logs[static_cast<size_t>(s)], 3,
                         /*max_queued=*/kFrames)));

    const auto frames = makeFrames(4, 33);
    std::vector<std::thread> submitters;
    for (int s = 0; s < kStreams; ++s) {
        submitters.emplace_back([&, s] {
            for (int f = 0; f < kFrames; ++f) {
                const FramePair &p =
                    frames[static_cast<size_t>(f) % frames.size()];
                ASSERT_EQ(server.submit(ids[static_cast<size_t>(s)],
                                        p.left, p.right),
                          SubmitStatus::Accepted);
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    server.drain();
    server.stop();

    for (int s = 0; s < kStreams; ++s) {
        const auto &results = logs[static_cast<size_t>(s)].results;
        ASSERT_EQ(results.size(), static_cast<size_t>(kFrames))
            << "stream " << s;
        for (int f = 0; f < kFrames; ++f) {
            // Dense, strictly increasing tickets: exact FIFO.
            EXPECT_EQ(results[static_cast<size_t>(f)].ticket, f)
                << "stream " << s;
            EXPECT_EQ(results[static_cast<size_t>(f)].status,
                      ResultStatus::Ok);
        }
    }
}

TEST(Serve, SameStreamConcurrentSubmittersStayOrdered)
{
    constexpr int kThreads = 2;
    constexpr int kPerThread = 10;

    ResultLog log;
    ServerConfig sc;
    sc.workers = 2;
    sc.queueCapacity = 8;
    Server server(sc);
    const StreamId id = server.openStream(
        streamConfig(log, 3, /*max_queued=*/kThreads * kPerThread));

    const auto frames = makeFrames(2, 44);
    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&] {
            for (int f = 0; f < kPerThread; ++f) {
                const FramePair &p =
                    frames[static_cast<size_t>(f) % frames.size()];
                ASSERT_EQ(server.submit(id, p.left, p.right),
                          SubmitStatus::Accepted);
            }
        });
    }
    for (auto &t : submitters)
        t.join();
    server.drain();
    server.stop();

    // Two racing clients: the interleaving is arbitrary but the
    // delivery must be every accepted frame, in ticket order.
    ASSERT_EQ(log.results.size(),
              static_cast<size_t>(kThreads * kPerThread));
    for (size_t i = 0; i < log.results.size(); ++i) {
        EXPECT_EQ(log.results[i].ticket, static_cast<int64_t>(i));
        EXPECT_EQ(log.results[i].status, ResultStatus::Ok);
    }
}

TEST(Serve, BackpressureSaturationNeverLosesFrames)
{
    constexpr int kFrames = 30;

    ResultLog log;
    ServerConfig sc;
    sc.workers = 2;
    sc.queueCapacity = 2; // saturate the global ring constantly
    Server server(sc);
    const StreamId id = server.openStream(
        streamConfig(log, 3, /*max_queued=*/2, /*max_in_flight=*/1));

    const auto frames = makeFrames(3, 55);
    for (int f = 0; f < kFrames; ++f) {
        const FramePair &p =
            frames[static_cast<size_t>(f) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
    }
    server.drain();
    server.stop();

    // Every accepted frame surfaced exactly once, in order — some
    // computed, some shed (the tiny pending queue sheds under
    // flood), none lost.
    ASSERT_EQ(log.results.size(), static_cast<size_t>(kFrames));
    int64_t shed = 0;
    int64_t ok = 0;
    for (size_t i = 0; i < log.results.size(); ++i) {
        EXPECT_EQ(log.results[i].ticket, static_cast<int64_t>(i));
        if (log.results[i].status == ResultStatus::Shed)
            ++shed;
        else if (log.results[i].status == ResultStatus::Ok)
            ++ok;
    }
    EXPECT_EQ(shed + ok, kFrames);

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].accepted, kFrames);
    EXPECT_EQ(stats.streams[0].shed, shed);
    EXPECT_EQ(stats.streams[0].completed, ok);
    EXPECT_EQ(stats.delivered, stats.accepted);
}

TEST(Serve, ShedDropsOldestNonKeyNeverAcceptedKeys)
{
    // Deterministic shedding scenario: manual dispatch, stream
    // paused, propagationWindow 3, maxQueued 3, nine frames. Routing
    // tickets 0..8 (keys 0, 3, 6) into a 3-deep queue must evict
    // exactly the non-keys 1, 2, 4, 5 and shed the incoming 7, 8 —
    // the three accepted keys survive untouched.
    ResultLog log;
    ServerConfig sc;
    sc.manualDispatch = true;
    sc.workers = 2;
    sc.queueCapacity = 16;
    Server server(sc);
    StreamConfig cfg = streamConfig(log, 3, /*max_queued=*/3,
                                    /*max_in_flight=*/3);
    cfg.paused = true;
    const StreamId id = server.openStream(std::move(cfg));

    const auto frames = makeFrames(2, 66);
    for (int f = 0; f < 9; ++f) {
        const FramePair &p =
            frames[static_cast<size_t>(f) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
    }
    server.pump(); // route + shed; nothing dispatches while paused
    EXPECT_TRUE(log.results.empty())
        << "shed notifications must wait for their ordered position";

    server.setPaused(id, false);
    server.drain();
    server.stop();

    ASSERT_EQ(log.results.size(), 9u);
    for (int f = 0; f < 9; ++f) {
        const ServeResult &r = log.results[static_cast<size_t>(f)];
        EXPECT_EQ(r.ticket, f);
        if (f % 3 == 0) {
            EXPECT_EQ(r.status, ResultStatus::Ok)
                << "key frame " << f << " must never be shed";
            EXPECT_TRUE(r.keyFrame);
            EXPECT_FALSE(r.disparity.empty());
        } else {
            EXPECT_EQ(r.status, ResultStatus::Shed) << "frame " << f;
            EXPECT_FALSE(r.keyFrame);
            EXPECT_TRUE(r.disparity.empty());
        }
    }
}

TEST(Serve, HeartbeatAndStats)
{
    std::mutex mutex;
    std::vector<ServerStats> beats;

    ResultLog log;
    ServerConfig sc;
    sc.workers = 2;
    sc.heartbeatPeriod = std::chrono::milliseconds(5);
    Server server(sc);
    const StreamId id = server.openStream(streamConfig(log));
    const int token = server.subscribe([&](const ServerStats &s) {
        std::lock_guard<std::mutex> lock(mutex);
        beats.push_back(s);
    });

    const auto frames = makeFrames(3, 77);
    for (int f = 0; f < 12; ++f) {
        const FramePair &p =
            frames[static_cast<size_t>(f) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
    }
    server.drain();

    // The heartbeat thread samples every 5ms; give it a few periods.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    for (;;) {
        {
            std::lock_guard<std::mutex> lock(mutex);
            if (!beats.empty())
                break;
        }
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "heartbeat never fired";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    server.unsubscribe(token);

    const ServerStats stats = server.stats();
    ASSERT_EQ(stats.streams.size(), 1u);
    EXPECT_EQ(stats.streams[0].completed, 12);
    EXPECT_EQ(stats.streams[0].queueDepth, 0);
    EXPECT_EQ(stats.streams[0].inFlight, 0);
    EXPECT_EQ(stats.delivered, stats.accepted);
    EXPECT_GT(stats.workers, 0);
    EXPECT_GE(stats.poolHitRate, 0.0);
    EXPECT_LE(stats.poolHitRate, 1.0);
    // The ISM stages recycle pixel buffers through each stream's
    // pool; after 12 frames the arena must have seen traffic.
    EXPECT_GT(stats.poolHits + stats.poolMisses, 0u);
    server.stop();

    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_FALSE(beats.empty());
    EXPECT_EQ(beats.back().streams.size(), 1u);
}

TEST(Serve, HotPathAllocationFreeAtSteadyState)
{
    // Single-threaded serving (manualDispatch) with a paused stream:
    // the measured region exercises submission (ring enqueue),
    // routing, ticketing, shedding, and — via the inline manual
    // stop() — ordered shed delivery, with zero heap traffic.
    // (AllocTracker counts every thread, so the pipeline-dispatch
    // side, which allocates by documented exception, stays out of
    // the picture by keeping the stream paused.)
    int delivered = 0;
    int shed = 0;

    ServerConfig sc;
    sc.manualDispatch = true;
    sc.workers = 2;
    sc.queueCapacity = 4;
    Server server(sc);
    StreamConfig cfg;
    cfg.params = testParams(/*propagation_window=*/1000);
    cfg.matcher = testMatcher();
    cfg.maxQueued = 64;
    cfg.maxInFlight = 1;
    cfg.paused = true;
    cfg.onResult = [&delivered, &shed](ServeResult &&r) {
        ++delivered;
        if (r.status == ResultStatus::Shed)
            ++shed;
    };
    const StreamId id = server.openStream(std::move(cfg));

    const auto frames = makeFrames(2, 88);

    // Warm-up: one lap of the ring, every pending slot, and the
    // dispatcher scratch see the frame shape once.
    for (int i = 0; i < 80; ++i) {
        const FramePair &p =
            frames[static_cast<size_t>(i) % frames.size()];
        ASSERT_EQ(server.submit(id, p.left, p.right),
                  SubmitStatus::Accepted);
        server.pump();
    }

    {
        ASV_ASSERT_NO_ALLOC;
        for (int i = 0; i < 100; ++i) {
            const FramePair &p =
                frames[static_cast<size_t>(i) % frames.size()];
            server.submit(id, p.left, p.right);
            server.pump();
        }
        server.stop(); // inline: delivers the whole backlog as Shed
    }

    // 180 accepted; 64 still pending at stop — every one reported.
    EXPECT_EQ(delivered, 180);
    EXPECT_EQ(shed, 180);
}

TEST(Serve, FrameQueueAllocationFreeAfterWarmup)
{
    const auto frames = makeFrames(2, 99);
    FrameQueue queue(4);
    FrameQueue::Item item;

    // Two laps warm every cell (and the swap partner).
    for (int i = 0; i < 8; ++i) {
        ASSERT_TRUE(
            queue.tryEnqueue(0, frames[static_cast<size_t>(i) % 2].left,
                             frames[static_cast<size_t>(i) % 2].right));
        ASSERT_TRUE(queue.tryDequeue(item));
    }

    {
        ASV_ASSERT_NO_ALLOC;
        for (int i = 0; i < 32; ++i) {
            queue.tryEnqueue(0, frames[static_cast<size_t>(i) % 2].left,
                             frames[static_cast<size_t>(i) % 2].right);
            queue.tryDequeue(item);
        }
    }
    EXPECT_EQ(queue.approxSize(), 0);
}

} // namespace
