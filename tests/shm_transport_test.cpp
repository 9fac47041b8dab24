/**
 * @file
 * SHM frame-transport integrity suite.
 *
 * The transport's promise is "a frame you read is exactly the frame
 * the writer published, or you are told why not" — so most of this
 * suite attacks the segment on purpose: scribbling on payload,
 * checksum and sequence words through a second read-write mapping
 * (checksum detection, seqlock torn-read rejection), lapping the
 * ring (Overwritten), and polling ahead of the writer (NotReady).
 * The cross-process tests fork() real reader and writer children in
 * both directions, because in-process round-trips cannot catch a
 * mapping that accidentally depends on process-local state.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "data/scene.hh"
#include "expect_invalid.hh"
#include "image/image.hh"
#include "serve/server.hh"
#include "serve/shm_transport.hh"
#include "stereo/matcher.hh"

namespace
{

using namespace asv;
using namespace asv::serve;

constexpr int kW = 32;
constexpr int kH = 32;

std::string
makeName(const std::string &suffix)
{
    return "/asv_shm_test_" + std::to_string(::getpid()) + "_" +
           suffix;
}

struct FramePair
{
    image::Image left;
    image::Image right;
};

std::vector<FramePair>
makeFrames(int count, uint64_t seed)
{
    data::SceneConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.maxDisparity = 10.f;
    const auto seq = data::generateSequence(cfg, count, seed);
    std::vector<FramePair> frames;
    for (const auto &f : seq.frames)
        frames.push_back({f.left, f.right});
    return frames;
}

bool
sameImage(const image::Image &a, const image::Image &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           a.maxAbsDiff(b) == 0.0;
}

/**
 * A second, read-write mapping of an existing segment — the "buggy
 * co-tenant" the checksum exists to catch. Word offsets come from
 * shm_layout, the public contract for external producers.
 */
class RwMap
{
  public:
    explicit RwMap(const std::string &name)
    {
        const int fd = ::shm_open(name.c_str(), O_RDWR, 0600);
        EXPECT_GE(fd, 0);
        struct ::stat st = {};
        EXPECT_EQ(::fstat(fd, &st), 0);
        bytes_ = static_cast<size_t>(st.st_size);
        map_ = ::mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
        ::close(fd);
        EXPECT_NE(map_, MAP_FAILED);
    }

    ~RwMap()
    {
        if (map_ != MAP_FAILED)
            ::munmap(map_, bytes_);
    }

    std::atomic<uint64_t> &
    word(size_t byte_offset)
    {
        return *reinterpret_cast<std::atomic<uint64_t> *>(
            static_cast<char *>(map_) + byte_offset);
    }

  private:
    void *map_ = MAP_FAILED;
    size_t bytes_ = 0;
};

TEST(ShmTransport, LayoutSanity)
{
    const size_t stride = shm_layout::slotStride(kW, kH);
    EXPECT_EQ(stride % 64, 0u);
    EXPECT_GE(stride, shm_layout::slotPayloadOffset() +
                          shm_layout::payloadWords(kW, kH) * 8);
    EXPECT_EQ(shm_layout::regionBytes(kW, kH, 4),
              shm_layout::headerBytes() + 4 * stride);
    EXPECT_EQ(shm_layout::slotOffset(3, kW, kH),
              shm_layout::headerBytes() + 3 * stride);

    // The checksum covers identity *and* payload: any change moves
    // it.
    const std::vector<uint64_t> payload = {1, 2, 3};
    const uint64_t base = shm_layout::frameChecksum(
        7, 0, kW, kH, payload.data(), payload.size());
    EXPECT_EQ(shm_layout::frameChecksum(7, 0, kW, kH, payload.data(),
                                        payload.size()),
              base);
    EXPECT_NE(shm_layout::frameChecksum(8, 0, kW, kH, payload.data(),
                                        payload.size()),
              base);
    EXPECT_NE(shm_layout::frameChecksum(7, 1, kW, kH, payload.data(),
                                        payload.size()),
              base);
    std::vector<uint64_t> tweaked = payload;
    tweaked[2] ^= 1;
    EXPECT_NE(shm_layout::frameChecksum(7, 0, kW, kH, tweaked.data(),
                                        tweaked.size()),
              base);
}

TEST(ShmTransport, RoundTripInProcess)
{
    const std::string name = makeName("roundtrip");
    const auto frames = makeFrames(3, 101);
    ShmFrameWriter writer(name, kW, kH, 4);
    ShmFrameReader reader(name);

    for (size_t f = 0; f < frames.size(); ++f)
        EXPECT_EQ(writer.write(static_cast<StreamId>(f % 2),
                               frames[f].left, frames[f].right),
                  f);
    EXPECT_EQ(reader.nextFrameId(), 3u);

    ShmFrame out;
    for (size_t f = 0; f < frames.size(); ++f) {
        ASSERT_EQ(reader.tryRead(f, out), ShmReadStatus::Ok);
        EXPECT_EQ(out.frameId, f);
        EXPECT_EQ(out.stream, static_cast<StreamId>(f % 2));
        EXPECT_TRUE(sameImage(out.left, frames[f].left));
        EXPECT_TRUE(sameImage(out.right, frames[f].right));
    }
}

TEST(ShmTransport, NotReadyAndOverwrittenClassification)
{
    const std::string name = makeName("laps");
    const auto frames = makeFrames(3, 202);
    ShmFrameWriter writer(name, kW, kH, 2);
    ShmFrameReader reader(name);

    ShmFrame out;
    // Nothing written yet: slot 0 is virgin.
    EXPECT_EQ(reader.tryRead(0, out), ShmReadStatus::NotReady);

    for (const auto &f : frames)
        writer.write(0, f.left, f.right);

    // Frame 2 lapped slot 0: frame 0 is gone and says so.
    EXPECT_EQ(reader.tryRead(0, out), ShmReadStatus::Overwritten);
    ASSERT_EQ(reader.tryRead(1, out), ShmReadStatus::Ok);
    EXPECT_TRUE(sameImage(out.left, frames[1].left));
    ASSERT_EQ(reader.tryRead(2, out), ShmReadStatus::Ok);
    EXPECT_TRUE(sameImage(out.right, frames[2].right));
    // Ahead of the writer.
    EXPECT_EQ(reader.tryRead(3, out), ShmReadStatus::NotReady);
}

TEST(ShmTransport, CorruptedSlotDetectedByChecksum)
{
    const std::string name = makeName("corrupt");
    const auto frames = makeFrames(1, 303);
    ShmFrameWriter writer(name, kW, kH, 2);
    ShmFrameReader reader(name);
    writer.write(3, frames[0].left, frames[0].right);

    RwMap rw(name);
    const size_t slot = shm_layout::slotOffset(0, kW, kH);
    std::atomic<uint64_t> &payload_word =
        rw.word(slot + shm_layout::slotPayloadOffset());

    ShmFrame out;
    ASSERT_EQ(reader.tryRead(0, out), ShmReadStatus::Ok);

    // A co-tenant flips a payload bit without touching the seqlock:
    // the read is stable, the checksum catches it anyway.
    const uint64_t good = payload_word.load();
    payload_word.store(good ^ (1ull << 17));
    EXPECT_EQ(reader.tryRead(0, out), ShmReadStatus::Corrupt);
    payload_word.store(good);
    EXPECT_EQ(reader.tryRead(0, out), ShmReadStatus::Ok);
    EXPECT_TRUE(sameImage(out.left, frames[0].left));

    // Corrupting the stored checksum itself is just as detectable.
    std::atomic<uint64_t> &sum_word =
        rw.word(slot + shm_layout::slotChecksumOffset());
    const uint64_t sum = sum_word.load();
    sum_word.store(sum ^ 0xffull);
    EXPECT_EQ(reader.tryRead(0, out), ShmReadStatus::Corrupt);
    sum_word.store(sum);
    EXPECT_EQ(reader.tryRead(0, out), ShmReadStatus::Ok);
}

TEST(ShmTransport, TornReadRejectedBySeqlock)
{
    const std::string name = makeName("torn");
    const auto frames = makeFrames(1, 404);
    ShmFrameWriter writer(name, kW, kH, 2);
    ShmFrameReader reader(name);
    writer.write(0, frames[0].left, frames[0].right);

    RwMap rw(name);
    // Sequence word sits at the top of the slot.
    std::atomic<uint64_t> &seq =
        rw.word(shm_layout::slotOffset(0, kW, kH));
    const uint64_t published = seq.load();
    EXPECT_EQ(published % 2, 0u) << "published slots have even seq";

    // Freeze the slot mid-"write": an odd sequence means a writer is
    // inside the critical section, so every retry sees a torn read
    // and tryRead gives up with NotReady — it must never hand out
    // the (potentially half-updated) payload as Ok.
    ShmFrame out;
    seq.store(published + 1);
    EXPECT_EQ(reader.tryRead(0, out), ShmReadStatus::NotReady);

    // Writer "finishes": the very same slot reads clean again.
    seq.store(published);
    ASSERT_EQ(reader.tryRead(0, out), ShmReadStatus::Ok);
    EXPECT_TRUE(sameImage(out.left, frames[0].left));
    EXPECT_TRUE(sameImage(out.right, frames[0].right));
}

TEST(ShmTransport, ReaderRejectsMissingAndMangledSegments)
{
    EXPECT_THROW(ShmFrameReader(makeName("nonexistent")),
                 std::runtime_error);

    const std::string name = makeName("badmagic");
    ShmFrameWriter writer(name, kW, kH, 2);
    RwMap rw(name);
    std::atomic<uint64_t> &magic = rw.word(0);
    const uint64_t good = magic.load();
    EXPECT_EQ(good, shm_layout::kMagic);
    magic.store(good ^ 0xdeadull);
    EXPECT_THROW(ShmFrameReader{name}, std::runtime_error);
    magic.store(good);
    EXPECT_NO_THROW(ShmFrameReader{name});
}

TEST(ShmTransport, WriterRejectsBadGeometry)
{
    // Rejected before any segment is created.
    const std::string name = makeName("badgeometry");
    testref::expectInvalid([&] { ShmFrameWriter(name, kW, kH, 1); },
                           ">= 2 slots");
    testref::expectInvalid([&] { ShmFrameWriter(name, 0, 0, 2); },
                           "dimensions must be positive");
    EXPECT_THROW(ShmFrameReader{name}, std::runtime_error);

    ShmFrameWriter writer(name, kW, kH, 2);
    const auto frames = makeFrames(1, 3);
    const image::Image narrow(kW / 2, kH, 0.f);
    testref::expectInvalid(
        [&] { (void)writer.write(0, frames[0].left, narrow); },
        "SHM write of a 32x32 / 16x32 pair into a 32x32 segment");
    testref::expectInvalid([&] { (void)writer.write(0, narrow, narrow); },
                           "SHM write of a 16x32");
    // Nothing was published; the writer still works.
    EXPECT_EQ(writer.write(0, frames[0].left, frames[0].right), 0u);
}

TEST(ShmTransport, CrossProcessChildReads)
{
    const std::string name = makeName("fork_read");
    constexpr int kFrames = 4;
    constexpr uint64_t kSeed = 505;

    // Segment exists before the fork, so the child's reader cannot
    // race the creation.
    ShmFrameWriter writer(name, kW, kH, kFrames + 1);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: independently regenerate the deterministic frames
        // and wait for the parent to publish them.
        const auto expect = makeFrames(kFrames, kSeed);
        ShmFrameReader reader(name);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(30);
        while (reader.nextFrameId() <
               static_cast<uint64_t>(kFrames)) {
            if (std::chrono::steady_clock::now() > deadline)
                ::_exit(2);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
        ShmFrame out;
        for (int f = 0; f < kFrames; ++f) {
            if (reader.tryRead(static_cast<uint64_t>(f), out) !=
                ShmReadStatus::Ok)
                ::_exit(3);
            if (out.stream != 9 ||
                !sameImage(out.left,
                           expect[static_cast<size_t>(f)].left) ||
                !sameImage(out.right,
                           expect[static_cast<size_t>(f)].right))
                ::_exit(4);
        }
        ::_exit(0);
    }

    const auto frames = makeFrames(kFrames, kSeed);
    for (const auto &f : frames)
        writer.write(9, f.left, f.right);

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0)
        << "child reader failed (see exit code)";
}

TEST(ShmTransport, CrossProcessChildWrites)
{
    const std::string name = makeName("fork_write");
    constexpr int kFrames = 3;
    constexpr uint64_t kSeed = 606;

    int ready_pipe[2];
    int done_pipe[2];
    ASSERT_EQ(::pipe(ready_pipe), 0);
    ASSERT_EQ(::pipe(done_pipe), 0);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Child: own the writer end-to-end. _exit() skips the writer
        // destructor on purpose — the parent unlinks the segment, so
        // its mapping outlives this process (crash-tolerance shape).
        ::close(ready_pipe[0]);
        ::close(done_pipe[1]);
        {
            ShmFrameWriter child_writer(name, kW, kH, kFrames + 1);
            const auto frames = makeFrames(kFrames, kSeed);
            for (const auto &f : frames)
                child_writer.write(2, f.left, f.right);
            char byte = 'w';
            if (::write(ready_pipe[1], &byte, 1) != 1)
                ::_exit(2);
            // Hold the segment open until the parent has read it.
            if (::read(done_pipe[0], &byte, 1) != 1)
                ::_exit(3);
            ::_exit(0);
        }
    }

    ::close(ready_pipe[1]);
    ::close(done_pipe[0]);
    char byte = 0;
    ASSERT_EQ(::read(ready_pipe[0], &byte, 1), 1);

    {
        const auto expect = makeFrames(kFrames, kSeed);
        ShmFrameReader reader(name);
        EXPECT_EQ(reader.nextFrameId(),
                  static_cast<uint64_t>(kFrames));
        ShmFrame out;
        for (int f = 0; f < kFrames; ++f) {
            ASSERT_EQ(reader.tryRead(static_cast<uint64_t>(f), out),
                      ShmReadStatus::Ok);
            EXPECT_EQ(out.stream, 2);
            EXPECT_TRUE(
                sameImage(out.left, expect[static_cast<size_t>(f)].left));
            EXPECT_TRUE(sameImage(out.right,
                                  expect[static_cast<size_t>(f)].right));
        }
    }

    ASSERT_EQ(::write(done_pipe[1], &byte, 1), 1);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    ::close(ready_pipe[0]);
    ::close(done_pipe[1]);
    ::shm_unlink(name.c_str()); // the child _exit()ed past its dtor
}

TEST(ShmTransport, IngestBridgesFramesIntoServer)
{
    const std::string name = makeName("ingest");
    const auto frames = makeFrames(4, 707);

    // Two slots, four frames written before the reader catches up:
    // frames 0 and 1 are lapped and must be *counted*, frames 2 and
    // 3 flow into the server and come back in order.
    ShmFrameWriter writer(name, kW, kH, 2);
    ShmFrameReader reader(name);
    for (const auto &f : frames)
        writer.write(0, f.left, f.right);

    std::vector<ServeResult> results;
    Server server;
    StreamConfig cfg;
    cfg.params.propagationWindow = 3;
    cfg.params.maxDisparity = 16;
    cfg.matcher =
        stereo::makeMatcher("bm", "maxDisparity=16,blockRadius=2");
    cfg.onResult = [&results](ServeResult &&r) {
        results.push_back(std::move(r));
    };
    const StreamId id = server.openStream(std::move(cfg));

    uint64_t next = 0;
    const ShmIngestResult ingested =
        ingestShmFrames(reader, server, id, next);
    EXPECT_EQ(ingested.submitted, 2);
    EXPECT_EQ(ingested.skipped, 2);
    EXPECT_EQ(ingested.corrupt, 0);
    EXPECT_EQ(next, 4u);

    // Nothing new: the bridge is a polling no-op.
    const ShmIngestResult again =
        ingestShmFrames(reader, server, id, next);
    EXPECT_EQ(again.submitted, 0);

    server.drain();
    server.stop();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].ticket, 0);
    EXPECT_EQ(results[1].ticket, 1);
    EXPECT_EQ(results[0].status, ResultStatus::Ok);
    EXPECT_EQ(results[1].status, ResultStatus::Ok);
}

} // namespace
