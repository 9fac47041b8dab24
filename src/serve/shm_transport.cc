/**
 * @file
 * POSIX implementation of the seqlock shared-memory frame transport.
 *
 * Layout (all offsets in shm_layout so tests and external producers
 * can address the segment without this code):
 *
 *   segment header, 64 bytes:
 *     word 0  magic ("ASVSHM01")
 *     word 1  width
 *     word 2  height
 *     word 3  slotCount
 *     word 4  nextFrameId   (release-published after each write)
 *
 *   slot i at headerBytes() + i * slotStride(), 64-byte aligned:
 *     word 0  seq           (seqlock counter; odd = write in flight)
 *     word 1  frameTag      (frameId + 1; 0 = never written)
 *     word 2  stream        (StreamId, zero-extended)
 *     word 3  checksum      (FNV-1a 64, see frameChecksum())
 *     payload at slotPayloadOffset(): left floats then right floats,
 *     two per word, odd tail padded with 0.0f.
 *
 * Memory-ordering recipe (the fence-free variant of Boehm, "Can
 * seqlocks get along with programming language memory models?" —
 * chosen over the classic fence version because gcc's TSan rejects
 * atomic_thread_fence outright): the writer publishes with
 *
 *     seq.store(odd, relaxed); <release payload stores>;
 *     seq.store(even, release);
 *
 * and the reader validates with
 *
 *     s1 = seq.load(acquire); <acquire payload loads>;
 *     s2 = seq.load(relaxed); accept iff s1 == s2 and even.
 *
 * If any payload load observed a word from an in-flight write, that
 * release store synchronizes-with the acquire load reading it and
 * carries the sequenced-before odd-seq store along, so s2 (which the
 * acquire loads pin after every payload load) observes the odd seq
 * (or a later one) and the read retries. Per-word acquire/release is
 * free on x86 and a ldar/stlr per 64-bit word on Arm. The checksum
 * then catches what the seqlock cannot: out-of-protocol corruption
 * of the mapped bytes.
 */

#include "serve/shm_transport.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/logging.hh"

namespace asv::serve
{

static_assert(std::atomic<uint64_t>::is_always_lock_free,
              "the SHM transport needs address-free 64-bit atomics");
static_assert(sizeof(std::atomic<uint64_t>) == sizeof(uint64_t),
              "atomic words must overlay raw segment words");

namespace
{

using AtomicWord = std::atomic<uint64_t>;

constexpr size_t kAlign = 64;
constexpr int kSeqWord = 0;
constexpr int kTagWord = 1;
constexpr int kStreamWord = 2;
constexpr int kChecksumWord = 3;

constexpr int kHdrMagic = 0;
constexpr int kHdrWidth = 1;
constexpr int kHdrHeight = 2;
constexpr int kHdrSlots = 3;
constexpr int kHdrNextFrame = 4;

/** Fold one little-endian word into an FNV-1a 64 state. */
inline uint64_t
fnvWord(uint64_t h, uint64_t word)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (word >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** The FNV-1a 64 state after the slot header words, in the order
 *  frameChecksum() folds them; the payload words follow. */
inline uint64_t
fnvHeader(uint64_t frame_id, uint64_t stream, int width, int height)
{
    uint64_t h = 0xcbf29ce484222325ull;
    h = fnvWord(h, frame_id);
    h = fnvWord(h, stream);
    h = fnvWord(h, static_cast<uint64_t>(width));
    return fnvWord(h, static_cast<uint64_t>(height));
}

inline AtomicWord *
wordsAt(void *map, size_t byte_offset)
{
    return reinterpret_cast<AtomicWord *>(
        static_cast<char *>(map) + byte_offset);
}

inline const AtomicWord *
wordsAt(const void *map, size_t byte_offset)
{
    return reinterpret_cast<const AtomicWord *>(
        static_cast<const char *>(map) + byte_offset);
}

/** Pack floats 2*i and 2*i+1 (0.0f past the end) into word i. */
inline uint64_t
packFloats(const float *src, int64_t count, size_t word)
{
    const int64_t i = static_cast<int64_t>(word) * 2;
    uint32_t lo = 0;
    uint32_t hi = 0;
    std::memcpy(&lo, &src[i], sizeof(lo));
    if (i + 1 < count)
        std::memcpy(&hi, &src[i + 1], sizeof(hi));
    return static_cast<uint64_t>(lo) |
           (static_cast<uint64_t>(hi) << 32);
}

inline void
unpackFloats(uint64_t w, float *dst, int64_t count, size_t word)
{
    const int64_t i = static_cast<int64_t>(word) * 2;
    const uint32_t lo = static_cast<uint32_t>(w);
    const uint32_t hi = static_cast<uint32_t>(w >> 32);
    std::memcpy(&dst[i], &lo, sizeof(lo));
    if (i + 1 < count)
        std::memcpy(&dst[i + 1], &hi, sizeof(hi));
}

inline void
ensureShape(image::Image &img, int w, int h)
{
    // Steady-state no-op: only a shape change replaces the storage.
    if (img.width() != w || img.height() != h)
        img = image::Image(w, h);
}

} // namespace

namespace shm_layout
{

size_t
headerBytes()
{
    return kAlign;
}

size_t
payloadWords(int width, int height)
{
    const size_t pixels =
        static_cast<size_t>(width) * static_cast<size_t>(height);
    const size_t words_per_image = (pixels + 1) / 2;
    return 2 * words_per_image;
}

size_t
slotStride(int width, int height)
{
    const size_t raw =
        slotPayloadOffset() + payloadWords(width, height) * 8;
    return (raw + kAlign - 1) & ~(kAlign - 1);
}

size_t
slotOffset(int index, int width, int height)
{
    return headerBytes() +
           static_cast<size_t>(index) * slotStride(width, height);
}

size_t
slotPayloadOffset()
{
    return kAlign;
}

size_t
slotChecksumOffset()
{
    return kChecksumWord * 8;
}

size_t
regionBytes(int width, int height, int slot_count)
{
    return headerBytes() + static_cast<size_t>(slot_count) *
                               slotStride(width, height);
}

uint64_t
frameChecksum(uint64_t frame_id, StreamId stream, int width,
              int height, const uint64_t *payload,
              size_t payload_words)
{
    uint64_t h = fnvHeader(frame_id, static_cast<uint32_t>(stream),
                           width, height);
    for (size_t i = 0; i < payload_words; ++i)
        h = fnvWord(h, payload[i]);
    return h;
}

} // namespace shm_layout

ShmFrameWriter::ShmFrameWriter(const std::string &name, int width,
                               int height, int slot_count)
    : name_(name), width_(width), height_(height),
      slotCount_(slot_count)
{
    fatal_if(width < 1 || height < 1,
             "SHM frame dimensions must be positive");
    fatal_if(slot_count < 2,
             "SHM transport needs >= 2 slots (the newest frame's "
             "predecessor must stay readable while it is written)");

    // Replace any stale segment left behind by a crashed writer.
    int fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR,
                        0600);
    if (fd < 0 && errno == EEXIST) {
        warn("replacing stale SHM segment ", name_);
        ::shm_unlink(name_.c_str());
        fd = ::shm_open(name_.c_str(), O_CREAT | O_EXCL | O_RDWR,
                        0600);
    }
    fatal_if(fd < 0, "shm_open(", name_,
             ") failed: ", std::strerror(errno));

    mapBytes_ = shm_layout::regionBytes(width_, height_, slotCount_);
    if (::ftruncate(fd, static_cast<off_t>(mapBytes_)) != 0) {
        const int err = errno;
        ::close(fd);
        ::shm_unlink(name_.c_str());
        fatal("ftruncate(", name_, ", ", mapBytes_,
              ") failed: ", std::strerror(err));
    }
    map_ = ::mmap(nullptr, mapBytes_, PROT_READ | PROT_WRITE,
                  MAP_SHARED, fd, 0);
    ::close(fd);
    if (map_ == MAP_FAILED) {
        map_ = nullptr;
        ::shm_unlink(name_.c_str());
        fatal("mmap(", name_, ") failed: ", std::strerror(errno));
    }

    // ftruncate delivered zero pages, so every slot already reads
    // as seq = 0 / frameTag = 0 (never written). Publish geometry,
    // magic last with release so a racing reader that sees the
    // magic also sees the geometry.
    AtomicWord *hdr = wordsAt(map_, 0);
    hdr[kHdrWidth].store(static_cast<uint64_t>(width_),
                         std::memory_order_relaxed);
    hdr[kHdrHeight].store(static_cast<uint64_t>(height_),
                          std::memory_order_relaxed);
    hdr[kHdrSlots].store(static_cast<uint64_t>(slotCount_),
                         std::memory_order_relaxed);
    hdr[kHdrNextFrame].store(0, std::memory_order_relaxed);
    hdr[kHdrMagic].store(shm_layout::kMagic,
                         std::memory_order_release);
}

ShmFrameWriter::~ShmFrameWriter()
{
    if (map_)
        ::munmap(map_, mapBytes_);
    ::shm_unlink(name_.c_str());
}

uint64_t
ShmFrameWriter::write(StreamId stream, const image::Image &left,
                      const image::Image &right)
{
    fatal_if(left.width() != width_ || left.height() != height_ ||
                 right.width() != width_ ||
                 right.height() != height_,
             "SHM write of a ", left.width(), "x", left.height(),
             " / ", right.width(), "x", right.height(),
             " pair into a ", width_, "x", height_, " segment");

    const uint64_t frame_id = nextFrameId_++;
    const int slot =
        static_cast<int>(frame_id % static_cast<uint64_t>(slotCount_));
    AtomicWord *slot_words = wordsAt(
        map_, shm_layout::slotOffset(slot, width_, height_));
    AtomicWord *payload = wordsAt(
        map_, shm_layout::slotOffset(slot, width_, height_) +
                  shm_layout::slotPayloadOffset());

    // Enter the write critical section: odd seq. The release payload
    // stores below carry this store's visibility to any reader that
    // observes in-flight data (file comment).
    const uint64_t s =
        slot_words[kSeqWord].load(std::memory_order_relaxed);
    slot_words[kSeqWord].store(s + 1, std::memory_order_relaxed);

    const int64_t pixels = static_cast<int64_t>(width_) * height_;
    const size_t words_per_image =
        shm_layout::payloadWords(width_, height_) / 2;

    uint64_t checksum = fnvHeader(
        frame_id, static_cast<uint32_t>(stream), width_, height_);
    for (size_t i = 0; i < words_per_image; ++i) {
        const uint64_t w = packFloats(left.data(), pixels, i);
        payload[i].store(w, std::memory_order_release);
        checksum = fnvWord(checksum, w);
    }
    for (size_t i = 0; i < words_per_image; ++i) {
        const uint64_t w = packFloats(right.data(), pixels, i);
        payload[words_per_image + i].store(w,
                                           std::memory_order_release);
        checksum = fnvWord(checksum, w);
    }
    slot_words[kTagWord].store(frame_id + 1,
                               std::memory_order_release);
    slot_words[kStreamWord].store(static_cast<uint32_t>(stream),
                                  std::memory_order_release);
    slot_words[kChecksumWord].store(checksum,
                                    std::memory_order_release);

    // Leave the critical section and publish the new frame count.
    slot_words[kSeqWord].store(s + 2, std::memory_order_release);
    wordsAt(map_, 0)[kHdrNextFrame].store(frame_id + 1,
                                          std::memory_order_release);
    return frame_id;
}

ShmFrameReader::ShmFrameReader(const std::string &name)
{
    const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
    if (fd < 0)
        throw std::runtime_error("shm_open(" + name +
                                 "): " + std::strerror(errno));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw std::runtime_error("fstat(" + name +
                                 "): " + std::strerror(errno));
    }
    mapBytes_ = static_cast<size_t>(st.st_size);
    if (mapBytes_ < shm_layout::headerBytes()) {
        ::close(fd);
        throw std::runtime_error("SHM segment " + name +
                                 " is too small for a header");
    }
    map_ = ::mmap(nullptr, mapBytes_, PROT_READ, MAP_SHARED, fd, 0);
    ::close(fd);
    if (map_ == MAP_FAILED) {
        map_ = nullptr;
        throw std::runtime_error("mmap(" + name +
                                 "): " + std::strerror(errno));
    }

    const AtomicWord *hdr = wordsAt(
        static_cast<const void *>(map_), 0);
    if (hdr[kHdrMagic].load(std::memory_order_acquire) !=
        shm_layout::kMagic) {
        ::munmap(map_, mapBytes_);
        map_ = nullptr;
        throw std::runtime_error("SHM segment " + name +
                                 " has a bad magic word");
    }
    width_ = static_cast<int>(
        hdr[kHdrWidth].load(std::memory_order_relaxed));
    height_ = static_cast<int>(
        hdr[kHdrHeight].load(std::memory_order_relaxed));
    slotCount_ = static_cast<int>(
        hdr[kHdrSlots].load(std::memory_order_relaxed));
    if (width_ < 1 || height_ < 1 || slotCount_ < 2 ||
        mapBytes_ <
            shm_layout::regionBytes(width_, height_, slotCount_)) {
        ::munmap(map_, mapBytes_);
        map_ = nullptr;
        throw std::runtime_error("SHM segment " + name +
                                 " has inconsistent geometry");
    }
}

ShmFrameReader::~ShmFrameReader()
{
    if (map_)
        ::munmap(map_, mapBytes_);
}

uint64_t
ShmFrameReader::nextFrameId() const
{
    return wordsAt(static_cast<const void *>(map_), 0)[kHdrNextFrame]
        .load(std::memory_order_acquire);
}

ShmReadStatus
ShmFrameReader::tryRead(uint64_t frame_id, ShmFrame &out) const
{
    const int slot = static_cast<int>(
        frame_id % static_cast<uint64_t>(slotCount_));
    const size_t base =
        shm_layout::slotOffset(slot, width_, height_);
    const AtomicWord *slot_words =
        wordsAt(static_cast<const void *>(map_), base);
    const AtomicWord *payload =
        wordsAt(static_cast<const void *>(map_),
                base + shm_layout::slotPayloadOffset());

    ensureShape(out.left, width_, height_);
    ensureShape(out.right, width_, height_);
    const int64_t pixels = static_cast<int64_t>(width_) * height_;
    const size_t words_per_image =
        shm_layout::payloadWords(width_, height_) / 2;

    // Bounded torn-read retry: a live writer holds the slot for a
    // short, bounded copy, so a handful of retries always suffices;
    // a crashed mid-write writer leaves seq odd forever and we
    // report NotReady instead of spinning.
    constexpr int kMaxRetries = 64;
    for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
        const uint64_t s1 =
            slot_words[kSeqWord].load(std::memory_order_acquire);
        if (s1 & 1)
            continue; // write in flight
        const uint64_t tag =
            slot_words[kTagWord].load(std::memory_order_acquire);
        const uint64_t stream =
            slot_words[kStreamWord].load(std::memory_order_acquire);
        const uint64_t stored_checksum =
            slot_words[kChecksumWord].load(
                std::memory_order_acquire);

        uint64_t checksum =
            fnvHeader(tag == 0 ? 0 : tag - 1, stream, width_, height_);
        for (size_t i = 0; i < words_per_image; ++i) {
            const uint64_t w =
                payload[i].load(std::memory_order_acquire);
            unpackFloats(w, out.left.data(), pixels, i);
            checksum = fnvWord(checksum, w);
        }
        for (size_t i = 0; i < words_per_image; ++i) {
            const uint64_t w = payload[words_per_image + i].load(
                std::memory_order_acquire);
            unpackFloats(w, out.right.data(), pixels, i);
            checksum = fnvWord(checksum, w);
        }

        // The acquire payload loads above pin this recheck after
        // every one of them; no standalone fence needed.
        const uint64_t s2 =
            slot_words[kSeqWord].load(std::memory_order_relaxed);
        if (s1 != s2)
            continue; // torn — the writer moved under us

        // Stable snapshot: classify it.
        if (tag == 0 || tag - 1 < frame_id)
            return ShmReadStatus::NotReady;
        if (tag - 1 > frame_id)
            return ShmReadStatus::Overwritten;
        if (checksum != stored_checksum)
            return ShmReadStatus::Corrupt;
        out.frameId = frame_id;
        out.stream = static_cast<StreamId>(
            static_cast<uint32_t>(stream));
        return ShmReadStatus::Ok;
    }
    return ShmReadStatus::NotReady;
}

} // namespace asv::serve
