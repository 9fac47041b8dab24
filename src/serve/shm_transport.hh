/**
 * @file
 * Shared-memory stereo-frame transport: seqlock slots + checksummed
 * headers for multi-process serving.
 *
 * The in-process submission path (FrameQueue) assumes the producer
 * can call into the server. Real deployments also have *external*
 * producers — a capture daemon, a sensor process, another language
 * runtime — and routing raw pixel data through a socket would copy
 * every frame twice through the kernel. This transport is the
 * zero-copy alternative (the caldera-sandbox synthetic-sensor ->
 * SHM -> reader harness is the exemplar shape): the writer owns a
 * POSIX shared-memory segment laid out as a ring of fixed-size
 * frame slots; readers map it read-only and poll.
 *
 * Slot protocol (seqlock):
 *
 *  - every slot carries a sequence counter; the writer makes it odd
 *    before touching the payload and even (= 2 more than before)
 *    after, with release ordering on the final store;
 *  - a reader snapshots the counter, copies the slot out, and
 *    re-reads the counter: odd or changed means a torn read —
 *    retry. No reader ever blocks the writer (wait-free writes);
 *  - every slot additionally carries an FNV-1a checksum over the
 *    header fields and payload, computed by the writer inside the
 *    write critical section. A reader that passes the seqlock check
 *    still verifies the checksum, so a corrupted segment (a buggy
 *    or hostile co-tenant scribbling on the mapping) is *detected*,
 *    never served (tests/shm_transport_test.cpp corrupts slots on
 *    purpose and asserts this).
 *
 * Payload words are stored through std::atomic<uint64_t> with
 * relaxed ordering (the seqlock provides the synchronization): this
 * keeps the by-design racy seqlock pattern well-defined for the
 * thread-sanitized in-process tests, and the atomics are lock-free/
 * address-free on every supported target (statically asserted), so
 * the protocol is valid across processes too.
 *
 * Frames are identified by a monotonically increasing frameId
 * assigned by the writer; frame f lives in slot f % slotCount until
 * the writer laps the ring. Readers track the next frameId they
 * want and learn from the slot header whether it is not yet
 * written, ready, or already overwritten (they fell a full lap
 * behind — frames lost to lag are reported, not silently skipped).
 */

#ifndef ASV_SERVE_SHM_TRANSPORT_HH
#define ASV_SERVE_SHM_TRANSPORT_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "image/image.hh"
#include "serve/frame_queue.hh"

namespace asv::serve
{

/** One frame copied out of the transport. */
struct ShmFrame
{
    uint64_t frameId = 0;
    StreamId stream = -1;
    image::Image left;
    image::Image right;
};

/** Outcome of ShmFrameReader::tryRead(). */
enum class ShmReadStatus
{
    Ok,          //!< frame copied out, checksum verified
    NotReady,    //!< not yet written (or persistently torn)
    Overwritten, //!< writer lapped the ring past this frameId
    Corrupt,     //!< stable read but checksum mismatch
};

/**
 * Byte layout of the shared segment, exposed so external producers
 * (and the integrity tests) can compute offsets without this
 * library. All fields are 8-byte aligned; payload words pack the
 * left image's floats first, then the right's, little-endian host
 * order.
 */
namespace shm_layout
{

constexpr uint64_t kMagic = 0x41535653'484d3031ull; // "ASVSHM01"

/** Bytes of the segment-global header at offset 0. */
size_t headerBytes();

/** Payload words (uint64) per slot for a width x height pair. */
size_t payloadWords(int width, int height);

/** Bytes of one slot (header + payload), 64-byte aligned. */
size_t slotStride(int width, int height);

/** Byte offset of slot @p index. */
size_t slotOffset(int index, int width, int height);

/** Byte offset of the payload within a slot. */
size_t slotPayloadOffset();

/** Byte offset of the checksum field within a slot. */
size_t slotChecksumOffset();

/** Total segment size. */
size_t regionBytes(int width, int height, int slot_count);

/** The checksum the writer stores: FNV-1a 64 over the slot header
 *  identity fields and every payload word. */
uint64_t frameChecksum(uint64_t frame_id, StreamId stream, int width,
                       int height, const uint64_t *payload,
                       size_t payload_words);

} // namespace shm_layout

/**
 * Producer side: creates (and on destruction unlinks) the named
 * segment and publishes frames into it. Single writer per segment;
 * write() is safe from one thread at a time.
 */
class ShmFrameWriter
{
  public:
    /**
     * Create segment @p name (shm_open O_CREAT|O_EXCL — a stale
     * segment with the same name is replaced) sized for
     * @p slot_count slots of width x height frames. Throws
     * std::invalid_argument for an empty frame or fewer than two
     * slots, and std::runtime_error when the segment cannot be
     * created or mapped.
     */
    ShmFrameWriter(const std::string &name, int width, int height,
                   int slot_count);
    ~ShmFrameWriter();

    ShmFrameWriter(const ShmFrameWriter &) = delete;
    ShmFrameWriter &operator=(const ShmFrameWriter &) = delete;

    /**
     * Publish a stereo pair tagged for @p stream; returns the
     * frameId assigned (0, 1, 2, ...). The images must match the
     * segment's frame dimensions (std::invalid_argument otherwise).
     * Wait-free with respect to
     * readers; overwrites the slot of frameId - slotCount.
     */
    uint64_t write(StreamId stream, const image::Image &left,
                   const image::Image &right);

    const std::string &name() const { return name_; }
    int width() const { return width_; }
    int height() const { return height_; }
    int slotCount() const { return slotCount_; }

  private:
    std::string name_;
    int width_ = 0;
    int height_ = 0;
    int slotCount_ = 0;
    uint64_t nextFrameId_ = 0;
    void *map_ = nullptr;
    size_t mapBytes_ = 0;
};

/**
 * Consumer side: maps an existing segment (read-only) and copies
 * frames out. Any number of readers may poll the same segment; one
 * reader instance is single-threaded.
 */
class ShmFrameReader
{
  public:
    /** Open segment @p name; throws std::runtime_error when the
     *  segment does not exist or carries a bad magic/geometry. */
    explicit ShmFrameReader(const std::string &name);
    ~ShmFrameReader();

    ShmFrameReader(const ShmFrameReader &) = delete;
    ShmFrameReader &operator=(const ShmFrameReader &) = delete;

    /**
     * Copy frame @p frame_id out of its slot. @p out's images are
     * refilled in place (buffer-reusing — allocation-free at steady
     * shape). Retries a bounded number of torn reads internally.
     */
    ShmReadStatus tryRead(uint64_t frame_id, ShmFrame &out) const;

    /** frameId the writer will assign next (frames 0 .. this-1 have
     *  been published). */
    uint64_t nextFrameId() const;

    int width() const { return width_; }
    int height() const { return height_; }
    int slotCount() const { return slotCount_; }

  private:
    int width_ = 0;
    int height_ = 0;
    int slotCount_ = 0;
    void *map_ = nullptr;
    size_t mapBytes_ = 0;
};

} // namespace asv::serve

#endif // ASV_SERVE_SHM_TRANSPORT_HH
