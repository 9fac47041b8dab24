/**
 * @file
 * Helpers of the system benchmark: the percentile rule, output
 * hashing, peak-RSS reading, in-memory span tracing with self time,
 * Chrome trace-event output, and the metric report.
 *
 * Nothing here reaches into the library: spans are recorded around
 * calls into its public functions from the benchmark's own files.
 */

#ifndef ASVBENCH_HARNESS_HH
#define ASVBENCH_HARNESS_HH

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "image/image.hh"

namespace asvbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds between two steady-clock points. */
double msBetween(Clock::time_point from, Clock::time_point to);

/** 64-bit FNV-1a over raw bytes, continuing from hash @p h. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 0xcbf29ce484222325ull);

/** FNV-1a over an image's dimensions and pixel bytes. */
uint64_t fnv1a(const asv::image::Image &img);

/** True when two images have equal dimensions and identical bits. */
bool bitEqual(const asv::image::Image &a, const asv::image::Image &b);

/**
 * Samples strictly above the nearest-rank q-quantile of n samples:
 * the quantile is the ceil(q * n)-th smallest, so n - ceil(q * n)
 * samples lie beyond it.
 */
size_t samplesBeyond(size_t n, double q);

/** Smallest n that leaves at least @p beyond samples past the
 *  nearest-rank q-quantile. */
size_t minSamplesFor(double q, size_t beyond = 10);

/**
 * Nearest-rank q-quantile (q in (0, 1]) of @p samples. Panics when
 * fewer than @p beyond samples lie past it: a percentile is reported
 * only when the sample supports it.
 */
double percentile(std::vector<double> samples, double q,
                  size_t beyond = 10);

/** Median (nearest-rank, no support rule) of a non-empty sample;
 *  0 for an empty one. */
double median(std::vector<double> samples);

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &samples);

/**
 * Peak resident set in MB (1 MB = 2^20 bytes) from the VmHWM line of
 * a /proc/<pid>/status text; negative when the line is missing.
 */
double parseVmHwmMb(const std::string &status_text);

/** Peak resident set of this process in MB: VmHWM from
 *  /proc/self/status, falling back to getrusage(). */
double peakRssMb();

/** One traced interval. Times are ns since the tracer's epoch. */
struct Span
{
    std::string name;
    int64_t startNs = 0;
    int64_t endNs = 0;
    int parent = -1;     //!< index of the enclosing span, -1 = root
    int64_t frame = -1;  //!< frame the work belongs to, -1 = none
    int tid = 0;         //!< small per-thread id
};

/**
 * In-memory span recorder, safe to use from several threads. The
 * parent of a new span is the innermost span still open on the
 * calling thread, so nesting follows the call stack without the
 * callee knowing its caller.
 */
class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Open a span; returns its id for end(). A span without a
     *  frame (-1) inherits its parent's. */
    int begin(const char *name, int64_t frame);

    /** Close span @p id (must be the innermost open on this thread). */
    void end(int id);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write all spans as Chrome trace-event JSON ("X" events). */
    void writeChromeJson(std::ostream &os) const;

  private:
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< guarded by mutex_
};

/** RAII span; a null tracer makes it a no-op. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name, int64_t frame = -1)
        : tracer_(tracer), id_(tracer ? tracer->begin(name, frame) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int id_;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by the union of its direct children (clipped to
 * the span). Indexed like @p spans.
 */
std::vector<int64_t> selfTimesNs(const std::vector<Span> &spans);

/** Durations in ms of the spans named @p name. */
std::vector<double> spanMs(const std::vector<Span> &spans,
                           const std::string &name);

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 0; //!< sample count behind the value
};

/** Outcome of one workload run. */
struct RunResult
{
    int64_t attempted = 0; //!< frames submitted in the timed phase
    int64_t failed = 0;    //!< frames not delivered Ok and verified
    bool correct = true;   //!< every output check passed
    std::vector<Metric> metrics;
};

/**
 * Print one human-readable line per metric (name, value, unit, n),
 * then the single-line JSON result object as the last line.
 */
void printReport(std::ostream &os, const std::string &workload,
                 const RunResult &r);

} // namespace asvbench

#endif // ASVBENCH_HARNESS_HH
