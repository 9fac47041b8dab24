#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <utility>

#include "common/logging.hh"

namespace asvbench
{

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1a(const asv::image::Image &img)
{
    const int32_t dims[2] = {img.width(), img.height()};
    return fnv1a(img.data(), size_t(img.size()) * sizeof(float),
                 fnv1a(dims, sizeof(dims)));
}

bool
bitEqual(const asv::image::Image &a, const asv::image::Image &b)
{
    return a.width() == b.width() && a.height() == b.height() &&
           std::memcmp(a.data(), b.data(),
                       size_t(a.size()) * sizeof(float)) == 0;
}

namespace
{

/** 1-based nearest rank ceil(q * n), robust to q * n landing a hair
 *  above an integer in floating point. */
size_t
nearestRank(size_t n, double q)
{
    const double r = std::ceil(q * double(n) - 1e-9);
    return std::clamp<size_t>(size_t(std::max(r, 1.0)), 1, n);
}

} // namespace

size_t
samplesBeyond(size_t n, double q)
{
    return n == 0 ? 0 : n - nearestRank(n, q);
}

size_t
minSamplesFor(double q, size_t beyond)
{
    size_t n = 1;
    while (samplesBeyond(n, q) < beyond)
        ++n;
    return n;
}

double
percentile(std::vector<double> samples, double q, size_t beyond)
{
    panic_if(samplesBeyond(samples.size(), q) < beyond,
             "p", q * 100, " needs ", minSamplesFor(q, beyond),
             " samples, have ", samples.size());
    const size_t k = nearestRank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + (k - 1),
                     samples.end());
    return samples[k - 1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0.0;
    const size_t k = nearestRank(samples.size(), 0.5);
    std::nth_element(samples.begin(), samples.begin() + (k - 1),
                     samples.end());
    return samples[k - 1];
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double s = 0.0;
    for (double v : samples)
        s += v;
    return s / double(samples.size());
}

double
parseVmHwmMb(const std::string &status_text)
{
    std::istringstream in(status_text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        std::istringstream fields(line.substr(6));
        double kb = -1.0;
        std::string unit;
        if (fields >> kb >> unit && unit == "kB")
            return kb / 1024.0;
        return -1.0;
    }
    return -1.0;
}

double
peakRssMb()
{
    std::ifstream f("/proc/self/status");
    std::stringstream text;
    text << f.rdbuf();
    const double mb = parseVmHwmMb(text.str());
    if (mb >= 0.0)
        return mb;
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // Linux reports kB
}

// ------------------------------------------------------------ Tracer

namespace
{

int
threadId()
{
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
}

/** Spans open on this thread, innermost last, tagged by tracer. */
thread_local std::vector<std::pair<const Tracer *, int>> open_spans;

/** JSON string literal with quotes, backslashes and control
 *  characters escaped. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace

Tracer::Tracer() : epoch_(Clock::now()) {}

int
Tracer::begin(const char *name, int64_t frame)
{
    int parent = -1;
    for (auto it = open_spans.rbegin(); it != open_spans.rend(); ++it) {
        if (it->first == this) {
            parent = it->second;
            break;
        }
    }
    Span s;
    s.name = name;
    s.parent = parent;
    s.frame = frame;
    s.tid = threadId();
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = int(spans_.size());
        if (s.frame < 0 && parent >= 0)
            s.frame = spans_[size_t(parent)].frame;
        s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - epoch_)
                        .count();
        spans_.push_back(std::move(s));
    }
    open_spans.emplace_back(this, id);
    return id;
}

void
Tracer::end(int id)
{
    const int64_t now_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - epoch_)
            .count();
    panic_if(open_spans.empty() || open_spans.back().first != this ||
                 open_spans.back().second != id,
             "span ", id, " closed out of order");
    open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[size_t(id)].endNs = now_ns;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::writeChromeJson(std::ostream &os) const
{
    const std::vector<Span> all = spans();
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    os << std::fixed << std::setprecision(3);
    for (size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        os << (i ? ",\n" : "\n") << "{\"name\":" << jsonString(s.name)
           << ",\"cat\":\"asv\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << double(s.startNs) / 1e3
           << ",\"dur\":" << double(s.endNs - s.startNs) / 1e3
           << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
           << ",\"frame\":" << s.frame << "}}";
    }
    os << "\n]}\n";
    os.unsetf(std::ios::floatfield);
}

std::vector<int64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 && size_t(s.parent) < spans.size())
            children[size_t(s.parent)].emplace_back(s.startNs, s.endNs);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const int64_t lo = spans[i].startNs, hi = spans[i].endNs;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        int64_t covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [a, b] : kids) {
            a = std::max(a, lo);
            b = std::min(b, hi);
            if (b <= a)
                continue;
            if (a > cur_hi) {
                covered += std::max<int64_t>(0, cur_hi - cur_lo);
                cur_lo = a;
                cur_hi = b;
            } else {
                cur_hi = std::max(cur_hi, b);
            }
        }
        covered += std::max<int64_t>(0, cur_hi - cur_lo);
        self[i] = (hi - lo) - covered;
    }
    return self;
}

std::vector<double>
spanMs(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &s : spans) {
        if (s.name == name)
            out.push_back(double(s.endNs - s.startNs) / 1e6);
    }
    return out;
}

void
printReport(std::ostream &os, const std::string &workload,
            const RunResult &r)
{
    os << std::setprecision(17);
    for (const Metric &m : r.metrics) {
        os << workload << "  " << std::left << std::setw(24) << m.name
           << std::right << " " << m.value << " " << m.unit
           << "  (n=" << m.samples << ")\n";
    }
    os << workload << "  attempted=" << r.attempted
       << " failed=" << r.failed
       << " correct=" << (r.correct ? "true" : "false") << "\n";
    os << "{\"correct\": " << (r.correct ? "true" : "false")
       << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i) {
        const Metric &m = r.metrics[i];
        os << (i ? ", " : "") << jsonString(m.name)
           << ": {\"value\": " << m.value
           << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    os << "}}" << std::endl;
}

} // namespace asvbench
