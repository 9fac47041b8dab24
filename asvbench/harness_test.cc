/**
 * @file
 * Tests of the system benchmark's own helpers: the percentile rule
 * (ten samples beyond), self time, peak-RSS reading, the trace-event
 * JSON, and the output hash.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.hh"

namespace
{

using namespace asvbench;

// --------------------------------------------------- percentile rule

TEST(Percentile, TenSamplesBeyondP95NeedsTwoHundred)
{
    EXPECT_EQ(samplesBeyond(200, 0.95), 10u);
    EXPECT_EQ(samplesBeyond(199, 0.95), 9u);
    EXPECT_EQ(minSamplesFor(0.95), 200u);
    EXPECT_EQ(minSamplesFor(0.5), 20u);
    EXPECT_EQ(minSamplesFor(0.99), 1000u);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> v;
    for (int i = 200; i >= 1; --i)
        v.push_back(i);
    EXPECT_EQ(percentile(v, 0.95), 190.0);
    EXPECT_EQ(percentile(v, 0.5), 100.0);
    EXPECT_EQ(median(v), 100.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({}), 0.0);
}

TEST(PercentileDeathTest, RefusesUnsupportedPercentile)
{
    const std::vector<double> v(199, 1.0);
    EXPECT_DEATH(percentile(v, 0.95), "needs 200 samples");
}

// ------------------------------------------------------- self time

Span
span(int64_t start, int64_t end, int parent)
{
    Span s;
    s.name = "s";
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(SelfTime, SubtractsUnionOfChildrenClippedToParent)
{
    const std::vector<Span> spans = {
        span(0, 100, -1),  // root
        span(10, 30, 0),   // overlaps the next child
        span(20, 50, 0),
        span(70, 80, 0),
        span(90, 120, 0),  // runs past the root's end
        span(22, 28, 1),   // grandchild: not the root's child
    };
    const std::vector<int64_t> self = selfTimesNs(spans);
    ASSERT_EQ(self.size(), spans.size());
    EXPECT_EQ(self[0], 100 - (40 + 10 + 10));
    EXPECT_EQ(self[1], 20 - 6);
    EXPECT_EQ(self[2], 30);
    EXPECT_EQ(self[5], 6);
}

TEST(SelfTime, TracerNestingFollowsTheCallStackPerThread)
{
    Tracer tracer;
    {
        ScopedSpan frame(&tracer, "frame", 7);
        ScopedSpan stage(&tracer, "stage");
        std::thread other([&] { ScopedSpan s(&tracer, "worker", 3); });
        other.join();
    }
    const std::vector<Span> spans = tracer.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].frame, 7); // inherited from the parent
    EXPECT_EQ(spans[2].parent, -1); // other thread: no open parent
    EXPECT_EQ(spans[2].frame, 3);
    EXPECT_NE(spans[2].tid, spans[0].tid);
    for (const Span &s : spans)
        EXPECT_LE(s.startNs, s.endNs);
    const std::vector<int64_t> self = selfTimesNs(spans);
    EXPECT_LE(self[0], spans[0].endNs - spans[0].startNs -
                           (spans[1].endNs - spans[1].startNs));
}

TEST(SelfTime, NullTracerRecordsNothing)
{
    ScopedSpan s(nullptr, "nothing");
    SUCCEED();
}

// ----------------------------------------------------------- RSS

TEST(PeakRss, ParsesVmHwm)
{
    EXPECT_DOUBLE_EQ(parseVmHwmMb("Name:\tx\nVmPeak:\t 9999 kB\n"
                                  "VmHWM:\t    2048 kB\nVmRSS:\t 1 kB\n"),
                     2.0);
    EXPECT_LT(parseVmHwmMb("Name:\tx\nVmRSS:\t 1 kB\n"), 0.0);
    EXPECT_LT(parseVmHwmMb("VmHWM:\t garbage\n"), 0.0);
}

TEST(PeakRss, GrowsWhenMemoryIsTouched)
{
    const double before = peakRssMb();
    EXPECT_GT(before, 0.0);
    std::vector<char> block(size_t(64) << 20);
    std::memset(block.data(), 1, block.size());
    const double after = peakRssMb();
    EXPECT_GE(after, before + 60.0);
    EXPECT_EQ(block[block.size() / 2], 1);
}

// ------------------------------------------------------ trace JSON

/** Minimal strict JSON syntax checker (RFC 8259 value grammar). */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &s) : s_(s) {}

    bool
    valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return i_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() && std::strchr(" \t\r\n", s_[i_]))
            ++i_;
    }
    bool
    lit(const char *w)
    {
        const size_t n = std::strlen(w);
        if (s_.compare(i_, n, w) != 0)
            return false;
        i_ += n;
        return true;
    }
    bool
    string()
    {
        if (!lit("\""))
            return false;
        while (i_ < s_.size()) {
            const auto c = static_cast<unsigned char>(s_[i_++]);
            if (c == '"')
                return true;
            if (c < 0x20)
                return false;
            if (c == '\\') {
                if (i_ >= s_.size())
                    return false;
                const char e = s_[i_++];
                if (e == 'u') {
                    for (int k = 0; k < 4; ++k)
                        if (i_ >= s_.size() || !std::isxdigit(s_[i_++]))
                            return false;
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return false;
                }
            }
        }
        return false;
    }
    bool
    number()
    {
        const size_t start = i_;
        if (i_ < s_.size() && s_[i_] == '-')
            ++i_;
        if (i_ >= s_.size() || !std::isdigit(s_[i_]))
            return false;
        if (s_[i_] == '0')
            ++i_;
        else
            while (i_ < s_.size() && std::isdigit(s_[i_]))
                ++i_;
        if (i_ < s_.size() && s_[i_] == '.') {
            ++i_;
            if (i_ >= s_.size() || !std::isdigit(s_[i_]))
                return false;
            while (i_ < s_.size() && std::isdigit(s_[i_]))
                ++i_;
        }
        if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
            ++i_;
            if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-'))
                ++i_;
            if (i_ >= s_.size() || !std::isdigit(s_[i_]))
                return false;
            while (i_ < s_.size() && std::isdigit(s_[i_]))
                ++i_;
        }
        return i_ > start;
    }
    template <typename Item>
    bool
    sequence(char close, Item item)
    {
        ws();
        if (i_ < s_.size() && s_[i_] == close) {
            ++i_;
            return true;
        }
        for (;;) {
            ws();
            if (!item())
                return false;
            ws();
            if (i_ < s_.size() && s_[i_] == ',') {
                ++i_;
                continue;
            }
            if (i_ < s_.size() && s_[i_] == close) {
                ++i_;
                return true;
            }
            return false;
        }
    }
    bool
    value()
    {
        if (i_ >= s_.size())
            return false;
        switch (s_[i_]) {
        case '{':
            ++i_;
            return sequence('}', [&] {
                if (!string())
                    return false;
                ws();
                if (!lit(":"))
                    return false;
                ws();
                return value();
            });
        case '[':
            ++i_;
            return sequence(']', [&] { return value(); });
        case '"':
            return string();
        case 't':
            return lit("true");
        case 'f':
            return lit("false");
        case 'n':
            return lit("null");
        default:
            return number();
        }
    }

    const std::string &s_;
    size_t i_ = 0;
};

size_t
count(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t p = hay.find(needle); p != std::string::npos;
         p = hay.find(needle, p + 1))
        ++n;
    return n;
}

TEST(TraceJson, CheckerRejectsMalformedJson)
{
    for (const char *bad : {"{", "{\"a\":}", "[1,]", "{\"a\" 1}", "\"x",
                            "01", "[1 2]", "{\"a\":1}x", "\"\t\""}) {
        EXPECT_FALSE(JsonChecker(bad).valid()) << bad;
    }
    for (const char *good : {"{}", "[]", "{\"a\":[1,-2.5e3,true,null]}",
                             "\"\\u00e9\\n\""}) {
        EXPECT_TRUE(JsonChecker(good).valid()) << good;
    }
}

TEST(TraceJson, ChromeTraceIsWellFormed)
{
    Tracer tracer;
    {
        ScopedSpan a(&tracer, "frame", 1);
        ScopedSpan b(&tracer, "we\"ird\\name\n");
    }
    std::thread([&] { ScopedSpan c(&tracer, "worker", 2); }).join();
    std::ostringstream os;
    tracer.writeChromeJson(os);
    const std::string json = os.str();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_EQ(count(json, "\"ph\":\"X\""), 3u);
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

TEST(TraceJson, EmptyTraceIsWellFormed)
{
    Tracer tracer;
    std::ostringstream os;
    tracer.writeChromeJson(os);
    EXPECT_TRUE(JsonChecker(os.str()).valid()) << os.str();
}

TEST(Report, LastLineIsTheJsonResult)
{
    RunResult r;
    r.attempted = 3;
    r.failed = 1;
    r.correct = false;
    r.metrics = {{"fps", 7.25, "1/s", 3}, {"setup_s", 0.5, "s", 3}};
    std::ostringstream os;
    printReport(os, "w", r);
    std::string out = os.str();
    ASSERT_FALSE(out.empty());
    out.pop_back(); // trailing newline
    const std::string last = out.substr(out.rfind('\n') + 1);
    EXPECT_TRUE(JsonChecker(last).valid()) << last;
    EXPECT_EQ(last, "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
                    "\"metrics\": {\"fps\": {\"value\": 7.25, \"unit\": "
                    "\"1/s\"}, \"setup_s\": {\"value\": 0.5, \"unit\": "
                    "\"s\"}}}");
}

// ------------------------------------------------------------ hash

TEST(Hash, Fnv1aKnownVectors)
{
    EXPECT_EQ(fnv1a("", 0), 0xcbf29ce484222325ull);
    EXPECT_EQ(fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
    asv::image::Image a(4, 3, 1.f), b(4, 3, 1.f), c(3, 4, 1.f);
    EXPECT_EQ(fnv1a(a), fnv1a(b));
    EXPECT_NE(fnv1a(a), fnv1a(c)); // same bytes, other shape
    EXPECT_TRUE(bitEqual(a, b));
    EXPECT_FALSE(bitEqual(a, c));
    b.at(2, 1) = 1.0000001f; // one ulp away
    EXPECT_NE(fnv1a(a), fnv1a(b));
    EXPECT_FALSE(bitEqual(a, b));
}

} // namespace
