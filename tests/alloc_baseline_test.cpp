/**
 * @file
 * Steady-state allocation-count regression gate.
 *
 * Measures, with asv::debug::AllocScope, how many heap allocations
 * one warm compute() of each registry engine performs (BM, SGM, and
 * the guided refiner on its guided path), one warm
 * dnn::NetworkRuntime::forward() frame of a conv+deconv network, and
 * one warm non-key core::IsmPipeline frame (two Farnebäck flows plus
 * the guided propagation), and diffs the counts against the committed
 * BASELINE_alloc.json.
 *
 * With the BufferPool arena in place the contract is *exact*: a
 * pooled engine (baseline allocsPerFrame == 0) must perform zero
 * heap allocations and zero bytes per warm frame — no band, no
 * tolerance. A single allocation sneaking into any hot path fails
 * the gate. The only banded quantity left is the one-time warm-up
 * cost (warmupBytes: the first frames that populate the pool), which
 * legitimately drifts across standard-library versions — it is gated
 * upper-bound-only, x3 + 64 KiB, to catch a working set blowing up.
 * Engines with a non-zero committed baseline (none today) keep the
 * old loose band. Refresh after an intentional change with:
 *
 *     ASV_ALLOC_BASELINE_WRITE=1 ./build/alloc_baseline_test
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/exec_context.hh"
#include "common/thread_pool.hh"
#include "core/ism.hh"
#include "core/sequencer.hh"
#include "data/scene.hh"
#include "debug/alloc_tracker.hh"
#include "dnn/network.hh"
#include "dnn/runtime.hh"
#include "stereo/matcher.hh"
#include "tensor/tensor.hh"

namespace
{

using namespace asv;

struct EngineBaseline
{
    uint64_t allocsPerFrame = 0;
    uint64_t bytesPerFrame = 0;
    uint64_t warmupBytes = 0; //!< one-time pool-population cost
};

std::string
baselinePath()
{
    if (const char *env = std::getenv("ASV_ALLOC_BASELINE"))
        return env;
    return std::string(ASV_SOURCE_DIR) + "/BASELINE_alloc.json";
}

/** Minimal scanner for the flat baseline schema this test writes. */
std::map<std::string, EngineBaseline>
readBaseline(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    const auto numberAfter = [&text](size_t from, const char *key,
                                     uint64_t &out) -> bool {
        const size_t k = text.find(key, from);
        if (k == std::string::npos)
            return false;
        size_t p = text.find(':', k);
        if (p == std::string::npos)
            return false;
        ++p;
        while (p < text.size() && std::isspace(text[p]))
            ++p;
        uint64_t v = 0;
        bool any = false;
        while (p < text.size() && std::isdigit(text[p])) {
            v = v * 10 + uint64_t(text[p] - '0');
            ++p;
            any = true;
        }
        out = v;
        return any;
    };

    std::map<std::string, EngineBaseline> out;
    for (const char *engine : {"bm", "sgm", "guided", "dnn", "ism"}) {
        std::string key = "\"";
        key += engine;
        key += '"';
        const size_t at = text.find(key);
        if (at == std::string::npos)
            continue;
        EngineBaseline b;
        if (numberAfter(at, "allocsPerFrame", b.allocsPerFrame) &&
            numberAfter(at, "bytesPerFrame", b.bytesPerFrame) &&
            numberAfter(at, "warmupBytes", b.warmupBytes))
            out[engine] = b;
    }
    return out;
}

void
writeBaseline(const std::string &path,
              const std::map<std::string, EngineBaseline> &entries)
{
    std::ofstream out(path);
    out << "{\n";
    out << "  \"_comment\": \"Steady-state per-frame heap-allocation "
           "counts per registry engine and per non-key ISM frame "
           "(96x64 pair, maxDisparity=32, 2-worker pool). "
           "allocsPerFrame == 0 is enforced exactly "
           "(the BufferPool zero-allocation contract); warmupBytes "
           "is the banded one-time pool-population cost. Diffed by "
           "alloc_baseline_test; refresh with "
           "ASV_ALLOC_BASELINE_WRITE=1 ./build/alloc_baseline_test."
           "\",\n";
    size_t i = 0;
    for (const auto &[name, b] : entries) {
        out << "  \"" << name << "\": {\"allocsPerFrame\": "
            << b.allocsPerFrame
            << ", \"bytesPerFrame\": " << b.bytesPerFrame
            << ", \"warmupBytes\": " << b.warmupBytes << "}"
            << (++i == entries.size() ? "" : ",") << "\n";
    }
    out << "}\n";
}

/**
 * The gate. For pooled engines (committed baseline of zero) the
 * steady-state contract is exact: zero allocations, zero bytes, no
 * band — any hot-loop allocation fails. Engines with a non-zero
 * baseline keep the historical loose band (x1.5 + 64 up, x0.5 - 64
 * down; counts drift slightly across standard-library versions).
 * The one-time warm-up bytes stay banded in the blow-up direction
 * only. Exposed as a function so the test below can also prove the
 * negative (a simulated hot-loop allocation must land outside).
 */
bool
withinBand(const EngineBaseline &measured, const EngineBaseline &base)
{
    if (base.allocsPerFrame == 0) {
        if (measured.allocsPerFrame != 0 ||
            measured.bytesPerFrame != 0)
            return false;
    } else {
        const auto upper = [](uint64_t v) { return v + v / 2 + 64; };
        const auto lower = [](uint64_t v) {
            return v / 2 > 64 ? v / 2 - 64 : 0;
        };
        if (measured.allocsPerFrame > upper(base.allocsPerFrame))
            return false;
        if (measured.allocsPerFrame < lower(base.allocsPerFrame))
            return false;
        // Bytes are a coarser signal (vector growth policies differ
        // more); gate only the blow-up direction.
        if (measured.bytesPerFrame > 3 * base.bytesPerFrame + 4096)
            return false;
    }
    if (measured.warmupBytes > 3 * base.warmupBytes + (64u << 10))
        return false;
    return true;
}

/** Fixture: one scene pair + one pool shared by every measurement. */
class AllocBaseline : public ::testing::Test
{
  protected:
    static constexpr int kWarmFrames = 3;
    static constexpr int kMeasuredFrames = 10;

    AllocBaseline() : pool_(2), ctx_(pool_, buffers_)
    {
        data::SceneConfig cfg;
        cfg.width = 96;
        cfg.height = 64;
        cfg.numObjects = 3;
        cfg.maxDisparity = 20.f;
        seq_ = data::generateSequence(cfg, 1, 5);
    }

    const data::StereoFrame &frame() const { return seq_.frames[0]; }

    /**
     * Median per-frame counts of @p body over kMeasuredFrames warm
     * iterations, plus the bytes the kWarmFrames warm-up runs
     * allocated while populating the pool.
     */
    template <typename Fn>
    EngineBaseline
    measure(Fn &&body)
    {
        uint64_t warmup_bytes = 0;
        {
            debug::AllocScope warm_scope;
            for (int i = 0; i < kWarmFrames; ++i)
                body();
            warmup_bytes = warm_scope.counts().bytes;
        }
        std::vector<uint64_t> allocs, bytes;
        for (int i = 0; i < kMeasuredFrames; ++i) {
            debug::AllocScope scope;
            body();
            const auto c = scope.counts();
            allocs.push_back(c.allocs);
            bytes.push_back(c.bytes);
        }
        std::sort(allocs.begin(), allocs.end());
        std::sort(bytes.begin(), bytes.end());
        // A warm engine must be allocation-stable frame over frame;
        // drift here means hidden caching or leak-like growth.
        EXPECT_LE(allocs.back() - allocs.front(),
                  allocs.front() / 10 + 8)
            << "per-frame allocation count is not steady";
        return {allocs[allocs.size() / 2], bytes[bytes.size() / 2],
                warmup_bytes};
    }

    std::map<std::string, EngineBaseline>
    measureAll()
    {
        std::map<std::string, EngineBaseline> m;
        const auto &f = frame();

        auto bm = stereo::makeMatcher("bm",
                                      "maxDisparity=32,blockRadius=2");
        m["bm"] = measure([&] {
            (void)bm->compute(f.left, f.right, ctx_);
        });

        auto sgm = stereo::makeMatcher("sgm", "maxDisparity=32");
        m["sgm"] = measure([&] {
            (void)sgm->compute(f.left, f.right, ctx_);
        });

        // The guided engine's production path is computeGuided()
        // with a propagated estimate; guide with the ground truth.
        auto guided = stereo::makeMatcher(
            "guided", "maxDisparity=32,refineRadius=2");
        m["guided"] = measure([&] {
            (void)guided->computeGuided(f.left, f.right,
                                        f.gtDisparity, ctx_);
        });

        // The DNN path: conv -> relu -> deconv (k4 s2 p1) -> relu ->
        // conv through the f32 GEMM route. The runtime preallocates
        // everything; forward() only touches the pooled im2col
        // scratch, so the steady-state contract is the same exact
        // zero as the stereo engines.
        dnn::NetworkBuilder nb("alloc", 8, {12, 16});
        nb.conv("c1", 16, 3, 1, 1, dnn::Stage::FeatureExtraction);
        nb.activation("r1");
        nb.deconv("d1", 8, 4, 2, 1, dnn::Stage::DisparityRefinement);
        nb.activation("r2");
        nb.conv("c2", 4, 3, 1, 1, dnn::Stage::DisparityRefinement);
        dnn::NetworkRuntime rt(nb.build(), 5);
        tensor::Tensor dnn_in = tensor::Tensor::iota(rt.inputShape());
        m["dnn"] = measure([&] {
            (void)rt.forward(dnn_in, ctx_);
        });

        // ISM non-key frames: the first warm-up frame is the only key
        // frame (the window never closes); every later frame runs
        // ismFlow on both cameras plus ismPropagate, alternating
        // between two distinct frames so the flow has motion to find.
        data::SceneConfig cfg;
        cfg.width = 96;
        cfg.height = 64;
        cfg.numObjects = 3;
        cfg.maxDisparity = 20.f;
        const data::StereoSequence clip = data::generateSequence(cfg, 2, 6);
        core::IsmParams ip;
        ip.maxDisparity = 32;
        core::IsmPipeline ism(ip, stereo::makeMatcher("bm", "maxDisparity=32"),
                              core::makeStaticSequencer(1 << 30),
                              std::make_shared<ThreadPool>(2));
        size_t next = 0;
        m["ism"] = measure([&] {
            const data::StereoFrame &f = clip.frames[next++ % 2];
            (void)ism.processFrame(f.left, f.right);
        });
        return m;
    }

    data::StereoSequence seq_;
    ThreadPool pool_;
    BufferPool buffers_;
    ExecContext ctx_;
};

TEST_F(AllocBaseline, SteadyStateCountsMatchCommittedBaseline)
{
    const auto measured = measureAll();

    if (std::getenv("ASV_ALLOC_BASELINE_WRITE")) {
        writeBaseline(baselinePath(), measured);
        std::printf("wrote %s\n", baselinePath().c_str());
        for (const auto &[name, b] : measured)
            std::printf("  %-6s allocsPerFrame=%llu "
                        "bytesPerFrame=%llu warmupBytes=%llu\n",
                        name.c_str(),
                        (unsigned long long)b.allocsPerFrame,
                        (unsigned long long)b.bytesPerFrame,
                        (unsigned long long)b.warmupBytes);
        GTEST_SKIP() << "baseline regenerated, comparison skipped";
    }

    const auto baseline = readBaseline(baselinePath());
    ASSERT_EQ(5u, baseline.size())
        << "missing or unparsable " << baselinePath()
        << " — regenerate with ASV_ALLOC_BASELINE_WRITE=1";

    for (const auto &[name, base] : baseline) {
        const auto &got = measured.at(name);
        EXPECT_TRUE(withinBand(got, base))
            << name << ": measured allocsPerFrame="
            << got.allocsPerFrame << " bytesPerFrame="
            << got.bytesPerFrame << " vs baseline allocsPerFrame="
            << base.allocsPerFrame << " bytesPerFrame="
            << base.bytesPerFrame
            << " — an intentional change needs a baseline refresh "
               "(ASV_ALLOC_BASELINE_WRITE=1)";
    }
}

TEST_F(AllocBaseline, HotLoopAllocationWouldFailTheGate)
{
    // The property the acceptance criterion demands: an accidental
    // per-pixel allocation in a hot loop must land outside the band.
    // One alloc per pixel of the 96x64 test frame dwarfs the real
    // count (dozens of buffer/task allocations per frame).
    const auto baseline = readBaseline(baselinePath());
    ASSERT_TRUE(baseline.count("sgm"));
    EngineBaseline poisoned = baseline.at("sgm");
    poisoned.allocsPerFrame += uint64_t(96) * 64;
    EXPECT_FALSE(withinBand(poisoned, baseline.at("sgm")));

    // And the real measurement itself must sit inside it (sanity
    // that the previous test's PASS is not vacuous).
    EngineBaseline honest = baseline.at("sgm");
    EXPECT_TRUE(withinBand(honest, baseline.at("sgm")));
}

} // namespace
