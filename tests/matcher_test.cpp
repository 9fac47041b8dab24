/**
 * @file
 * Engine-API suite: the stereo::Matcher interface, the string-keyed
 * registry/factory, and the explicit ExecContext.
 *
 * The redesign's contract is that it changes *nothing numerically*:
 * every registry-constructed adapter must be bit-identical to the
 * free function it wraps, kernels must be bit-identical across
 * explicitly passed pools of any size, and the pipelines must accept
 * a Matcher directly — including StreamPipeline with several
 * registry-built key frames in flight concurrently.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/exec_context.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/asv_system.hh"
#include "core/ism.hh"
#include "core/stream_pipeline.hh"
#include "data/oracle.hh"
#include "dnn/zoo.hh"
#include "data/scene.hh"
#include "expect_invalid.hh"
#include "fn_matcher.hh"
#include "image/ops.hh"
#include "stereo/block_matching.hh"
#include "stereo/matcher.hh"
#include "stereo/sgm.hh"

namespace
{

using namespace asv;

/** A small textured stereo pair with ground truth. */
data::StereoFrame
makeFrame(uint64_t seed = 5)
{
    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.numObjects = 3;
    cfg.maxDisparity = 20.f;
    data::StereoSequence seq = data::generateSequence(cfg, 1, seed);
    return seq.frames.front();
}

void
expectBitIdentical(const image::Image &a, const image::Image &b,
                   const char *what)
{
    ASSERT_EQ(a.width(), b.width()) << what;
    ASSERT_EQ(a.height(), b.height()) << what;
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                             size_t(a.size()) * sizeof(float)))
        << what << ": maps differ";
}

// ------------------------------------------------------- registry

TEST(MatcherRegistry, ListsBuiltinEngines)
{
    auto &reg = stereo::MatcherRegistry::instance();
    for (const char *name :
         {"bm", "block_matching", "sgm", "guided", "oracle"}) {
        EXPECT_TRUE(reg.contains(name)) << name;
    }
    const auto names = reg.names();
    EXPECT_GE(names.size(), 5u);
}

TEST(MatcherRegistry, RejectsUnknownEngine)
{
    EXPECT_THROW((void)stereo::makeMatcher("census_simd"),
                 std::invalid_argument);
}

TEST(MatcherRegistry, RejectsUnknownOptionKey)
{
    EXPECT_THROW(
        (void)stereo::makeMatcher("sgm", "maxDisparty=64"),
        std::invalid_argument);
    EXPECT_THROW((void)stereo::makeMatcher("bm", "p1=3"),
                 std::invalid_argument);
}

TEST(MatcherRegistry, RejectsMalformedOptions)
{
    EXPECT_THROW((void)stereo::makeMatcher("sgm", "maxDisparity"),
                 std::invalid_argument);
    EXPECT_THROW((void)stereo::makeMatcher("sgm", "=64"),
                 std::invalid_argument);
    EXPECT_THROW((void)stereo::makeMatcher("sgm", "p1=abc"),
                 std::invalid_argument);
    EXPECT_THROW((void)stereo::makeMatcher("sgm", "p1=1,p1=2"),
                 std::invalid_argument);
    EXPECT_THROW((void)stereo::makeMatcher("sgm", "subpixel=maybe"),
                 std::invalid_argument);
    EXPECT_THROW((void)stereo::makeMatcher("sgm", "maxDisparity=0"),
                 std::invalid_argument);
    // std::stoull would silently wrap a negative seed.
    EXPECT_THROW((void)stereo::makeMatcher("oracle", "seed=-1"),
                 std::invalid_argument);
}

TEST(MatcherRegistry, EngineFactoriesApplyTheKernelRules)
{
    // The factories run the kernels' own checks, so every rule the
    // kernels enforce is also caught at construction.
    const struct
    {
        const char *engine;
        const char *options;
        const char *message;
    } cases[] = {
        {"sgm", "censusRadius=0", "censusRadius"},
        {"sgm", "censusRadius=4", "censusRadius"},
        {"sgm", "maxDisparity=-1", "maxDisparity"},
        {"sgm", "p1=-1", "p1 and p2"},
        {"sgm", "p2=-1", "p1 and p2"},
        {"sgm", "paths=6", "paths"},
        {"sgm", "pruneMargin=-1", "pruneMargin"},
        {"bm", "blockRadius=-1", "blockRadius"},
        {"bm", "maxDisparity=0", "maxDisparity"},
        {"guided", "blockRadius=-1", "blockRadius"},
        {"guided", "maxDisparity=0", "maxDisparity"},
        {"guided", "refineRadius=-1", "refineRadius"},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(std::string(c.engine) + " " + c.options);
        testref::expectInvalid(
            [&] { (void)stereo::makeMatcher(c.engine, c.options); },
            c.message);
    }
}

TEST(MatcherRegistry, EnginesRejectMismatchedPairs)
{
    const data::StereoFrame f = makeFrame();
    const image::Image narrow(f.left.width() / 2, f.left.height(), 0.f);
    const ExecContext &ctx = ExecContext::global();
    for (const char *engine : {"bm", "sgm", "guided"}) {
        SCOPED_TRACE(engine);
        const auto m = stereo::makeMatcher(engine);
        testref::expectInvalid(
            [&] { (void)m->compute(f.left, narrow, ctx); },
            "stereo pair size mismatch");
        testref::expectInvalid(
            [&] {
                (void)m->computeGuided(f.left, narrow, f.gtDisparity, ctx);
            },
            "stereo pair size mismatch");
    }
}

TEST(MatcherRegistry, CustomBackendRegistration)
{
    auto &reg = stereo::MatcherRegistry::instance();
    reg.add("test_custom", [](const stereo::MatcherOptions &opts) {
        opts.finish("test_custom");
        return stereo::makeMatcher("bm");
    });
    EXPECT_TRUE(reg.contains("test_custom"));
    auto m = stereo::makeMatcher("test_custom");
    EXPECT_EQ("bm", m->name());
}

// ------------------------------------------------------- adapters

TEST(MatcherAdapters, BlockMatchingBitIdentical)
{
    const data::StereoFrame f = makeFrame();
    stereo::BlockMatchingParams p;
    p.blockRadius = 3;
    p.maxDisparity = 24;
    p.subpixel = false;
    p.uniquenessRatio = 0.05f;

    auto m = stereo::makeMatcher(
        "bm",
        "blockRadius=3,maxDisparity=24,subpixel=0,"
        "uniquenessRatio=0.05");
    EXPECT_EQ("bm", m->name());
    EXPECT_FALSE(m->guided());
    EXPECT_EQ(stereo::blockMatchingOps(96, 64, 3, 25), m->ops(96, 64));

    const auto direct = stereo::blockMatching(f.left, f.right, p,
                                              ExecContext::global());
    const auto viaApi =
        m->compute(f.left, f.right, ExecContext::global());
    expectBitIdentical(direct, viaApi, "bm adapter");
}

TEST(MatcherAdapters, SgmBitIdenticalAndOptionRoundTrip)
{
    const data::StereoFrame f = makeFrame(7);
    stereo::SgmParams p;
    p.censusRadius = 1;
    p.maxDisparity = 24;
    p.p1 = 5;
    p.p2 = 30;
    p.subpixel = true;
    p.leftRightCheck = true;
    p.lrTolerance = 2;

    auto m = stereo::makeMatcher(
        "sgm",
        "censusRadius=1,maxDisparity=24,p1=5,p2=30,subpixel=1,"
        "leftRightCheck=true,lrTolerance=2");
    EXPECT_EQ("sgm", m->name());
    EXPECT_EQ(stereo::sgmOps(96, 64, p), m->ops(96, 64));

    const auto direct = stereo::sgmCompute(f.left, f.right, p,
                                           ExecContext::global());
    const auto viaApi =
        m->compute(f.left, f.right, ExecContext::global());
    expectBitIdentical(direct, viaApi, "sgm adapter");
}

TEST(MatcherAdapters, GuidedBitIdentical)
{
    const data::StereoFrame f = makeFrame(9);
    stereo::BlockMatchingParams p;
    p.blockRadius = 2;
    p.maxDisparity = 24;

    auto m = stereo::makeMatcher(
        "guided", "refineRadius=2,blockRadius=2,maxDisparity=24");
    EXPECT_TRUE(m->guided());
    // ops() prices compute() — the full-search fallback — not the
    // cheap guided refinement.
    EXPECT_EQ(stereo::blockMatchingOps(96, 64, 2, 25), m->ops(96, 64));

    // Guided around the ground truth == refineDisparity.
    const auto direct = stereo::refineDisparity(
        f.left, f.right, f.gtDisparity, 2, p, ExecContext::global());
    const auto viaApi = m->computeGuided(
        f.left, f.right, f.gtDisparity, ExecContext::global());
    expectBitIdentical(direct, viaApi, "guided adapter");

    // Without a guide it degrades to the exact full search.
    const auto full = stereo::blockMatching(f.left, f.right, p,
                                            ExecContext::global());
    const auto unguided =
        m->compute(f.left, f.right, ExecContext::global());
    expectBitIdentical(full, unguided, "guided fallback");
}

TEST(MatcherAdapters, OracleBitIdentical)
{
    const data::StereoFrame f = makeFrame(11);
    const auto model = data::OracleModel::forNetwork("FlowNetC");

    auto m = std::dynamic_pointer_cast<data::OracleMatcher>(
        stereo::makeMatcher("oracle", "network=FlowNetC,seed=123"));
    ASSERT_NE(nullptr, m);
    EXPECT_EQ("oracle", m->name());
    EXPECT_EQ(0, m->ops(96, 64));
    m->bindGroundTruth([&](const image::Image &,
                           const image::Image &) {
        return f.gtDisparity;
    });

    // Per-call-deterministic semantics: the noise stream is a pure
    // function of (seed, ground truth), derived via perCallSeed() —
    // never of how many compute() calls ran before this one.
    Rng rng(data::OracleMatcher::perCallSeed(123, f.gtDisparity));
    const auto direct = data::oracleInference(f.gtDisparity, model,
                                              rng);
    const auto viaApi =
        m->compute(f.left, f.right, ExecContext::global());
    expectBitIdentical(direct, viaApi, "oracle adapter");
}

TEST(MatcherAdapters, OracleComputeIsPerCallDeterministic)
{
    // Pins the concurrency semantics chosen in PR 6: compute()
    // results depend only on (seed, model, ground truth), so
    // concurrent key frames under StreamPipeline are order-
    // independent. A repeated call returns a bit-identical map...
    const data::StereoFrame fa = makeFrame(11);
    const data::StereoFrame fb = makeFrame(31);

    auto m = std::dynamic_pointer_cast<data::OracleMatcher>(
        stereo::makeMatcher("oracle", "seed=77"));
    ASSERT_NE(nullptr, m);
    const data::StereoFrame *current = &fa;
    m->bindGroundTruth([&](const image::Image &,
                           const image::Image &) {
        return current->gtDisparity;
    });

    const auto ctx = ExecContext::global();
    const auto a1 = m->compute(fa.left, fa.right, ctx);
    const auto a2 = m->compute(fa.left, fa.right, ctx);
    expectBitIdentical(a1, a2, "repeated oracle compute");

    // ...interleaving an unrelated frame does not perturb the
    // stream (the pre-PR-6 shared-Rng design failed exactly this)...
    current = &fb;
    const auto b1 = m->compute(fb.left, fb.right, ctx);
    current = &fa;
    const auto a3 = m->compute(fa.left, fa.right, ctx);
    expectBitIdentical(a1, a3, "order-independent oracle compute");

    // ...different ground truth still gets an uncorrelated stream,
    // and reseed() changes it.
    EXPECT_NE(0, std::memcmp(a1.data(), b1.data(),
                             size_t(std::min(a1.size(), b1.size())) *
                                 sizeof(float)));
    m->reseed(78);
    const auto a4 = m->compute(fa.left, fa.right, ctx);
    EXPECT_NE(0, std::memcmp(a1.data(), a4.data(),
                             size_t(a1.size()) * sizeof(float)));
    m->reseed(77);
    const auto a5 = m->compute(fa.left, fa.right, ctx);
    expectBitIdentical(a1, a5, "reseed restores the stream");
}

TEST(MatcherAdapters, OracleRequiresGroundTruth)
{
    const data::StereoFrame f = makeFrame();
    auto m = stereo::makeMatcher("oracle");
    EXPECT_THROW(
        (void)m->compute(f.left, f.right, ExecContext::global()),
        std::runtime_error);
    EXPECT_THROW((void)stereo::makeMatcher("oracle", "network=LEAStereo"),
                 std::invalid_argument);
}

// ------------------------------------------------------- contexts

TEST(ExecContext, KernelsBitIdenticalAcrossExplicitPools)
{
    const data::StereoFrame f = makeFrame(13);
    ThreadPool serial(1), wide(4);

    auto sgm = stereo::makeMatcher("sgm", "maxDisparity=24");
    expectBitIdentical(
        sgm->compute(f.left, f.right, ExecContext(serial)),
        sgm->compute(f.left, f.right, ExecContext(wide)),
        "sgm across pools");

    auto bm = stereo::makeMatcher("bm", "maxDisparity=24");
    expectBitIdentical(
        bm->compute(f.left, f.right, ExecContext(serial)),
        bm->compute(f.left, f.right, ExecContext(wide)),
        "bm across pools");
}

TEST(ExecContext, ImageOpsThreadedOnCallersPool)
{
    const data::StereoFrame f = makeFrame(17);
    ThreadPool serial(1), wide(4);

    expectBitIdentical(
        image::gaussianBlur(f.left, 2, -1.0, ExecContext(serial)),
        image::gaussianBlur(f.left, 2, -1.0, ExecContext(wide)),
        "gaussianBlur across pools");
    expectBitIdentical(
        image::resizeBilinear(f.left, 41, 23, ExecContext(serial)),
        image::resizeBilinear(f.left, 41, 23, ExecContext(wide)),
        "resizeBilinear across pools");
}

// ------------------------------------------------------- pipelines

std::vector<core::IsmFrameResult>
runSerial(const data::StereoSequence &seq, const core::IsmParams &p,
          std::shared_ptr<const stereo::Matcher> m)
{
    core::IsmPipeline ism(p, std::move(m));
    std::vector<core::IsmFrameResult> out;
    for (const auto &f : seq.frames)
        out.push_back(ism.processFrame(f.left, f.right));
    return out;
}

std::vector<core::IsmFrameResult>
runStream(const data::StereoSequence &seq, const core::IsmParams &p,
          std::shared_ptr<const stereo::Matcher> m,
          const core::StreamParams &sp)
{
    core::StreamPipeline stream(p, std::move(m), sp);
    for (const auto &f : seq.frames)
        stream.submit(f.left, f.right);
    return stream.drain();
}

void
expectSameResults(const std::vector<core::IsmFrameResult> &a,
                  const std::vector<core::IsmFrameResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].keyFrame, b[i].keyFrame) << "frame " << i;
        EXPECT_EQ(a[i].arithmeticOps, b[i].arithmeticOps)
            << "frame " << i;
        expectBitIdentical(a[i].disparity, b[i].disparity,
                           "stream vs serial");
    }
}

TEST(MatcherPipelines, StreamMatchesSerialWithRegistrySgm)
{
    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.maxDisparity = 20.f;
    const auto seq = data::generateSequence(cfg, 6, 21);

    core::IsmParams p;
    p.propagationWindow = 2;
    p.maxDisparity = 24;
    auto m = stereo::makeMatcher(
        "sgm", "maxDisparity=24,censusRadius=1");

    core::StreamParams sp;
    sp.maxInFlight = 4;
    sp.workers = 2;
    expectSameResults(runSerial(seq, p, m), runStream(seq, p, m, sp));
}

TEST(MatcherPipelines, ConcurrentInFlightKeyFrames)
{
    // propagationWindow 1 makes every frame a key frame, so with
    // maxInFlight 8 several registry-built SGM computes are in
    // flight concurrently — the Matcher thread-safety contract under
    // real concurrency, and still bit-identical to serial.
    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.maxDisparity = 20.f;
    const auto seq = data::generateSequence(cfg, 8, 23);

    core::IsmParams p;
    p.propagationWindow = 1;
    p.maxDisparity = 24;
    auto m = stereo::makeMatcher(
        "sgm", "maxDisparity=24,censusRadius=1");

    core::StreamParams sp;
    sp.maxInFlight = 8;
    sp.workers = 4;
    const auto serial = runSerial(seq, p, m);
    for (const auto &r : serial) {
        EXPECT_TRUE(r.keyFrame);
        EXPECT_EQ(stereo::sgmOps(96, 64,
                                 stereo::SgmParams{1, 24, 3, 40,
                                                   true, true, 1}),
                  r.arithmeticOps);
    }
    expectSameResults(serial, runStream(seq, p, m, sp));
}

TEST(MatcherPipelines, InjectedSharedPoolBitIdentical)
{
    // Two pipelines on one injected pool (the per-request serving
    // pattern, bounding total thread count) produce the same bits
    // as a pipeline on its own private pool.
    data::SceneConfig cfg;
    cfg.width = 96;
    cfg.height = 64;
    cfg.maxDisparity = 20.f;
    const auto seq = data::generateSequence(cfg, 4, 31);

    core::IsmParams p;
    p.propagationWindow = 2;
    p.maxDisparity = 24;
    auto m = stereo::makeMatcher(
        "sgm", "maxDisparity=24,censusRadius=1");

    auto pool = std::make_shared<ThreadPool>(3);
    core::IsmPipeline on_shared(p, m, core::makeStaticSequencer(2),
                                pool);
    core::IsmPipeline on_own(p, m);
    EXPECT_EQ(pool.get(), &on_shared.pool());
    for (const auto &f : seq.frames) {
        const auto a = on_shared.processFrame(f.left, f.right);
        const auto b = on_own.processFrame(f.left, f.right);
        EXPECT_EQ(a.keyFrame, b.keyFrame);
        expectBitIdentical(a.disparity, b.disparity,
                           "shared vs private pool");
    }
}

/** what() of the error @p call throws (std::runtime_error). */
template <typename Call>
std::string
runtimeErrorText(Call &&call)
{
    try {
        call();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    ADD_FAILURE() << "no std::runtime_error";
    return {};
}

std::shared_ptr<const stereo::Matcher>
eightByEightMatcher()
{
    return testref::fnMatcher(
        [](const image::Image &, const image::Image &) {
            return stereo::DisparityMap(8, 8); // wrong dimensions
        });
}

TEST(MatcherPipelines, StreamRejectsWrongSizeKeyFrameOutput)
{
    const auto f = makeFrame(29);
    core::IsmParams p;
    p.propagationWindow = 2;

    core::StreamPipeline stream(p, eightByEightMatcher());
    stream.submit(f.left, f.right);
    EXPECT_EQ(runtimeErrorText([&] { (void)stream.next(); }),
              "key-frame matcher 'fn' returned a 8x8 disparity map for "
              "a " +
                  std::to_string(f.left.width()) + "x" +
                  std::to_string(f.left.height()) + " pair");
    stream.reset();

    core::StreamPipeline empty_stream(
        p, testref::fnMatcher([](const image::Image &,
                               const image::Image &) {
            return stereo::DisparityMap(); // empty
        }));
    empty_stream.submit(f.left, f.right);
    EXPECT_THROW((void)empty_stream.next(), std::runtime_error);
}

TEST(MatcherPipelines, SerialRejectsWrongSizeKeyFrameOutput)
{
    // The serial pipeline enforces the same matcher output contract
    // as the stream, with the same message: a wrong-size key map
    // fails at the key frame with a clear error instead of
    // corrupting the next frame's propagation.
    const auto f = makeFrame(37);
    core::IsmParams p;
    p.propagationWindow = 2;
    core::IsmPipeline ism(p, eightByEightMatcher());
    const std::string serial =
        runtimeErrorText([&] { (void)ism.processFrame(f.left, f.right); });
    core::StreamPipeline stream(p, eightByEightMatcher());
    stream.submit(f.left, f.right);
    EXPECT_EQ(serial, runtimeErrorText([&] { (void)stream.next(); }));
}

TEST(MatcherPipelines, SimulateSystemAcceptsMatcher)
{
    const dnn::Network net = dnn::zoo::buildDispNet();
    const sched::HardwareConfig hw;

    // A null matcher is exactly the DNN path.
    const auto base = core::simulateSystem(
        net, hw, core::SystemVariant::IsmOnly);
    const auto null_matcher = core::simulateSystem(
        net, hw, core::SystemVariant::IsmOnly, nullptr);
    EXPECT_EQ(base.keyFrame.seconds, null_matcher.keyFrame.seconds);
    EXPECT_EQ(base.average.seconds, null_matcher.average.seconds);

    // So is a matcher reporting 0 ops (oracle = DNN stand-in).
    const auto via_oracle = core::simulateSystem(
        net, hw, core::SystemVariant::IsmOnly,
        stereo::makeMatcher("oracle"));
    EXPECT_EQ(base.keyFrame.seconds, via_oracle.keyFrame.seconds);

    // A classical engine replaces the DNN key-frame cost with its
    // op count on the PE array (the Fig. 1 classical frontier).
    const auto classical = core::simulateSystem(
        net, hw, core::SystemVariant::IsmOnly,
        stereo::makeMatcher("sgm", "maxDisparity=128"));
    EXPECT_GT(classical.keyFrame.seconds, 0.0);
    EXPECT_NE(base.keyFrame.seconds, classical.keyFrame.seconds);
    EXPECT_GT(classical.keyFrame.energyJ, 0.0);
}

} // namespace
