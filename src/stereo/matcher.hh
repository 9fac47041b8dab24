/**
 * @file
 * The unified stereo engine API: polymorphic matchers, a string-keyed
 * registry, and key=value option parsing.
 *
 * ASV's whole evaluation is engine swapping — DNN inference on key
 * frames, guided block matching on non-key frames, SGM/BM as the
 * Fig. 1 baselines — and production systems expose exactly that as a
 * first-class pluggable interface (SceneScan ships one API over many
 * algorithm/resolution configurations; the autonomous-driving survey
 * organizes the field as interchangeable matcher families). Matcher
 * is that seam: every engine is a `compute(left, right, ctx)` behind
 * a name, pipelines hold a `shared_ptr<const Matcher>`, and new
 * backends (batched serving, remote engines) plug in by registering
 * a factory. The BM/SGM/guided engines run on
 * the dispatched asv::simd kernel layer internally, so every
 * registry engine is bit-identical across ASV_SIMD levels
 * (tests/simd_test.cpp asserts this through this interface).
 *
 * Thread-safety contract: compute()/computeGuided() are const and
 * must tolerate concurrent invocation from multiple threads —
 * StreamPipeline calls the key-frame matcher from its workers with
 * several key frames in flight. Engines that are pure functions of
 * their inputs (BM, SGM, guided) satisfy this trivially; stateful
 * engines must synchronize internally (see data::OracleMatcher).
 *
 * Execution contract: all parallelism a matcher uses must come from
 * the ExecContext argument — no engine may reach for
 * ThreadPool::global() behind the caller's back. This keeps a
 * pipeline's pool an owned, per-instance resource (multi-tenant
 * isolation, per-request pools).
 */

#ifndef ASV_STEREO_MATCHER_HH
#define ASV_STEREO_MATCHER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/exec_context.hh"
#include "common/thread_annotations.hh"
#include "image/image.hh"
#include "stereo/disparity.hh"

namespace asv::stereo
{

/** Abstract stereo correspondence engine. */
class Matcher
{
  public:
    virtual ~Matcher() = default;

    /** Registry key / display name of this engine ("sgm", "bm", ...). */
    virtual std::string name() const = 0;

    /**
     * Compute a dense left-reference disparity map for a rectified
     * pair. Must be safe to call concurrently (see file comment) and
     * must take all parallelism from @p ctx.
     */
    virtual DisparityMap compute(const image::Image &left,
                                 const image::Image &right,
                                 const ExecContext &ctx) const = 0;

    /**
     * Guided variant: refine around a per-pixel initial estimate
     * (ISM step 4). Engines without a guided mode ignore @p guide
     * and fall back to compute(). @p guide must match the pair's
     * dimensions when non-empty.
     */
    virtual DisparityMap
    computeGuided(const image::Image &left, const image::Image &right,
                  const DisparityMap &guide,
                  const ExecContext &ctx) const
    {
        (void)guide;
        return compute(left, right, ctx);
    }

    /** True if computeGuided() actually uses the guide. */
    virtual bool guided() const { return false; }

    /**
     * Arithmetic op estimate of one compute() on a w x h frame (the
     * quantity charged to the accelerator model). 0 means "not
     * charged here" (e.g. the oracle stands in for DNN inference,
     * whose cost comes from the layer-exact dnn::zoo models).
     */
    virtual int64_t ops(int width, int height) const = 0;
};

/**
 * Parsed "key=value,key=value" engine options. Typed getters mark
 * keys as consumed; finish() rejects anything left over, so factory
 * typos fail loudly instead of silently running defaults.
 */
class MatcherOptions
{
  public:
    /**
     * Parse a comma-separated key=value list ("maxDisparity=128,
     * subpixel=0"). Empty string = no options. Throws
     * std::invalid_argument on malformed entries or duplicate keys.
     */
    static MatcherOptions parse(const std::string &spec);

    bool has(const std::string &key) const;

    /** Typed getters; throw std::invalid_argument on a bad value. */
    int getInt(const std::string &key, int fallback) const;
    double getDouble(const std::string &key, double fallback) const;
    bool getBool(const std::string &key, bool fallback) const;
    uint64_t getUInt64(const std::string &key,
                       uint64_t fallback) const;
    std::string getString(const std::string &key,
                          const std::string &fallback) const;

    /**
     * Throws std::invalid_argument naming every key no getter
     * consumed. Factories call this last so unknown keys are
     * rejected.
     */
    void finish(const std::string &engine) const;

  private:
    std::map<std::string, std::string> values_;
    mutable std::set<std::string> consumed_;
};

/**
 * Process-wide string-keyed matcher factory registry. The built-in
 * engines ("bm" / "block_matching", "sgm", "guided", "oracle") are
 * registered on first use; additional backends register themselves
 * with add().
 *
 * Thread-safe; factories must be safe to invoke concurrently.
 */
class MatcherRegistry
{
  public:
    /** Builds a matcher from parsed options; must call finish(). */
    using Factory = std::function<std::shared_ptr<Matcher>(
        const MatcherOptions &)>;

    static MatcherRegistry &instance();

    /** Register (or replace) the factory for @p name. */
    void add(const std::string &name, Factory factory);

    bool contains(const std::string &name) const;

    /** Registered engine names, sorted. */
    std::vector<std::string> names() const;

    /**
     * Construct the engine @p name from a "key=value,..." option
     * string. Throws std::invalid_argument for an unknown engine
     * (listing the known ones), unknown option keys, or malformed
     * values.
     */
    std::shared_ptr<Matcher> create(const std::string &name,
                                    const std::string &options) const;

  private:
    MatcherRegistry();

    mutable Mutex mutex_;
    std::map<std::string, Factory> factories_ ASV_GUARDED_BY(mutex_);
};

/**
 * Convenience: MatcherRegistry::instance().create(name, options).
 *
 *     auto sgm = makeMatcher("sgm", "maxDisparity=128,subpixel=0");
 *     DisparityMap d = sgm->compute(left, right, ctx);
 */
std::shared_ptr<Matcher> makeMatcher(const std::string &name,
                                     const std::string &options = "");

} // namespace asv::stereo

#endif // ASV_STEREO_MATCHER_HH
