#include "stereo/matcher.hh"

#include <stdexcept>
#include <utility>

#include "data/oracle.hh"
#include "stereo/block_matching.hh"
#include "stereo/sgm.hh"

namespace asv::stereo
{

// ------------------------------------------------------- options

MatcherOptions
MatcherOptions::parse(const std::string &spec)
{
    MatcherOptions opts;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t end = spec.find(',', pos);
        if (end == std::string::npos)
            end = spec.size();
        const std::string entry = spec.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty())
            continue;
        const size_t eq = entry.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(
                "matcher option '" + entry +
                "' is not of the form key=value");
        const std::string key = entry.substr(0, eq);
        if (opts.values_.count(key))
            throw std::invalid_argument("duplicate matcher option '" +
                                        key + "'");
        opts.values_[key] = entry.substr(eq + 1);
    }
    return opts;
}

bool
MatcherOptions::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

namespace
{

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const char *type)
{
    throw std::invalid_argument("matcher option " + key + "=" + value +
                                " is not a valid " + type);
}

/**
 * Parse the whole of @p value with a std::sto* style callable,
 * mapping every failure mode (garbage, trailing junk, overflow) to
 * the one badValue() diagnostic.
 */
template <typename Fn>
auto
parseFully(const std::string &key, const std::string &value,
           const char *type, Fn parse) -> decltype(parse(value,
                                                         nullptr))
{
    try {
        size_t used = 0;
        const auto v = parse(value, &used);
        if (used != value.size())
            badValue(key, value, type);
        return v;
    } catch (const std::invalid_argument &) {
        badValue(key, value, type);
    } catch (const std::out_of_range &) {
        badValue(key, value, type);
    }
}

} // namespace

int
MatcherOptions::getInt(const std::string &key, int fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    return parseFully(key, it->second, "integer",
                      [](const std::string &s, size_t *used) {
                          return std::stoi(s, used);
                      });
}

double
MatcherOptions::getDouble(const std::string &key, double fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    return parseFully(key, it->second, "number",
                      [](const std::string &s, size_t *used) {
                          return std::stod(s, used);
                      });
}

bool
MatcherOptions::getBool(const std::string &key, bool fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    badValue(key, v, "boolean (0/1/true/false)");
}

uint64_t
MatcherOptions::getUInt64(const std::string &key,
                          uint64_t fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    // std::stoull silently wraps negative input; reject it up front.
    if (!it->second.empty() && it->second[0] == '-')
        badValue(key, it->second, "unsigned integer");
    return parseFully(key, it->second, "unsigned integer",
                      [](const std::string &s, size_t *used) {
                          return std::stoull(s, used);
                      });
}

std::string
MatcherOptions::getString(const std::string &key,
                          const std::string &fallback) const
{
    const auto it = values_.find(key);
    if (it == values_.end())
        return fallback;
    consumed_.insert(key);
    return it->second;
}

void
MatcherOptions::finish(const std::string &engine) const
{
    std::string unknown;
    for (const auto &[key, value] : values_) {
        if (consumed_.count(key))
            continue;
        if (!unknown.empty())
            unknown += ", ";
        unknown += key;
    }
    if (!unknown.empty())
        throw std::invalid_argument("unknown option(s) for matcher '" +
                                    engine + "': " + unknown);
}

// ------------------------------------------------------- adapters

namespace
{

/** Shared option parsing for the two SAD engines. */
BlockMatchingParams
parseBmParams(const MatcherOptions &opts)
{
    BlockMatchingParams p;
    p.blockRadius = opts.getInt("blockRadius", p.blockRadius);
    p.maxDisparity = opts.getInt("maxDisparity", p.maxDisparity);
    p.subpixel = opts.getBool("subpixel", p.subpixel);
    p.uniquenessRatio = static_cast<float>(
        opts.getDouble("uniquenessRatio", p.uniquenessRatio));
    if (p.blockRadius < 0)
        throw std::invalid_argument("blockRadius must be >= 0");
    if (p.maxDisparity < 1)
        throw std::invalid_argument("maxDisparity must be >= 1");
    return p;
}

/** Full-search SAD block matching (Fig. 1 "BM" baseline). */
class BlockMatchingMatcher final : public Matcher
{
  public:
    explicit BlockMatchingMatcher(BlockMatchingParams params)
        : params_(params)
    {
    }

    std::string name() const override { return "bm"; }

    DisparityMap
    compute(const image::Image &left, const image::Image &right,
            const ExecContext &ctx) const override
    {
        return blockMatching(left, right, params_, ctx);
    }

    int64_t
    ops(int width, int height) const override
    {
        return blockMatchingOps(width, height, params_.blockRadius,
                                params_.maxDisparity + 1);
    }

    const BlockMatchingParams &params() const { return params_; }

  private:
    BlockMatchingParams params_;
};

/** Semi-global matching (Fig. 1 "SGBN"/"HH" family). */
class SgmMatcher final : public Matcher
{
  public:
    SgmMatcher(SgmParams params, bool range_prune)
        : params_(params), rangePrune_(range_prune)
    {
    }

    std::string name() const override { return "sgm"; }

    DisparityMap
    compute(const image::Image &left, const image::Image &right,
            const ExecContext &ctx) const override
    {
        return sgmCompute(left, right, params_, ctx);
    }

    DisparityMap
    computeGuided(const image::Image &left, const image::Image &right,
                  const DisparityMap &guide,
                  const ExecContext &ctx) const override
    {
        if (!rangePrune_)
            return compute(left, right, ctx);
        return sgmComputeGuided(left, right, guide, params_, ctx);
    }

    bool guided() const override { return rangePrune_; }

    int64_t
    ops(int width, int height) const override
    {
        return sgmOps(width, height, params_);
    }

    const SgmParams &params() const { return params_; }

  private:
    SgmParams params_;
    bool rangePrune_; //!< computeGuided() prunes the search range
};

/**
 * The ISM guided refiner (Sec. 3.2/3.3): a short 1-D SAD search
 * around a propagated estimate. Unguided pixels — and unguided
 * compute() calls — fall back to full search, which is the exact
 * blockMatching() code path.
 */
class GuidedMatcher final : public Matcher
{
  public:
    GuidedMatcher(BlockMatchingParams params, int refine_radius)
        : params_(params), refineRadius_(refine_radius)
    {
    }

    std::string name() const override { return "guided"; }

    DisparityMap
    compute(const image::Image &left, const image::Image &right,
            const ExecContext &ctx) const override
    {
        return blockMatching(left, right, params_, ctx);
    }

    DisparityMap
    computeGuided(const image::Image &left, const image::Image &right,
                  const DisparityMap &guide,
                  const ExecContext &ctx) const override
    {
        if (guide.empty())
            return compute(left, right, ctx);
        return refineDisparity(left, right, guide, refineRadius_,
                               params_, ctx);
    }

    bool guided() const override { return true; }

    /**
     * Per the Matcher contract this prices compute(), i.e. the
     * full-search fallback — what actually runs when this engine is
     * used as an (unguided) key-frame source. The cheap guided
     * refinement of non-key frames is charged separately by the
     * pipelines via nonKeyFrameOps(); see guidedOps().
     */
    int64_t
    ops(int width, int height) const override
    {
        return blockMatchingOps(width, height, params_.blockRadius,
                                params_.maxDisparity + 1);
    }

    /** Op count of one computeGuided() with a full guide map. */
    int64_t
    guidedOps(int width, int height) const
    {
        return blockMatchingOps(width, height, params_.blockRadius,
                                2 * refineRadius_ + 1);
    }

    int refineRadius() const { return refineRadius_; }
    const BlockMatchingParams &params() const { return params_; }

  private:
    BlockMatchingParams params_;
    int refineRadius_;
};

} // namespace

// ------------------------------------------------------- registry

MatcherRegistry::MatcherRegistry()
{
    // The lock is uncontended here (the object is not yet shared)
    // but keeps the guarded-member writes visible to the
    // thread-safety analysis without an escape hatch.
    MutexLock lock(mutex_);
    // Built-in engines. The oracle factory is wired here too — a
    // deliberate upward reference into src/data (the registry is the
    // composition point where the layers meet). The alternative, a
    // static registrar object in the data layer, breaks under static
    // linking: an object file whose only purpose is registration is
    // dead-stripped unless some other symbol in it is referenced,
    // and makeMatcher("oracle") would then fail only at runtime,
    // only in binaries that don't otherwise touch the oracle.
    const Factory bm_factory = [](const MatcherOptions &opts) {
        auto m = std::make_shared<BlockMatchingMatcher>(
            parseBmParams(opts));
        opts.finish("bm");
        return m;
    };
    factories_["bm"] = bm_factory;
    factories_["block_matching"] = bm_factory;

    factories_["sgm"] = [](const MatcherOptions &opts) {
        SgmParams p;
        p.censusRadius = opts.getInt("censusRadius", p.censusRadius);
        p.maxDisparity = opts.getInt("maxDisparity", p.maxDisparity);
        p.p1 = opts.getInt("p1", p.p1);
        p.p2 = opts.getInt("p2", p.p2);
        p.subpixel = opts.getBool("subpixel", p.subpixel);
        p.leftRightCheck =
            opts.getBool("leftRightCheck", p.leftRightCheck);
        p.lrTolerance = opts.getInt("lrTolerance", p.lrTolerance);
        p.paths = opts.getInt("paths", p.paths);
        p.pruneMargin = opts.getInt("pruneMargin", p.pruneMargin);
        const bool range_prune = opts.getBool("rangePrune", false);
        if (p.censusRadius < 1 || p.censusRadius > 3)
            throw std::invalid_argument(
                "censusRadius must be in [1, 3]");
        if (p.maxDisparity < 1)
            throw std::invalid_argument("maxDisparity must be >= 1");
        if (p.paths != 4 && p.paths != 5 && p.paths != 8)
            throw std::invalid_argument("paths must be 4, 5, or 8");
        if (p.p1 < 0 || p.p2 < 0)
            throw std::invalid_argument("p1 and p2 must be >= 0");
        if (p.pruneMargin < 0)
            throw std::invalid_argument("pruneMargin must be >= 0");
        opts.finish("sgm");
        return std::make_shared<SgmMatcher>(p, range_prune);
    };

    factories_["guided"] = [](const MatcherOptions &opts) {
        const int radius = opts.getInt("refineRadius", 2);
        if (radius < 0)
            throw std::invalid_argument("refineRadius must be >= 0");
        auto m = std::make_shared<GuidedMatcher>(parseBmParams(opts),
                                                 radius);
        opts.finish("guided");
        return m;
    };

    factories_["oracle"] = [](const MatcherOptions &opts) {
        return data::makeOracleMatcher(opts);
    };
}

MatcherRegistry &
MatcherRegistry::instance()
{
    static MatcherRegistry registry;
    return registry;
}

void
MatcherRegistry::add(const std::string &name, Factory factory)
{
    MutexLock lock(mutex_);
    factories_[name] = std::move(factory);
}

bool
MatcherRegistry::contains(const std::string &name) const
{
    MutexLock lock(mutex_);
    return factories_.count(name) != 0;
}

std::vector<std::string>
MatcherRegistry::names() const
{
    MutexLock lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto &[name, factory] : factories_)
        out.push_back(name);
    return out;
}

std::shared_ptr<Matcher>
MatcherRegistry::create(const std::string &name,
                        const std::string &options) const
{
    // The factory runs outside the lock: factories may recurse into
    // the registry (wrapper engines), and option parsing has no
    // business serializing concurrent create() calls.
    Factory factory;
    {
        MutexLock lock(mutex_);
        const auto it = factories_.find(name);
        if (it == factories_.end()) {
            std::string known;
            for (const auto &[key, value] : factories_) {
                if (!known.empty())
                    known += ", ";
                known += key;
            }
            throw std::invalid_argument("unknown matcher '" + name +
                                        "' (known: " + known + ")");
        }
        factory = it->second;
    }
    return factory(MatcherOptions::parse(options));
}

std::shared_ptr<Matcher>
makeMatcher(const std::string &name, const std::string &options)
{
    return MatcherRegistry::instance().create(name, options);
}

} // namespace asv::stereo
