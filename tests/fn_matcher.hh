/**
 * @file
 * Test-only stereo::Matcher over a plain function.
 *
 * Pipelines take their key-frame engine as a stereo::Matcher. Tests
 * whose key frames come from somewhere a registry engine cannot
 * express — a ground-truth lambda indexed by the current frame, a
 * scripted failure, a poison pixel — wrap that lambda here. The
 * adapter reports 0 ops (charged like the oracle, to the DNN cost
 * models) and ignores the ExecContext; it is as thread-safe as the
 * wrapped function, which matters only under StreamPipeline.
 */

#ifndef ASV_TESTS_FN_MATCHER_HH
#define ASV_TESTS_FN_MATCHER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "stereo/matcher.hh"

namespace asv::testref
{

/** Key-frame disparity as a function of the stereo pair. */
using MatchFn = std::function<stereo::DisparityMap(
    const image::Image &left, const image::Image &right)>;

/** A Matcher whose compute() is @p fn (name "fn", ops() = 0). */
class FnMatcher final : public stereo::Matcher
{
  public:
    explicit FnMatcher(MatchFn fn) : fn_(std::move(fn)) {}

    std::string name() const override { return "fn"; }

    stereo::DisparityMap
    compute(const image::Image &left, const image::Image &right,
            const ExecContext &) const override
    {
        return fn_(left, right);
    }

    int64_t ops(int, int) const override { return 0; }

  private:
    MatchFn fn_;
};

inline std::shared_ptr<const stereo::Matcher>
fnMatcher(MatchFn fn)
{
    return std::make_shared<const FnMatcher>(std::move(fn));
}

} // namespace asv::testref

#endif // ASV_TESTS_FN_MATCHER_HH
