/**
 * @file
 * Logging and error-reporting primitives in the gem5 idiom.
 *
 * Two classes of error are distinguished:
 *
 *  - panic(): something happened that should never happen regardless of
 *    user input, i.e. a bug in this library. Aborts.
 *  - require(): a caller's error (bad configuration, invalid
 *    arguments). Throws std::invalid_argument, so a long-lived
 *    process can reject the request and keep running; the library
 *    never ends the process on a caller's behalf.
 *
 * warn() and inform() report conditions without stopping the run.
 */

#ifndef ASV_COMMON_LOGGING_HH
#define ASV_COMMON_LOGGING_HH

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace asv
{

/**
 * Redirect warn()/inform() output (e.g. to capture diagnostics in
 * tests). The sink is invoked with the severity ("warn"/"info") and
 * the formatted message, serialized under the logging mutex — it may
 * be called from any thread but never concurrently. Pass nullptr to
 * restore the default stderr/stdout sink. panic() always writes to
 * stderr (the process is dying) and is not redirected.
 */
using LogSink = std::function<void(const char *severity,
                                   const std::string &msg)>;
void setLogSink(LogSink sink);

namespace detail
{

/** Concatenate any streamable arguments into a std::string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);
void informImpl(const std::string &msg);

} // namespace detail

/**
 * Reject a caller's error: throw std::invalid_argument carrying the
 * concatenated @p what unless @p ok holds. The message is only built
 * on failure.
 */
template <typename... Args>
void
require(bool ok, Args &&...what)
{
    if (!ok)
        throw std::invalid_argument(
            detail::concat(std::forward<Args>(what)...));
}

} // namespace asv

/** Report an internal invariant violation (a library bug) and abort. */
#define panic(...) \
    ::asv::detail::panicImpl(__FILE__, __LINE__, \
                             ::asv::detail::concat(__VA_ARGS__))

/** Report a suspicious-but-survivable condition. */
#define warn(...) \
    ::asv::detail::warnImpl(__FILE__, __LINE__, \
                            ::asv::detail::concat(__VA_ARGS__))

/** Report normal operating status. */
#define inform(...) \
    ::asv::detail::informImpl(::asv::detail::concat(__VA_ARGS__))

/** panic() unless the condition holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) { \
            panic("panic condition (" #cond ") occurred: ", \
                  ::asv::detail::concat(__VA_ARGS__)); \
        } \
    } while (0)

#endif // ASV_COMMON_LOGGING_HH
