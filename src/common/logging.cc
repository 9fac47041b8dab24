#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/thread_annotations.hh"

namespace asv
{

namespace
{

/**
 * Serializes every warn()/inform() emission: concurrent warn() calls
 * from pool workers must not interleave their lines, and the
 * redirectable sink is shared mutable state the emitting threads
 * race on without it. panic() bypasses the lock — it must make
 * progress even if a thread died while logging.
 */
Mutex g_logMutex;
LogSink g_logSink ASV_GUARDED_BY(g_logMutex);

void
emit(const char *severity, const std::string &msg,
     const std::string &suffix)
{
    MutexLock lock(g_logMutex);
    if (g_logSink) {
        g_logSink(severity, msg + suffix);
        return;
    }
    std::FILE *stream =
        severity[0] == 'w' ? stderr : stdout; // warn vs info
    std::fprintf(stream, "%s: %s%s\n", severity, msg.c_str(),
                 suffix.c_str());
}

} // namespace

void
setLogSink(LogSink sink)
{
    MutexLock lock(g_logMutex);
    g_logSink = std::move(sink);
}

namespace detail
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    emit("warn", msg,
         " (" + std::string(file) + ":" + std::to_string(line) + ")");
}

void
informImpl(const std::string &msg)
{
    emit("info", msg, "");
}

} // namespace detail
} // namespace asv
