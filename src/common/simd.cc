#include "common/simd.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace asv::simd
{

namespace
{

/** Host CPU capability for @p level (independent of what was built). */
bool
cpuSupports(Level level)
{
    if (level == Level::Scalar)
        return true;
#if defined(__x86_64__) || defined(__i386__)
    if (level == Level::Avx2)
        // The AVX2 table's f32 GEMM row is an FMA chain (every AVX2
        // CPU since Haswell has FMA); an FMA-less host falls back to
        // the bit-identical scalar table.
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#endif
#if defined(__aarch64__)
    if (level == Level::Neon)
        return true;
#endif
    return false;
}

std::atomic<const Kernels *> g_active{nullptr};

/**
 * A bad ASV_SIMD ends the process, the one place the library does:
 * the table is resolved on the first kernel call, which may run on a
 * pool worker where no caller could catch an exception.
 */
[[noreturn]] void
badSimdEnvironment(const std::string &msg)
{
    std::fprintf(stderr, "error: %s\n", msg.c_str());
    std::exit(1);
}

/** Resolve the ASV_SIMD override (or cpuid default) once. */
const Kernels *
initialTable()
{
    const char *env = std::getenv("ASV_SIMD");
    const std::string spec = env ? env : "native";
    if (spec.empty() || spec == "native")
        return kernelsFor(bestSupported());

    Level level;
    if (spec == "scalar") {
        level = Level::Scalar;
    } else if (spec == "avx2") {
        level = Level::Avx2;
    } else if (spec == "neon") {
        level = Level::Neon;
    } else {
        badSimdEnvironment("unknown ASV_SIMD value '" + spec +
                           "' (want scalar|avx2|neon|native)");
    }
    const Kernels *k = kernelsFor(level);
    if (!k)
        badSimdEnvironment(
            "ASV_SIMD=" + spec +
            " is not supported by this host/build (best supported: " +
            levelName(bestSupported()) + ")");
    return k;
}

} // namespace

const Kernels &
kernels()
{
    const Kernels *k = g_active.load(std::memory_order_acquire);
    if (!k) {
        // Benign race: concurrent first calls resolve to the same
        // table (the environment does not change mid-process).
        k = initialTable();
        g_active.store(k, std::memory_order_release);
    }
    return *k;
}

Level
activeLevel()
{
    return kernels().level;
}

const char *
activeName()
{
    return kernels().name;
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Scalar:
        return "scalar";
    case Level::Avx2:
        return "avx2";
    case Level::Neon:
        return "neon";
    }
    return "unknown";
}

const Kernels *
kernelsFor(Level level)
{
    if (!cpuSupports(level))
        return nullptr;
    switch (level) {
    case Level::Scalar:
        return detail::scalarKernels();
    case Level::Avx2:
        return detail::avx2Kernels();
    case Level::Neon:
        return detail::neonKernels();
    }
    return nullptr;
}

bool
levelSupported(Level level)
{
    return kernelsFor(level) != nullptr;
}

const std::vector<Level> &
supportedLevels()
{
    static const std::vector<Level> levels = [] {
        std::vector<Level> out;
        for (Level level : {Level::Scalar, Level::Avx2, Level::Neon}) {
            if (kernelsFor(level))
                out.push_back(level);
        }
        return out;
    }();
    return levels;
}

Level
bestSupported()
{
    return supportedLevels().back();
}

void
setLevel(Level level)
{
    const Kernels *k = kernelsFor(level);
    require(k != nullptr, "SIMD level ", levelName(level),
            " is not supported by this host/build");
    g_active.store(k, std::memory_order_release);
}

} // namespace asv::simd
