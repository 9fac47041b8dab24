/**
 * @file
 * Small integer/floating-point math helpers used across the library.
 */

#ifndef ASV_COMMON_MATH_UTIL_HH
#define ASV_COMMON_MATH_UTIL_HH

#include <algorithm>
#include <cstdint>
#include <cmath>

namespace asv
{

/** Ceiling division for non-negative integers. */
constexpr int64_t
ceilDiv(int64_t num, int64_t den)
{
    return (num + den - 1) / den;
}

/** Clamp @p v into [lo, hi]. */
template <typename T>
constexpr T
clamp(T v, T lo, T hi)
{
    return std::min(std::max(v, lo), hi);
}

/**
 * int(std::lround(v)) — round half away from zero — without the libm
 * call on the hot path: for |v| < 2^31, truncate and round the
 * remainder, which v - trunc(v) holds exactly. Huge values and NaN
 * take std::lround itself, so every input gives the same int.
 */
inline int
roundToInt(float v)
{
    if (!(std::abs(v) < 2147483648.f))
        return static_cast<int>(std::lround(v));
    const int i = static_cast<int>(v);
    const float frac = v - static_cast<float>(i);
    return i + (frac >= 0.5f) - (frac <= -0.5f);
}

/** Output size of a valid cross-correlation: in + 2*pad - k, stride s. */
constexpr int64_t
convOutSize(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in + 2 * pad - kernel) / stride + 1;
}

/**
 * Output size of a transposed convolution (deconvolution):
 * (in - 1) * stride - 2 * pad + kernel.
 */
constexpr int64_t
deconvOutSize(int64_t in, int64_t kernel, int64_t stride, int64_t pad)
{
    return (in - 1) * stride - 2 * pad + kernel;
}

} // namespace asv

#endif // ASV_COMMON_MATH_UTIL_HH
