/**
 * @file
 * FNV-1a (64-bit) over the bit patterns of float images, shared by
 * the pinned-output tests (flow, ISM propagation, block matching).
 * A pin is computed once from the code it guards; any change in
 * rounding, accumulation order or border handling moves it.
 */

#ifndef ASV_TESTS_HASH_UTIL_HH
#define ASV_TESTS_HASH_UTIL_HH

#include <cstdint>
#include <cstring>

#include "image/image.hh"

namespace asv::testref
{

/** FNV-1a offset basis: the hash of no bytes. */
constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/** FNV-1a over the bit patterns of @p img, folded into @p h. */
inline uint64_t
fnv1a(uint64_t h, const image::Image &img)
{
    for (int64_t i = 0; i < img.size(); ++i) {
        uint32_t bits;
        std::memcpy(&bits, img.data() + i, sizeof(bits));
        for (int b = 0; b < 4; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

} // namespace asv::testref

#endif // ASV_TESTS_HASH_UTIL_HH
