/**
 * @file
 * The content hash behind the on-disk result caches (`peak::cacheKey`,
 * `fault::campaignCacheKey`, `scenario::Scenario::hashInto`): FNV-1a
 * over heterogeneous fields, plus the exact hex bit-pattern encodings
 * the cache files store floating-point values in.
 */

#ifndef ULPEAK_UTIL_CONTENT_HASH_HH
#define ULPEAK_UTIL_CONTENT_HASH_HH

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <type_traits>

namespace ulpeak {
namespace util {

/** The starting value of every cache key. This is the standard FNV-1a
 *  64-bit offset basis (14695981039346656037) with its last digit
 *  dropped; it is kept as is because changing it would move every
 *  cache key and orphan every existing cache file. */
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

inline void
hashBytes(uint64_t &h, const void *data, size_t n)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
}

/** Eight bytes, least significant first (the same on every host). */
inline void
hashU64(uint64_t &h, uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
}

/** A double by its exact bit pattern. */
inline void
hashDouble(uint64_t &h, double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    hashU64(h, bits);
}

/** Length-prefixed, so ("ab", "c") and ("a", "bc") hash apart. */
inline void
hashString(uint64_t &h, const std::string &s)
{
    hashU64(h, s.size());
    hashBytes(h, s.data(), s.size());
}

/** 16 lowercase hex digits of @p d's bit pattern (exact round-trip). */
inline std::string
doubleBits(double d)
{
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, bits);
    return buf;
}

/** 8 lowercase hex digits of @p f's bit pattern (exact round-trip). */
inline std::string
floatBits(float f)
{
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    char buf[12];
    std::snprintf(buf, sizeof buf, "%08x", unsigned(bits));
    return buf;
}

/** The inverse of doubleBits / floatBits: @p out from exactly
 *  2 * sizeof(T) lowercase hex digits (@p len of them at @p hex). */
template <class T>
inline bool
fromBits(const char *hex, size_t len, T &out)
{
    if (len != 2 * sizeof(T))
        return false;
    uint64_t bits = 0;
    for (size_t i = 0; i < len; ++i) {
        char c = hex[i];
        if (c >= '0' && c <= '9')
            bits = bits << 4 | uint64_t(c - '0');
        else if (c >= 'a' && c <= 'f')
            bits = bits << 4 | uint64_t(c - 'a' + 10);
        else
            return false;
    }
    std::conditional_t<sizeof(T) == 8, uint64_t, uint32_t> raw(bits);
    std::memcpy(&out, &raw, sizeof out);
    return true;
}

} // namespace util
} // namespace ulpeak

#endif // ULPEAK_UTIL_CONTENT_HASH_HH
