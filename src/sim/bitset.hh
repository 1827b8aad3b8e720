/**
 * @file
 * Word-array bitsets: the kernels' activity, wake and pending sets
 * (bit i of word i / 64), and the walk their consumers use.
 */

#ifndef ULPEAK_SIM_BITSET_HH
#define ULPEAK_SIM_BITSET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ulpeak {

/** Words of a bitset over @p bits bits. */
inline size_t
bitWords(size_t bits)
{
    return (bits + 63) / 64;
}

inline void
setBit(uint64_t *words, uint32_t i)
{
    words[i >> 6] |= uint64_t(1) << (i & 63);
}

inline bool
testBit(const uint64_t *words, uint32_t i)
{
    return (words[i >> 6] >> (i & 63)) & 1;
}

/** Call @p fn(index) for every set bit of @p words, ascending. */
template <typename Fn>
inline void
forEachBit(const std::vector<uint64_t> &words, Fn fn)
{
    for (size_t w = 0; w < words.size(); ++w)
        for (uint64_t bits = words[w]; bits; bits &= bits - 1)
            fn(uint32_t(w * 64 + unsigned(__builtin_ctzll(bits))));
}

} // namespace ulpeak

#endif // ULPEAK_SIM_BITSET_HH
