/**
 * @file
 * Bit-parallel three-valued logic: 64 independent V4 lanes packed into
 * two 64-bit planes, so one and/or/xor/not/mux evaluates 64 patterns
 * in a handful of word operations.
 *
 * Encoding (two-plane): lane i of a V64 holds
 *
 *   k bit | v bit | lane value
 *   ------+-------+-----------
 *     1   |   0   |   0
 *     1   |   1   |   1
 *     0   |   0   |   X
 *
 * The encoding is canonical: an X lane keeps its @ref V64::v bit at 0
 * (v is always a subset of k), so two V64s are lane-wise equal exactly
 * when both planes are equal -- the packed analogue of Word16 keeping
 * X bits of `value` at 0. Every operation below preserves canonical
 * form and computes, in each lane, exactly the scalar op of the same
 * name (logicAnd / logicOr / logicXor / logicNot / logicMux in v4.hh)
 * on that lane's operands (tests/test_logic.cc pins this against the
 * scalar truth tables). Sharing the names lets one evalCell template
 * (cell/cell_library.hh) compose a cell for either type, so the
 * packed kernel evaluates exactly the scalar composition.
 */

#ifndef ULPEAK_LOGIC_V64_HH
#define ULPEAK_LOGIC_V64_HH

#include <cstdint>
#include <string>

#include "logic/v4.hh"

namespace ulpeak {

/** 64 three-valued lanes: value plane @ref v, known plane @ref k. */
struct V64 {
    uint64_t v = 0; ///< value plane (lane subset of k: X lanes read 0)
    uint64_t k = 0; ///< known plane (0 = lane is X)

    /** Default: every lane X. */
    constexpr V64() = default;
    constexpr V64(uint64_t v_, uint64_t k_) : v(v_ & k_), k(k_) {}

    constexpr bool
    operator==(const V64 &o) const
    {
        return v == o.v && k == o.k;
    }
    constexpr bool operator!=(const V64 &o) const { return !(*this == o); }

    /** Lanes whose value differs from @p o (X counts as a value). */
    constexpr uint64_t
    diffMask(const V64 &o) const
    {
        return (v ^ o.v) | (k ^ o.k);
    }

    constexpr V4
    lane(unsigned i) const
    {
        uint64_t m = uint64_t(1) << i;
        if (!(k & m))
            return V4::X;
        return (v & m) ? V4::One : V4::Zero;
    }

    /**
     * Flip the value of every known lane in @p lane_mask; X lanes are
     * untouched (an upset of a bit with no defined value has no
     * defined effect -- the same rule as Simulator::injectSeuFlip and
     * Memory::flipBit). Preserves canonical form. Returns the mask of
     * lanes actually flipped.
     */
    constexpr uint64_t
    flipKnown(uint64_t lane_mask)
    {
        uint64_t m = lane_mask & k;
        v ^= m;
        return m;
    }

    void
    setLane(unsigned i, V4 val)
    {
        uint64_t m = uint64_t(1) << i;
        if (val == V4::X) {
            k &= ~m;
            v &= ~m;
        } else {
            k |= m;
            v = (val == V4::One) ? (v | m) : (v & ~m);
        }
    }

    /** All 64 lanes X. */
    static constexpr V64
    allX()
    {
        return V64();
    }

    /** The same concrete/unknown value in every lane. */
    static constexpr V64
    splat(V4 val)
    {
        if (val == V4::X)
            return V64();
        return V64(val == V4::One ? ~uint64_t(0) : 0, ~uint64_t(0));
    }

    /** Render as 64 characters, lane 63 first (VCD style). */
    std::string toString() const;
};

/** @p val in all 64 lanes (the V64 form of logicSplat). */
template <>
constexpr V64
logicSplat<V64>(V4 val)
{
    return V64::splat(val);
}

/** Lane-wise Kleene AND (64 scalar logicAnd). A known 0 forces the
 *  lane known regardless of the other operand. */
constexpr V64
logicAnd(V64 a, V64 b)
{
    V64 r;
    r.v = a.v & b.v;
    r.k = (a.k & b.k) | (a.k & ~a.v) | (b.k & ~b.v);
    return r;
}

/** Lane-wise Kleene OR (64 scalar logicOr). A known 1 dominates.
 *  Canonical since v bits only appear where some operand was known-1. */
constexpr V64
logicOr(V64 a, V64 b)
{
    V64 r;
    r.v = a.v | b.v;
    r.k = (a.k & b.k) | a.v | b.v;
    return r;
}

/** Lane-wise XOR (64 scalar logicXor): X if either lane is X. */
constexpr V64
logicXor(V64 a, V64 b)
{
    V64 r;
    r.k = a.k & b.k;
    r.v = (a.v ^ b.v) & r.k;
    return r;
}

/** Lane-wise NOT (64 scalar logicNot). */
constexpr V64
logicNot(V64 a)
{
    V64 r;
    r.k = a.k;
    r.v = ~a.v & a.k;
    return r;
}

/** The lane-mask predicates of v4.hh, one bit per lane. */
constexpr uint64_t logicKnown(V64 a) { return a.k; }
constexpr uint64_t logicIsZero(V64 a) { return a.k & ~a.v; }
constexpr uint64_t logicIsOne(V64 a) { return a.v; }
constexpr uint64_t
logicSame(V64 a, V64 b)
{
    return a.k & b.k & ~(a.v ^ b.v);
}

/** Lane-wise 2:1 mux (64 scalar logicMux): sel 0 -> a, 1 -> b; an X
 *  select resolves only where the data lanes are known and agree. */
constexpr V64
logicMux(V64 sel, V64 a, V64 b)
{
    uint64_t sel0 = logicIsZero(sel);
    uint64_t sel1 = logicIsOne(sel);
    uint64_t selx = laneNot(logicKnown(sel));
    uint64_t agree = logicSame(a, b);
    V64 r;
    r.k = (sel0 & a.k) | (sel1 & b.k) | (selx & agree);
    r.v = ((sel0 & a.v) | (sel1 & b.v) | (selx & agree & a.v));
    return r;
}

} // namespace ulpeak

#endif // ULPEAK_LOGIC_V64_HH
