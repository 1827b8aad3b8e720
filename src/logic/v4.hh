/**
 * @file
 * Four-valued (well, three-valued) logic used throughout ulpeak.
 *
 * The symbolic analysis of the paper propagates unknown logic values (Xs)
 * through a gate-level netlist. We model the value domain {0, 1, X}.
 * High-impedance (Z) is not needed: the netlists we build contain no
 * tristate cells, and the paper's openMSP430 flow resolves buses in the
 * mem_backbone with muxes, as do we.
 */

#ifndef ULPEAK_LOGIC_V4_HH
#define ULPEAK_LOGIC_V4_HH

#include <cstdint>
#include <string>
#include <type_traits>

namespace ulpeak {

/** A single three-valued logic value. Values 0 and 1 are concrete. */
enum class V4 : uint8_t {
    Zero = 0,
    One = 1,
    X = 2,
};

/** @return true iff @p v is a concrete 0 or 1. */
constexpr bool
isKnown(V4 v)
{
    return v != V4::X;
}

/** Convert a bool to a concrete logic value. */
constexpr V4
fromBool(bool b)
{
    return b ? V4::One : V4::Zero;
}

// The five hot logic ops below are the innermost operations of both
// simulation kernels (evalCell composes them per gate, every cycle),
// so they live here as constexpr header functions: out-of-line calls
// per signal cost more than the operation itself
// (BENCH_sim_kernel.json tracks the kernel throughput this protects).
// logic/v64.hh overloads every name for 64 packed lanes, so the one
// evalCell template serves both types.

/** @p v in every lane of a logic type: the value itself for V4 (one
 *  lane); v64.hh specializes it for V64. */
template <typename V> constexpr V logicSplat(V4 v);

template <>
constexpr V4
logicSplat<V4>(V4 v)
{
    return v;
}

/** Kleene AND: 0 dominates, X otherwise unless both 1. */
constexpr V4
logicAnd(V4 a, V4 b)
{
    if (a == V4::Zero || b == V4::Zero)
        return V4::Zero;
    if (a == V4::One && b == V4::One)
        return V4::One;
    return V4::X;
}

/** Kleene OR: 1 dominates, X otherwise unless both 0. */
constexpr V4
logicOr(V4 a, V4 b)
{
    if (a == V4::One || b == V4::One)
        return V4::One;
    if (a == V4::Zero && b == V4::Zero)
        return V4::Zero;
    return V4::X;
}

/** XOR: X if either operand is X. */
constexpr V4
logicXor(V4 a, V4 b)
{
    if (a == V4::X || b == V4::X)
        return V4::X;
    return fromBool(a != b);
}

/** NOT: X maps to X. */
constexpr V4
logicNot(V4 a)
{
    if (a == V4::X)
        return V4::X;
    return a == V4::One ? V4::Zero : V4::One;
}

// Lane masks: the per-lane predicates the flop evaluator
// (evalSeqEdge, cell/cell_library.hh) states its hold and activity
// rules in. A V4 mask is a bool; v64.hh gives each predicate a
// 64-lane uint64_t form.

/** Lanes that are known (0 or 1). */
constexpr bool logicKnown(V4 a) { return isKnown(a); }
/** Lanes that are a known 0. */
constexpr bool logicIsZero(V4 a) { return a == V4::Zero; }
/** Lanes that are a known 1. */
constexpr bool logicIsOne(V4 a) { return a == V4::One; }
/** Lanes where @p a and @p b are known and equal. */
constexpr bool logicSame(V4 a, V4 b) { return a == b && isKnown(a); }
/** The complement of a lane mask: a bool (V4) or a uint64_t (V64). */
template <typename M>
constexpr M
laneNot(M m)
{
    static_assert(std::is_same_v<M, bool> || std::is_same_v<M, uint64_t>,
                  "laneNot takes a V4 or V64 lane mask");
    if constexpr (std::is_same_v<M, bool>)
        return !m;
    else
        return ~m;
}

/**
 * 2:1 multiplexer with X-pessimistic select. When the select is X the
 * result is the common value of the two data inputs if they agree and are
 * known, X otherwise. This matches standard gate-level simulation
 * semantics for a mux composed of AND/OR gates except that the composed
 * network is strictly more pessimistic (it yields X even when inputs
 * agree); cells of kind MUX2 use this slightly tighter rule, which is
 * sound because the real cell output cannot differ from both inputs.
 */
constexpr V4
logicMux(V4 sel, V4 a, V4 b)
{
    if (sel == V4::Zero)
        return a;
    if (sel == V4::One)
        return b;
    return logicSame(a, b) ? a : V4::X;
}

/** Single-character representation: '0', '1' or 'x' (VCD style). */
char v4Char(V4 v);

/** Parse a '0'/'1'/'x'/'X' character; anything else yields X. */
V4 v4FromChar(char c);

/**
 * A 16-bit word in three-valued logic, stored as a value/X-mask pair.
 * Bit i is X when bit i of @ref xmask is set; otherwise bit i of
 * @ref value holds the concrete bit. X bits of @ref value are kept at 0
 * so that equal words compare equal bitwise.
 */
struct Word16 {
    uint16_t value = 0;
    uint16_t xmask = 0;

    Word16() = default;
    Word16(uint16_t v, uint16_t x) : value(uint16_t(v & ~x)), xmask(x) {}

    /** Fully concrete word. */
    static Word16
    known(uint16_t v)
    {
        return Word16(v, 0);
    }

    /** Fully unknown word. */
    static Word16
    allX()
    {
        return Word16(0, 0xffff);
    }

    bool
    isFullyKnown() const
    {
        return xmask == 0;
    }

    V4
    bit(unsigned i) const
    {
        if (xmask & (1u << i))
            return V4::X;
        return fromBool(value & (1u << i));
    }

    void
    setBit(unsigned i, V4 v)
    {
        uint16_t m = uint16_t(1u << i);
        if (v == V4::X) {
            xmask |= m;
            value = uint16_t(value & ~m);
        } else {
            xmask = uint16_t(xmask & ~m);
            if (v == V4::One)
                value |= m;
            else
                value = uint16_t(value & ~m);
        }
    }

    bool
    operator==(const Word16 &o) const
    {
        return value == o.value && xmask == o.xmask;
    }

    /** Render as 16 characters, MSB first, e.g. "00000xxxx0101010". */
    std::string toString() const;
};

} // namespace ulpeak

#endif // ULPEAK_LOGIC_V4_HH
