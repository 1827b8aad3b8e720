/**
 * @file
 * Unit tests for the three-valued logic primitives.
 */

#include <gtest/gtest.h>

#include "fuzz/rng.hh"
#include "logic/v4.hh"
#include "logic/v64.hh"

namespace ulpeak {
namespace {

TEST(V4, AndTruthTable)
{
    EXPECT_EQ(logicAnd(V4::Zero, V4::Zero), V4::Zero);
    EXPECT_EQ(logicAnd(V4::Zero, V4::One), V4::Zero);
    EXPECT_EQ(logicAnd(V4::One, V4::One), V4::One);
    EXPECT_EQ(logicAnd(V4::Zero, V4::X), V4::Zero);
    EXPECT_EQ(logicAnd(V4::X, V4::Zero), V4::Zero);
    EXPECT_EQ(logicAnd(V4::One, V4::X), V4::X);
    EXPECT_EQ(logicAnd(V4::X, V4::X), V4::X);
}

TEST(V4, OrTruthTable)
{
    EXPECT_EQ(logicOr(V4::Zero, V4::Zero), V4::Zero);
    EXPECT_EQ(logicOr(V4::One, V4::Zero), V4::One);
    EXPECT_EQ(logicOr(V4::One, V4::X), V4::One);
    EXPECT_EQ(logicOr(V4::X, V4::One), V4::One);
    EXPECT_EQ(logicOr(V4::Zero, V4::X), V4::X);
    EXPECT_EQ(logicOr(V4::X, V4::X), V4::X);
}

TEST(V4, XorAndNot)
{
    EXPECT_EQ(logicXor(V4::Zero, V4::One), V4::One);
    EXPECT_EQ(logicXor(V4::One, V4::One), V4::Zero);
    EXPECT_EQ(logicXor(V4::X, V4::One), V4::X);
    EXPECT_EQ(logicXor(V4::Zero, V4::X), V4::X);
    EXPECT_EQ(logicNot(V4::Zero), V4::One);
    EXPECT_EQ(logicNot(V4::One), V4::Zero);
    EXPECT_EQ(logicNot(V4::X), V4::X);
}

TEST(V4, MuxSelectsExactly)
{
    EXPECT_EQ(logicMux(V4::Zero, V4::X, V4::One), V4::X);
    EXPECT_EQ(logicMux(V4::One, V4::X, V4::One), V4::One);
    // X select: known-equal inputs resolve, anything else is X.
    EXPECT_EQ(logicMux(V4::X, V4::One, V4::One), V4::One);
    EXPECT_EQ(logicMux(V4::X, V4::Zero, V4::One), V4::X);
    EXPECT_EQ(logicMux(V4::X, V4::X, V4::X), V4::X);
}

TEST(V4, CharRoundTrip)
{
    EXPECT_EQ(v4Char(V4::Zero), '0');
    EXPECT_EQ(v4Char(V4::One), '1');
    EXPECT_EQ(v4Char(V4::X), 'x');
    EXPECT_EQ(v4FromChar('0'), V4::Zero);
    EXPECT_EQ(v4FromChar('1'), V4::One);
    EXPECT_EQ(v4FromChar('x'), V4::X);
    EXPECT_EQ(v4FromChar('X'), V4::X);
}

TEST(Word16, BitAccess)
{
    Word16 w = Word16::known(0xa5c3);
    EXPECT_TRUE(w.isFullyKnown());
    EXPECT_EQ(w.bit(0), V4::One);
    EXPECT_EQ(w.bit(1), V4::One);
    EXPECT_EQ(w.bit(2), V4::Zero);
    EXPECT_EQ(w.bit(15), V4::One);

    w.setBit(3, V4::X);
    EXPECT_FALSE(w.isFullyKnown());
    EXPECT_EQ(w.bit(3), V4::X);
    w.setBit(3, V4::One);
    EXPECT_EQ(w.bit(3), V4::One);
    EXPECT_TRUE(w.isFullyKnown());
}

TEST(Word16, XBitsMaskValue)
{
    // X bits must read back as zero in `value` so equal words compare
    // equal bitwise.
    Word16 a(0xffff, 0x00ff);
    EXPECT_EQ(a.value, 0xff00);
    Word16 b(0xff00, 0x00ff);
    EXPECT_TRUE(a == b);
}

TEST(Word16, AllXAndToString)
{
    Word16 x = Word16::allX();
    EXPECT_FALSE(x.isFullyKnown());
    EXPECT_EQ(x.toString(), std::string(16, 'x'));
    Word16 k = Word16::known(0x8001);
    EXPECT_EQ(k.toString(), "1000000000000001");
}

// --- V64: 64 packed three-valued lanes -------------------------------

constexpr V4 kVals[3] = {V4::Zero, V4::One, V4::X};

/** Pack operand pairs so all 9 (a,b) combinations occupy distinct
 *  lanes, plus pseudo-random fill in the upper lanes. */
void
fillOperands(V64 &a, V64 &b)
{
    unsigned l = 0;
    for (V4 va : kVals)
        for (V4 vb : kVals) {
            a.setLane(l, va);
            b.setLane(l, vb);
            ++l;
        }
    for (; l < 64; ++l) {
        a.setLane(l, kVals[(l * 7 + 1) % 3]);
        b.setLane(l, kVals[(l * 5 + 2) % 3]);
    }
}

TEST(V64, LaneAccessAndCanonicalForm)
{
    V64 v;
    EXPECT_EQ(v, V64::allX());
    for (unsigned l = 0; l < 64; ++l)
        EXPECT_EQ(v.lane(l), V4::X);
    v.setLane(0, V4::One);
    v.setLane(63, V4::Zero);
    EXPECT_EQ(v.lane(0), V4::One);
    EXPECT_EQ(v.lane(63), V4::Zero);
    EXPECT_EQ(v.lane(17), V4::X);
    v.setLane(0, V4::X);
    EXPECT_EQ(v.lane(0), V4::X);
    // Canonical: X lanes keep their value-plane bit at 0, so plane
    // equality is lane equality.
    EXPECT_EQ(v.v & ~v.k, 0u);
    V64 noncanon(~uint64_t(0), 0x5aa5);
    EXPECT_EQ(noncanon.v, uint64_t(0x5aa5));
}

TEST(V64, SplatAndToString)
{
    EXPECT_EQ(V64::splat(V4::X), V64::allX());
    V64 ones = V64::splat(V4::One);
    V64 zeros = V64::splat(V4::Zero);
    for (unsigned l = 0; l < 64; ++l) {
        EXPECT_EQ(ones.lane(l), V4::One);
        EXPECT_EQ(zeros.lane(l), V4::Zero);
    }
    EXPECT_EQ(V64::allX().toString(), std::string(64, 'x'));
    V64 v;
    v.setLane(0, V4::One);
    EXPECT_EQ(v.toString().back(), '1');
}

TEST(V64, DiffMask)
{
    V64 a, b;
    fillOperands(a, b);
    uint64_t d = a.diffMask(b);
    for (unsigned l = 0; l < 64; ++l)
        EXPECT_EQ((d >> l) & 1, a.lane(l) != b.lane(l) ? 1u : 0u)
            << "lane " << l;
}

TEST(V64, OpsMatchScalarTruthTables)
{
    V64 a, b;
    fillOperands(a, b);
    V64 rAnd = logicAnd(a, b);
    V64 rOr = logicOr(a, b);
    V64 rXor = logicXor(a, b);
    V64 rNot = logicNot(a);
    for (unsigned l = 0; l < 64; ++l) {
        V4 va = a.lane(l), vb = b.lane(l);
        EXPECT_EQ(rAnd.lane(l), logicAnd(va, vb)) << "lane " << l;
        EXPECT_EQ(rOr.lane(l), logicOr(va, vb)) << "lane " << l;
        EXPECT_EQ(rXor.lane(l), logicXor(va, vb)) << "lane " << l;
        EXPECT_EQ(rNot.lane(l), logicNot(va)) << "lane " << l;
    }
    // Results stay canonical (X lanes read 0 on the value plane).
    for (const V64 &r : {rAnd, rOr, rXor, rNot})
        EXPECT_EQ(r.v & ~r.k, 0u);
}

TEST(V64, MuxMatchesScalarAllCombinations)
{
    // All 27 (sel, a, b) combinations, exhaustively.
    for (V4 sel : kVals)
        for (V4 va : kVals)
            for (V4 vb : kVals) {
                V64 r = logicMux(V64::splat(sel), V64::splat(va),
                               V64::splat(vb));
                V4 expect = logicMux(sel, va, vb);
                for (unsigned l = 0; l < 64; ++l)
                    EXPECT_EQ(r.lane(l), expect)
                        << v4Char(sel) << v4Char(va) << v4Char(vb)
                        << " lane " << l;
                EXPECT_EQ(r.v & ~r.k, 0u);
            }
}

TEST(V64, RandomizedLaneExactness)
{
    fuzz::Rng rng(0x5eedu);
    auto randomV64 = [&rng]() {
        V64 v;
        for (unsigned l = 0; l < 64; ++l)
            v.setLane(l, kVals[rng.below(3)]);
        return v;
    };
    for (unsigned iter = 0; iter < 200; ++iter) {
        V64 sel = randomV64(), a = randomV64(), b = randomV64();
        V64 rAnd = logicAnd(a, b);
        V64 rOr = logicOr(a, b);
        V64 rXor = logicXor(a, b);
        V64 rNot = logicNot(a);
        V64 rMux = logicMux(sel, a, b);
        for (unsigned l = 0; l < 64; ++l) {
            ASSERT_EQ(rAnd.lane(l), logicAnd(a.lane(l), b.lane(l)));
            ASSERT_EQ(rOr.lane(l), logicOr(a.lane(l), b.lane(l)));
            ASSERT_EQ(rXor.lane(l), logicXor(a.lane(l), b.lane(l)));
            ASSERT_EQ(rNot.lane(l), logicNot(a.lane(l)));
            ASSERT_EQ(rMux.lane(l),
                      logicMux(sel.lane(l), a.lane(l), b.lane(l)));
        }
    }
}

} // namespace
} // namespace ulpeak
