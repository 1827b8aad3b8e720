/**
 * @file
 * Unit tests for the synthetic standard-cell library: functional
 * evaluation (including X semantics), sequential cell behaviour and
 * the power-model lookups used by Algorithm 2.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cell/cell_library.hh"
#include "logic/v64.hh"

namespace ulpeak {
namespace {

V4 Z = V4::Zero, O = V4::One, X = V4::X;

TEST(CellEval, BasicGates)
{
    V4 in2[2] = {O, Z};
    EXPECT_EQ(evalCell(CellKind::Nand2, in2), O);
    in2[1] = O;
    EXPECT_EQ(evalCell(CellKind::Nand2, in2), Z);
    EXPECT_EQ(evalCell(CellKind::And2, in2), O);
    EXPECT_EQ(evalCell(CellKind::Xor2, in2), Z);
    EXPECT_EQ(evalCell(CellKind::Xnor2, in2), O);
}

TEST(CellEval, XPropagation)
{
    V4 in2[2] = {Z, X};
    // Controlling values block X.
    EXPECT_EQ(evalCell(CellKind::And2, in2), Z);
    EXPECT_EQ(evalCell(CellKind::Nand2, in2), O);
    in2[0] = O;
    EXPECT_EQ(evalCell(CellKind::Or2, in2), O);
    EXPECT_EQ(evalCell(CellKind::Nor2, in2), Z);
    // Non-controlling values propagate X.
    EXPECT_EQ(evalCell(CellKind::And2, in2), X);
    EXPECT_EQ(evalCell(CellKind::Xor2, in2), X);
}

TEST(CellEval, ComplexCells)
{
    // AOI21: !((a & b) | c)
    V4 in3[3] = {O, O, Z};
    EXPECT_EQ(evalCell(CellKind::Aoi21, in3), Z);
    in3[0] = Z;
    EXPECT_EQ(evalCell(CellKind::Aoi21, in3), O);
    in3[2] = O;
    EXPECT_EQ(evalCell(CellKind::Aoi21, in3), Z);
    // OAI22: !((a | b) & (c | d))
    V4 in4[4] = {Z, Z, O, O};
    EXPECT_EQ(evalCell(CellKind::Oai22, in4), O);
    in4[0] = O;
    EXPECT_EQ(evalCell(CellKind::Oai22, in4), Z);
}

TEST(CellEval, Mux2SelectsByThirdPin)
{
    V4 in3[3] = {Z, O, Z};
    EXPECT_EQ(evalCell(CellKind::Mux2, in3), Z);
    in3[2] = O;
    EXPECT_EQ(evalCell(CellKind::Mux2, in3), O);
}

TEST(SeqCell, DffLoads)
{
    bool held = false;
    V4 in[1] = {O};
    EXPECT_EQ(evalSeqCell(CellKind::Dff, Z, in, held), O);
    EXPECT_FALSE(held);
}

TEST(SeqCell, DffeHoldIsProvable)
{
    bool held = false;
    V4 in[2] = {O, Z}; // d=1, en=0
    EXPECT_EQ(evalSeqCell(CellKind::Dffe, X, in, held), X);
    EXPECT_TRUE(held) << "enable low must prove the hold";
    in[1] = O;
    EXPECT_EQ(evalSeqCell(CellKind::Dffe, Z, in, held), O);
    EXPECT_FALSE(held);
}

TEST(SeqCell, DffeXEnable)
{
    bool held = false;
    // en=X with q==d known: value certain either way.
    V4 in[2] = {O, X};
    EXPECT_EQ(evalSeqCell(CellKind::Dffe, O, in, held), O);
    // en=X with q!=d: unknown.
    EXPECT_EQ(evalSeqCell(CellKind::Dffe, Z, in, held), X);
}

TEST(SeqCell, DffrReset)
{
    bool held = false;
    V4 in[2] = {O, Z}; // d=1, rstn=0
    EXPECT_EQ(evalSeqCell(CellKind::Dffr, X, in, held), Z);
    in[1] = O;
    EXPECT_EQ(evalSeqCell(CellKind::Dffr, Z, in, held), O);
    // X reset: 0 only if the loaded value is also 0.
    in[1] = X;
    in[0] = Z;
    EXPECT_EQ(evalSeqCell(CellKind::Dffr, Z, in, held), Z);
    in[0] = O;
    EXPECT_EQ(evalSeqCell(CellKind::Dffr, Z, in, held), X);
}

/** The @p c-th assignment of {0, 1, X} to @p n values (base-3 digits)
 *  into @p out, returned packed two bits per value. */
unsigned
ternaryAssignment(unsigned c, unsigned n, V4 *out)
{
    unsigned idx = 0;
    for (unsigned p = 0; p < n; ++p, c /= 3) {
        out[p] = V4(c % 3);
        idx |= unsigned(out[p]) << (2 * p);
    }
    return idx;
}

unsigned
pow3(unsigned n)
{
    return n == 0 ? 1 : 3 * pow3(n - 1);
}

/** Each combinational kind as a plain boolean function, stated
 *  independently of evalCell's composition. */
bool
cellSpec(CellKind k, const bool *in)
{
    bool a = in[0], b = in[1], c = in[2], d = in[3];
    switch (k) {
      case CellKind::Const0: return false;
      case CellKind::Const1: return true;
      case CellKind::Buf: return a;
      case CellKind::Inv: return !a;
      case CellKind::And2: return a && b;
      case CellKind::And3: return a && b && c;
      case CellKind::And4: return a && b && c && d;
      case CellKind::Or2: return a || b;
      case CellKind::Or3: return a || b || c;
      case CellKind::Or4: return a || b || c || d;
      case CellKind::Nand2: return !(a && b);
      case CellKind::Nand3: return !(a && b && c);
      case CellKind::Nand4: return !(a && b && c && d);
      case CellKind::Nor2: return !(a || b);
      case CellKind::Nor3: return !(a || b || c);
      case CellKind::Nor4: return !(a || b || c || d);
      case CellKind::Xor2: return a != b;
      case CellKind::Xnor2: return a == b;
      case CellKind::Mux2: return c ? b : a;
      case CellKind::Aoi21: return !((a && b) || c);
      case CellKind::Oai21: return !((a || b) && c);
      case CellKind::Aoi22: return !((a && b) || (c && d));
      case CellKind::Oai22: return !((a || b) && (c || d));
      default:
        ADD_FAILURE() << "no spec for " << cellName(k);
        return false;
    }
}

/** The spec over three-valued inputs: the common output of every 0/1
 *  completion of the X inputs, X when they differ. Each cell is a
 *  read-once formula (and Mux2's X-select rule is the same
 *  completion rule), so this is exactly what evalCell must give. */
V4
cellSpecV4(CellKind k, const V4 *in, unsigned nin)
{
    bool seen[2] = {false, false};
    for (unsigned m = 0; m < (1u << nin); ++m) {
        bool b[4] = {false, false, false, false};
        bool consistent = true;
        for (unsigned p = 0; p < nin; ++p) {
            b[p] = (m >> p) & 1;
            if (in[p] != V4::X && fromBool(b[p]) != in[p])
                consistent = false;
        }
        if (consistent)
            seen[cellSpec(k, b)] = true;
    }
    return seen[0] && seen[1] ? V4::X : fromBool(seen[1]);
}

/** Every combinational kind (Const0..Oai22). */
std::vector<CellKind>
combinationalKinds()
{
    std::vector<CellKind> kinds;
    for (size_t k = 0; k < kNumCellKinds; ++k)
        if (CellKind(k) != CellKind::Input && !isSequential(CellKind(k)))
            kinds.push_back(CellKind(k));
    return kinds;
}

TEST(CellTable, TruthTableMatchesTheCellSpecOnAllInputs)
{
    // The kernels' lookup, the evaluator it is built from and the
    // independent spec agree on every combinational kind over all
    // 3^nin inputs in {0, 1, X}.
    const V4 *table = cellTruthTable();
    std::vector<CellKind> kinds = combinationalKinds();
    for (CellKind kind : kinds) {
        unsigned nin = cellFaninCount(kind);
        for (unsigned c = 0; c < pow3(nin); ++c) {
            V4 in[4] = {Z, Z, Z, Z};
            unsigned idx = ternaryAssignment(c, nin, in);
            V4 want = cellSpecV4(kind, in, nin);
            ASSERT_EQ(evalCell(kind, in), want)
                << cellName(kind) << " input #" << c;
            ASSERT_EQ(table[size_t(kind) * kPackedFaninStates + idx], want)
                << cellName(kind) << " input #" << c;
        }
    }
    EXPECT_EQ(kinds.size(), 23u);
}

TEST(CellTable, PackedLanesMatchTheCellSpec)
{
    // The packed kernel's evalCell<V64> with one input assignment per
    // lane (3^4 = 81 assignments, two words) against the spec, lane
    // for lane.
    for (CellKind kind : combinationalKinds()) {
        unsigned nin = cellFaninCount(kind);
        for (unsigned base = 0; base < pow3(nin); base += 64) {
            V64 in[4];
            V4 lanes[64][4];
            for (unsigned l = 0; l < 64 && base + l < pow3(nin); ++l) {
                ternaryAssignment(base + l, nin, lanes[l]);
                for (unsigned p = 0; p < nin; ++p)
                    in[p].setLane(l, lanes[l][p]);
            }
            V64 out = evalCell(kind, in);
            for (unsigned l = 0; l < 64 && base + l < pow3(nin); ++l)
                ASSERT_EQ(out.lane(l), cellSpecV4(kind, lanes[l], nin))
                    << cellName(kind) << " input #" << base + l;
        }
    }
}

TEST(Library, RiseCostsMoreThanFall)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    for (CellKind k : {CellKind::Inv, CellKind::Nand2, CellKind::Xor2,
                       CellKind::Dff}) {
        EXPECT_GT(lib.transitionEnergyJ(k, true, 2),
                  lib.transitionEnergyJ(k, false, 2))
            << cellName(k);
    }
}

TEST(Library, FanoutIncreasesRiseEnergy)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    EXPECT_GT(lib.transitionEnergyJ(CellKind::Nand2, true, 8),
              lib.transitionEnergyJ(CellKind::Nand2, true, 1));
    // Falling edges do not charge the load.
    EXPECT_DOUBLE_EQ(lib.transitionEnergyJ(CellKind::Nand2, false, 8),
                     lib.transitionEnergyJ(CellKind::Nand2, false, 1));
}

TEST(Library, MaxTransitionMatchesAlgorithm2Lookup)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    EXPECT_DOUBLE_EQ(lib.maxTransitionEnergyJ(CellKind::Xor2, 3),
                     lib.transitionEnergyJ(CellKind::Xor2, true, 3));
    // maxTransition(g,1)=0 then maxTransition(g,2)=1: a rising edge.
    EXPECT_EQ(lib.maxTransitionValue(CellKind::Xor2, 1), V4::Zero);
    EXPECT_EQ(lib.maxTransitionValue(CellKind::Xor2, 2), V4::One);
}

TEST(Library, F1610ProfileIsHigherEnergy)
{
    CellLibrary a = CellLibrary::tsmc65Like();
    CellLibrary b = CellLibrary::f1610Like();
    EXPECT_GT(b.transitionEnergyJ(CellKind::Nand2, true, 2),
              a.transitionEnergyJ(CellKind::Nand2, true, 2));
    EXPECT_GT(b.vdd(), a.vdd());
}

TEST(Library, FaninCounts)
{
    EXPECT_EQ(cellFaninCount(CellKind::Inv), 1u);
    EXPECT_EQ(cellFaninCount(CellKind::Mux2), 3u);
    EXPECT_EQ(cellFaninCount(CellKind::Aoi22), 4u);
    EXPECT_EQ(cellFaninCount(CellKind::Dffre), 3u);
    EXPECT_EQ(cellFaninCount(CellKind::Input), 0u);
}

TEST(Library, SequentialClassification)
{
    EXPECT_TRUE(isSequential(CellKind::Dff));
    EXPECT_TRUE(isSequential(CellKind::Dffre));
    EXPECT_FALSE(isSequential(CellKind::Mux2));
    EXPECT_FALSE(isSequential(CellKind::Input));
}

} // namespace
} // namespace ulpeak
