/**
 * @file
 * Unit tests for the synthetic standard-cell library: functional
 * evaluation (including X semantics), sequential cell behaviour and
 * the power-model lookups used by Algorithm 2.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "cell/cell_library.hh"
#include "logic/v64.hh"
#include "netlist/netlist.hh"
#include "sim/packed_simulator.hh"
#include "sim/simulator.hh"

namespace ulpeak {

/** Recalibrates one kind's internal rise and fall energies. */
struct CellLibraryTestAccess {
    static void
    setEnergies(CellLibrary &lib, CellKind k, double rise_j, double fall_j)
    {
        lib.params_[size_t(k)].riseEnergyJ = rise_j;
        lib.params_[size_t(k)].fallEnergyJ = fall_j;
    }
};

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

/** Which outputs the cell's 0/1 resolutions of @p in reach:
 *  seen[b] is set when some completion of the X inputs gives b. */
std::array<bool, 2>
resolvedOutputs(CellKind k, const V4 *in, unsigned nin)
{
    std::array<bool, 2> seen = {false, false};
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
    return seen;
}

/** The spec over three-valued inputs: the common output of every 0/1
 *  completion of the X inputs, X when they differ. Each cell is a
 *  read-once formula (and Mux2's X-select rule is the same
 *  completion rule), so this is exactly what evalCell must give. */
V4
cellSpecV4(CellKind k, const V4 *in, unsigned nin)
{
    std::array<bool, 2> seen = resolvedOutputs(k, in, nin);
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

TEST(CellTable, ThreeValuedEvaluationIsSoundAndExact)
{
    // Soundness: a known output equals the cell's output under every
    // 0/1 resolution of the X inputs. Exactness: an X output has two
    // resolutions whose outputs differ. Checked for evalCell<V4> and
    // the truth table on every input vector of every non-constant
    // combinational kind.
    const V4 *table = cellTruthTable();
    unsigned vectors = 0, unsound = 0, inexact = 0;
    for (CellKind kind : combinationalKinds()) {
        unsigned nin = cellFaninCount(kind);
        if (nin == 0)
            continue;
        for (unsigned c = 0; c < pow3(nin); ++c, ++vectors) {
            V4 in[4] = {Z, Z, Z, Z};
            unsigned idx = ternaryAssignment(c, nin, in);
            std::array<bool, 2> seen = resolvedOutputs(kind, in, nin);
            for (V4 out : {evalCell(kind, in),
                           table[size_t(kind) * kPackedFaninStates + idx]}) {
                if (out != X && seen[out == O ? 0 : 1])
                    ++unsound;
                if (out == X && !(seen[0] && seen[1]))
                    ++inexact;
            }
        }
    }
    EXPECT_EQ(vectors, 735u);
    EXPECT_EQ(unsound, 0u);
    EXPECT_EQ(inexact, 0u);
}

/** The sequential kinds. */
constexpr CellKind kSeqKinds[] = {CellKind::Dff, CellKind::Dffe,
                                  CellKind::Dffr, CellKind::Dffre};

/**
 * The flop spec as a literal table over (en, rstn) -- an absent pin
 * reads 1 -- with one character per (q, d) in the order (0,0), (0,1),
 * (0,X), (1,0), ..., (X,X): the next state, and whether the hold is
 * provable. Enable low keeps q and holds; enable X keeps q where q and
 * d are known and equal (and only there holds); reset low clears and
 * holds only a 0; reset X keeps a loaded 0, otherwise gives X, and
 * never holds.
 */
struct SeqRow {
    V4 en, rstn;
    const char *next;
    const char *held;
};
const SeqRow kSeqTable[] = {
    {O, O, "01x01x01x", "000000000"},
    {Z, O, "000111xxx", "111111111"},
    {X, O, "0xxx1xxxx", "100010000"},
    {O, Z, "000000000", "111000000"},
    {Z, Z, "000000000", "111000000"},
    {X, Z, "000000000", "111000000"},
    {O, X, "0xx0xx0xx", "000000000"},
    {Z, X, "000xxxxxx", "000000000"},
    {X, X, "0xxxxxxxx", "000000000"},
};

/** A flop's fanins for (d, en, rstn), in its pin order. */
void
seqPins(CellKind k, V4 d, V4 en, V4 rstn, V4 *in)
{
    in[0] = d;
    switch (k) {
      case CellKind::Dffe: in[1] = en; break;
      case CellKind::Dffr: in[1] = rstn; break;
      case CellKind::Dffre: in[1] = en; in[2] = rstn; break;
      default: break;
    }
}

/** The activity rule stated branch by branch: a held flop is
 *  inactive, a known-to-known edge is active when the value changed,
 *  and any other edge unless it reloaded the same unknown (loaded at
 *  the previous edge, no X control pin, D inactive, knownness
 *  unchanged). */
bool
seqActivitySpec(V4 q, V4 next, bool held, bool ctrl_x, bool loaded_prev,
                bool d_active)
{
    if (held)
        return false;
    if (q != X && next != X)
        return q != next;
    return !loaded_prev || ctrl_x || d_active ||
           (q != X) != (next != X);
}

TEST(SeqCell, EveryEdgeMatchesTheLiteralTable)
{
    // Every kind, every (q, pins) in {0, 1, X} and every load history
    // and D activity: next state and hold against the table, activity
    // against the branchwise rule.
    unsigned checked = 0;
    for (CellKind kind : kSeqKinds) {
        for (const SeqRow &row : kSeqTable) {
            bool has_en = kind == CellKind::Dffe || kind == CellKind::Dffre;
            bool has_rstn =
                kind == CellKind::Dffr || kind == CellKind::Dffre;
            if ((!has_en && row.en != O) || (!has_rstn && row.rstn != O))
                continue;
            bool ctrl_x = row.en == X || row.rstn == X;
            for (unsigned c = 0; c < 9; ++c) {
                V4 q = V4(c / 3), d = V4(c % 3);
                V4 in[3];
                seqPins(kind, d, row.en, row.rstn, in);
                V4 want = v4FromChar(row.next[c]);
                bool want_held = row.held[c] == '1';
                bool held = !want_held;
                ASSERT_EQ(evalSeqCell(kind, q, in, held), want)
                    << cellName(kind) << " row " << &row - kSeqTable
                    << " (q, d) #" << c;
                ASSERT_EQ(held, want_held)
                    << cellName(kind) << " row " << &row - kSeqTable
                    << " (q, d) #" << c;
                for (unsigned h = 0; h < 4; ++h, ++checked) {
                    bool loaded_prev = h & 1, d_active = h & 2;
                    SeqEdge<V4> e =
                        evalSeqEdge(kind, q, in, loaded_prev, d_active);
                    ASSERT_EQ(e.next, want);
                    ASSERT_EQ(e.held, want_held);
                    ASSERT_EQ(e.active,
                              seqActivitySpec(q, want, want_held, ctrl_x,
                                              loaded_prev, d_active))
                        << cellName(kind) << " row " << &row - kSeqTable
                        << " (q, d) #" << c << " history " << h;
                }
            }
        }
    }
    // (9 + 27 + 27 + 81) (q, pins) combinations x 4 histories.
    EXPECT_EQ(checked, 144u * 4);
}

TEST(SeqCell, PackedLanesMatchTheScalarInstance)
{
    // evalSeqEdge<V64> with a different (q, d, en, rstn, load
    // history, D activity) in every lane -- 324 combinations over six
    // words -- against evalSeqEdge<V4> lane for lane.
    const unsigned n = 81 * 4;
    for (CellKind kind : kSeqKinds) {
        for (unsigned base = 0; base < n; base += 64) {
            V64 q, in[3];
            uint64_t loaded_prev = 0, d_active = 0;
            V4 lq[64], lin[64][3] = {};
            bool lloaded[64], ldact[64];
            for (unsigned l = 0; l < 64 && base + l < n; ++l) {
                unsigned c = base + l;
                V4 v[4];
                ternaryAssignment(c % 81, 4, v);
                lq[l] = v[0];
                seqPins(kind, v[1], v[2], v[3], lin[l]);
                lloaded[l] = (c / 81) & 1;
                ldact[l] = (c / 81) & 2;
                q.setLane(l, lq[l]);
                for (unsigned p = 0; p < cellFaninCount(kind); ++p)
                    in[p].setLane(l, lin[l][p]);
                loaded_prev |= uint64_t(lloaded[l]) << l;
                d_active |= uint64_t(ldact[l]) << l;
            }
            SeqEdge<V64> e =
                evalSeqEdge(kind, q, in, loaded_prev, d_active);
            for (unsigned l = 0; l < 64 && base + l < n; ++l) {
                SeqEdge<V4> s = evalSeqEdge(kind, lq[l], lin[l],
                                            lloaded[l], ldact[l]);
                ASSERT_EQ(e.next.lane(l), s.next)
                    << cellName(kind) << " combination #" << base + l;
                ASSERT_EQ(bool((e.held >> l) & 1), s.held)
                    << cellName(kind) << " combination #" << base + l;
                ASSERT_EQ(bool((e.active >> l) & 1), s.active)
                    << cellName(kind) << " combination #" << base + l;
            }
        }
    }
}

/**
 * Algorithm 2's charge of one active gate for every (prev, cur) in
 * {0,1,X}^2, in both kernels. A Buf of a driven input sees exactly the
 * pair driven, and its own module's bound energy is its charge. The
 * charge is the worst transition energy over the concrete resolutions
 * of the pair (so at least each of them), a known p == c bills 0, and
 * each packed lane, one pair per lane, bills the scalar amount. It
 * runs on the rise-dominant built-in library and on a fall-dominant
 * recalibration, so a charge that reads one fixed column fails.
 */
TEST(CellCharge, EveryPairCoversItsConcreteResolutionsInBothKernels)
{
    CellLibrary fallHeavy = CellLibrary::tsmc65Like();
    CellLibraryTestAccess::setEnergies(fallHeavy, CellKind::Buf, 1.0e-15,
                                       3.0e-15);
    const V4 vals[3] = {Z, O, X};
    auto resolutions = [](V4 v) {
        return v == X ? std::vector<V4>{Z, O} : std::vector<V4>{v};
    };
    for (const CellLibrary &lib : {CellLibrary::tsmc65Like(), fallHeavy}) {
        Netlist nl(lib);
        ModuleId src = nl.addModule("src"), dut = nl.addModule("dut");
        GateId a = nl.addGate(CellKind::Input, {}, src);
        GateId g = nl.addGate(CellKind::Buf, {a}, dut);
        nl.finalize();
        const double rise = nl.riseEnergyJ(g), fall = nl.fallEnergyJ(g);
        ASSERT_NE(rise, fall);
        auto transition = [&](V4 p, V4 c) {
            return p == c ? 0.0 : c == O ? rise : fall;
        };

        // Lane i drives pair i = (vals[i / 3], vals[i % 3]); the other
        // lanes stay X.
        PackedSimulator psim(nl);
        V64 first = V64::allX(), second = V64::allX();
        for (unsigned i = 0; i < 9; ++i) {
            first.setLane(i, vals[i / 3]);
            second.setLane(i, vals[i % 3]);
        }
        psim.step([&](PackedSimulator &s) { s.setInput(a, first); });
        psim.step([&](PackedSimulator &s) { s.setInput(a, second); });

        for (unsigned i = 0; i < 9; ++i) {
            const V4 p = vals[i / 3], c = vals[i % 3];
            double worst = 0.0;
            for (V4 rp : resolutions(p))
                for (V4 rc : resolutions(c))
                    worst = std::max(worst, transition(rp, rc));
            for (EvalMode mode :
                 {EvalMode::EventDriven, EvalMode::FullSweep}) {
                Simulator sim(nl, mode);
                sim.step([&](Simulator &s) { s.setInput(a, p); });
                sim.step([&](Simulator &s) { s.setInput(a, c); });
                ASSERT_EQ(sim.value(g), c);
                const double charge = sim.moduleBoundEnergyJ()[dut];
                const std::string at =
                    std::string(rise < fall ? "fall-dominant" : "built-in") +
                    " library, pair " + "01X"[unsigned(p)] + " -> " +
                    "01X"[unsigned(c)];
                for (V4 rp : resolutions(p))
                    for (V4 rc : resolutions(c))
                        EXPECT_GE(charge, transition(rp, rc)) << at;
                EXPECT_EQ(charge, worst) << at;
                if (p != X && p == c)
                    EXPECT_EQ(charge, 0.0) << at;
                EXPECT_EQ(psim.moduleBoundEnergyLaneJ(i)[dut], charge)
                    << at;
            }
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
