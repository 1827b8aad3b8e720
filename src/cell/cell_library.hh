/**
 * @file
 * Synthetic standard-cell library.
 *
 * The paper synthesizes openMSP430 into TSMC 65GP standard cells and runs
 * Synopsys PrimeTime power analysis on the placed-and-routed netlist. We
 * substitute a synthetic cell library: each cell kind carries input
 * capacitance, internal per-transition switching energy, output drive
 * (load handled via fanout capacitance), leakage power and area. The
 * absolute constants are calibrated (see CellLibrary::tsmc65Like and
 * CellLibrary::f1610Like) so totals land in the paper's milliwatt range;
 * all of the paper's *comparative* results depend only on relative
 * activity, which the library preserves.
 *
 * The library also provides the "maximum power transition" lookup used by
 * Algorithm 2: for a gate whose value is X in two consecutive cycles, the
 * peak-power assignment picks the transition of that cell with the highest
 * energy (for CMOS cells the 0->1 output transition, which charges the
 * output load, is the more expensive one here).
 */

#ifndef ULPEAK_CELL_CELL_LIBRARY_HH
#define ULPEAK_CELL_CELL_LIBRARY_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <string>

#include "logic/v4.hh"

namespace ulpeak {

/**
 * Every cell kind the hardware builder may instantiate. Combinational
 * kinds come first; sequential kinds (DFF*) last. INPUT denotes a primary
 * input (driven by the simulator each cycle); CONST0/1 are tie cells.
 */
enum class CellKind : uint8_t {
    Const0,
    Const1,
    Input,
    Buf,
    Inv,
    And2,
    And3,
    And4,
    Or2,
    Or3,
    Or4,
    Nand2,
    Nand3,
    Nand4,
    Nor2,
    Nor3,
    Nor4,
    Xor2,
    Xnor2,
    Mux2,   ///< in: a, b, sel; out = sel ? b : a
    Aoi21,  ///< out = !((a & b) | c)
    Oai21,  ///< out = !((a | b) & c)
    Aoi22,  ///< out = !((a & b) | (c & d))
    Oai22,  ///< out = !((a | b) & (c | d))
    Dff,    ///< in: d
    Dffe,   ///< in: d, en      (en==0 holds)
    Dffr,   ///< in: d, rstn    (rstn==0 clears)
    Dffre,  ///< in: d, en, rstn
    NumKinds,
};

constexpr size_t kNumCellKinds = size_t(CellKind::NumKinds);

/** @return true for the DFF* kinds. */
bool isSequential(CellKind k);

/** @return number of data fanins for @p k (0 for Const/Input). */
unsigned cellFaninCount(CellKind k);

/** Canonical liberty-style cell name, e.g. "NAND2_X1". */
const char *cellName(CellKind k);

/**
 * Evaluate the combinational function of @p k over three-valued
 * inputs: the one per-kind cell composition. @p V is V4 (one value)
 * or V64 (64 lanes, logic/v64.hh), whose ops share names and agree
 * lane for lane, so the scalar kernel's truth table (built from the
 * V4 instance) and the packed kernel (the V64 instance) compute the
 * same function. Must not be called for sequential or Input kinds.
 */
template <typename V>
V
evalCell(CellKind k, const V *in)
{
    switch (k) {
      case CellKind::Const0:
        return logicSplat<V>(V4::Zero);
      case CellKind::Const1:
        return logicSplat<V>(V4::One);
      case CellKind::Buf:
        return in[0];
      case CellKind::Inv:
        return logicNot(in[0]);
      case CellKind::And2:
        return logicAnd(in[0], in[1]);
      case CellKind::And3:
        return logicAnd(logicAnd(in[0], in[1]), in[2]);
      case CellKind::And4:
        return logicAnd(logicAnd(in[0], in[1]), logicAnd(in[2], in[3]));
      case CellKind::Or2:
        return logicOr(in[0], in[1]);
      case CellKind::Or3:
        return logicOr(logicOr(in[0], in[1]), in[2]);
      case CellKind::Or4:
        return logicOr(logicOr(in[0], in[1]), logicOr(in[2], in[3]));
      case CellKind::Nand2:
        return logicNot(logicAnd(in[0], in[1]));
      case CellKind::Nand3:
        return logicNot(logicAnd(logicAnd(in[0], in[1]), in[2]));
      case CellKind::Nand4:
        return logicNot(
            logicAnd(logicAnd(in[0], in[1]), logicAnd(in[2], in[3])));
      case CellKind::Nor2:
        return logicNot(logicOr(in[0], in[1]));
      case CellKind::Nor3:
        return logicNot(logicOr(logicOr(in[0], in[1]), in[2]));
      case CellKind::Nor4:
        return logicNot(
            logicOr(logicOr(in[0], in[1]), logicOr(in[2], in[3])));
      case CellKind::Xor2:
        return logicXor(in[0], in[1]);
      case CellKind::Xnor2:
        return logicNot(logicXor(in[0], in[1]));
      case CellKind::Mux2:
        return logicMux(in[2], in[0], in[1]);
      case CellKind::Aoi21:
        return logicNot(logicOr(logicAnd(in[0], in[1]), in[2]));
      case CellKind::Oai21:
        return logicNot(logicAnd(logicOr(in[0], in[1]), in[2]));
      case CellKind::Aoi22:
        return logicNot(
            logicOr(logicAnd(in[0], in[1]), logicAnd(in[2], in[3])));
      case CellKind::Oai22:
        return logicNot(
            logicAnd(logicOr(in[0], in[1]), logicOr(in[2], in[3])));
      default:
        assert(false && "evalCell called on non-combinational kind");
        return logicSplat<V>(V4::X);
    }
}

/**
 * Index of a packed fanin vector: pin p's V4 value occupies bits
 * [2p, 2p + 1], unused pins are 0. Four pins fit in one byte.
 */
constexpr unsigned kPackedFaninStates = 256;

/**
 * Truth tables of every combinational kind over packed fanins:
 * entry [k * kPackedFaninStates + idx] is evalCell(k, unpack(idx)).
 * Built once, from evalCell<V4> itself, so a table lookup and evalCell
 * agree by construction (tests/test_cell_library.cc checks every kind
 * over all 3^nin inputs). Entries of non-combinational kinds, and of
 * indices no fanin vector packs to, are X.
 */
const V4 *cellTruthTable();

/** A lane mask of logic type @p V: bool for V4, one bit per lane
 *  (uint64_t) for V64. */
template <typename V>
using LaneMask = decltype(logicKnown(V()));

/** One clock edge of a sequential cell. */
template <typename V>
struct SeqEdge {
    V next;             ///< value after the edge
    LaneMask<V> held;   ///< provably kept its value, even an X one
    LaneMask<V> active; ///< may have toggled at this edge
};

/**
 * Clock a sequential cell: the one flop evaluator of both kernels,
 * instantiated for V4 and V64 like evalCell.
 *
 * @param k            sequential cell kind
 * @param q            present output value
 * @param in           fanin values at the edge (d [, en][, rstn]);
 *                     absent pins read 1 (enable on, reset released)
 * @param loaded_prev  the cell loaded (was not held) at the previous edge
 * @param d_active     the D pin was active in the cycle before the edge
 *
 * Reset (modeled synchronously) clears, a low enable keeps q, and an X
 * pin resolves only where both choices agree. The hold proof: a low
 * enable holds any value, an X enable holds where q equals d and is
 * known, a low reset holds only a known 0 and an X reset never holds.
 * The activity rule (Section 3.1): a held cell is inactive; a
 * known-to-known edge is active when the value changed; an X-involved
 * edge may have toggled unless it provably reloaded the same unknown
 * as before -- the cell loaded at the previous edge, no control pin is
 * X, the D pin was inactive and q's knownness is unchanged.
 *
 * Always inlined: GCC keeps the V4 instance out of line otherwise, and
 * returning the three fields through the stack cost the scalar
 * full-sweep kernel about 5% of its cycles/s on FFT.
 */
template <typename V>
[[gnu::always_inline]] inline SeqEdge<V>
evalSeqEdge(CellKind k, V q, const V *in, LaneMask<V> loaded_prev,
            LaneMask<V> d_active)
{
    V d = in[0];
    V en = logicSplat<V>(V4::One);
    V rstn = logicSplat<V>(V4::One);
    switch (k) {
      case CellKind::Dff:
        break;
      case CellKind::Dffe:
        en = in[1];
        break;
      case CellKind::Dffr:
        rstn = in[1];
        break;
      case CellKind::Dffre:
        en = in[1];
        rstn = in[2];
        break;
      default:
        assert(false && "evalSeqEdge called on non-sequential kind");
        return {logicSplat<V>(V4::X), LaneMask<V>(), LaneMask<V>()};
    }
    SeqEdge<V> e;
    e.next = logicAnd(rstn, logicMux(en, q, d));
    LaneMask<V> en_held =
        logicIsZero(en) | (laneNot(logicKnown(en)) & logicSame(q, d));
    e.held = (logicIsOne(rstn) & en_held) |
             (logicIsZero(rstn) & logicIsZero(q));
    LaneMask<V> both_known = logicKnown(e.next) & logicKnown(q);
    LaneMask<V> x_may_toggle =
        laneNot(loaded_prev) | laneNot(logicKnown(en)) |
        laneNot(logicKnown(rstn)) | d_active |
        (logicKnown(e.next) ^ logicKnown(q));
    e.active = laneNot(e.held) &
               ((both_known & laneNot(logicSame(e.next, q))) |
                (laneNot(both_known) & x_may_toggle));
    return e;
}

/**
 * The next state and hold proof of evalSeqEdge alone: what the
 * predictors and the lint const analysis read. @p held is set where
 * the cell provably kept its value (e.g. enable low).
 */
template <typename V>
V
evalSeqCell(CellKind k, V q, const V *in, LaneMask<V> &held)
{
    SeqEdge<V> e = evalSeqEdge(k, q, in, LaneMask<V>(), LaneMask<V>());
    held = e.held;
    return e.next;
}

/** Per-cell electrical / power parameters. */
struct CellParams {
    double inputCapF = 0.0;     ///< capacitance per input pin [F]
    double riseEnergyJ = 0.0;   ///< internal energy, output 0->1 [J]
    double fallEnergyJ = 0.0;   ///< internal energy, output 1->0 [J]
    double leakageW = 0.0;      ///< static leakage [W]
    double areaUm2 = 0.0;       ///< cell area [um^2]
    double clkPinEnergyJ = 0.0; ///< per-cycle clock-pin energy (seq only)
};

/** Test seam, defined only by tests: recalibrates a library's
 *  parameters. Every built-in library's rise costs at least its fall,
 *  so a test of Algorithm 2's charge on a fall-dominant cell needs a
 *  library of its own. */
struct CellLibraryTestAccess;

/**
 * A calibrated cell library: parameters for every kind plus the global
 * electrical context (supply, wire load per fanout).
 */
class CellLibrary {
  public:
    /** 65 nm-class profile used for the openMSP430-like evaluations. */
    static CellLibrary tsmc65Like();
    /**
     * 130 nm-class profile standing in for the MSP430F1610 silicon
     * measured in Chapter 2 (higher caps, lower frequency context).
     */
    static CellLibrary f1610Like();

    const CellParams &
    params(CellKind k) const
    {
        return params_[size_t(k)];
    }

    double vdd() const { return vdd_; }
    /** Wire + receiver load added per fanout connection [F]. */
    double wireCapPerFanoutF() const { return wireCapPerFanout_; }
    const std::string &name() const { return name_; }

    /**
     * Energy of one output transition of a @p k cell driving
     * @p fanouts receivers. 0->1 charges the load (0.5*C*V^2 on top of
     * internal energy); 1->0 dissipates the internal energy only (the
     * load discharge energy was accounted at charge time).
     */
    double transitionEnergyJ(CellKind k, bool rising,
                             unsigned fanouts) const;

    /** Algorithm 2's maxTransition: the costlier of rise/fall. */
    double maxTransitionEnergyJ(CellKind k, unsigned fanouts) const;

    /**
     * Dynamic-energy scale factor of running this library at supply
     * @p vdd_v instead of its calibration voltage: (vdd_v / vdd())^2.
     * Every dynamic term here -- internal rise/fall energy, the
     * 0.5*C*V^2 load charge, and the clock-pin energy -- is
     * proportional to vdd^2, so one factor rescales a whole cycle's
     * switching energy (what the operating-mode schedules of
     * scenario::OperatingMode rely on). Throws std::invalid_argument
     * unless @p vdd_v is positive and finite.
     */
    double energyScale(double vdd_v) const;

    /**
     * transitionEnergyJ evaluated at supply @p vdd_v: the calibrated
     * energy (internal + load-charge terms) times
     * energyScale(vdd_v). energyScale(vdd()) == 1 exactly, so the
     * default operating point reproduces transitionEnergyJ
     * bit-for-bit. Clock-pin energy scales by the same factor --
     * the engine applies energyScale to whole per-cycle switching
     * energies, which the simulator accumulates with clkPinEnergyJ
     * already inside.
     */
    double scaledTransitionEnergyJ(CellKind k, bool rising,
                                   unsigned fanouts,
                                   double vdd_v) const;

    /**
     * The first/second cycle values of the maximum-power transition of
     * cell @p k (paper: maxTransition(g,1) / maxTransition(g,2)). For
     * every cell here the rising output transition is the expensive one,
     * so this returns 0 then 1.
     */
    V4 maxTransitionValue(CellKind k, unsigned phase) const;

    /** Equal content: name, electrical context and every kind's
     *  parameters (what msp::System keys its shared core by). */
    bool operator==(const CellLibrary &o) const;

  private:
    friend struct CellLibraryTestAccess;
    CellLibrary() = default;

    std::string name_;
    double vdd_ = 1.0;
    double wireCapPerFanout_ = 0.0;
    std::array<CellParams, kNumCellKinds> params_{};
};

} // namespace ulpeak

#endif // ULPEAK_CELL_CELL_LIBRARY_HH
