#include "cell/cell_library.hh"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace ulpeak {

bool
isSequential(CellKind k)
{
    switch (k) {
      case CellKind::Dff:
      case CellKind::Dffe:
      case CellKind::Dffr:
      case CellKind::Dffre:
        return true;
      default:
        return false;
    }
}

unsigned
cellFaninCount(CellKind k)
{
    switch (k) {
      case CellKind::Const0:
      case CellKind::Const1:
      case CellKind::Input:
        return 0;
      case CellKind::Buf:
      case CellKind::Inv:
      case CellKind::Dff:
        return 1;
      case CellKind::And2:
      case CellKind::Or2:
      case CellKind::Nand2:
      case CellKind::Nor2:
      case CellKind::Xor2:
      case CellKind::Xnor2:
      case CellKind::Dffe:
      case CellKind::Dffr:
        return 2;
      case CellKind::And3:
      case CellKind::Or3:
      case CellKind::Nand3:
      case CellKind::Nor3:
      case CellKind::Mux2:
      case CellKind::Aoi21:
      case CellKind::Oai21:
      case CellKind::Dffre:
        return 3;
      case CellKind::And4:
      case CellKind::Or4:
      case CellKind::Nand4:
      case CellKind::Nor4:
      case CellKind::Aoi22:
      case CellKind::Oai22:
        return 4;
      default:
        return 0;
    }
}

const char *
cellName(CellKind k)
{
    switch (k) {
      case CellKind::Const0: return "TIELO";
      case CellKind::Const1: return "TIEHI";
      case CellKind::Input: return "PORT_IN";
      case CellKind::Buf: return "BUF_X1";
      case CellKind::Inv: return "INV_X1";
      case CellKind::And2: return "AND2_X1";
      case CellKind::And3: return "AND3_X1";
      case CellKind::And4: return "AND4_X1";
      case CellKind::Or2: return "OR2_X1";
      case CellKind::Or3: return "OR3_X1";
      case CellKind::Or4: return "OR4_X1";
      case CellKind::Nand2: return "NAND2_X1";
      case CellKind::Nand3: return "NAND3_X1";
      case CellKind::Nand4: return "NAND4_X1";
      case CellKind::Nor2: return "NOR2_X1";
      case CellKind::Nor3: return "NOR3_X1";
      case CellKind::Nor4: return "NOR4_X1";
      case CellKind::Xor2: return "XOR2_X1";
      case CellKind::Xnor2: return "XNOR2_X1";
      case CellKind::Mux2: return "MUX2_X1";
      case CellKind::Aoi21: return "AOI21_X1";
      case CellKind::Oai21: return "OAI21_X1";
      case CellKind::Aoi22: return "AOI22_X1";
      case CellKind::Oai22: return "OAI22_X1";
      case CellKind::Dff: return "DFF_X1";
      case CellKind::Dffe: return "DFFE_X1";
      case CellKind::Dffr: return "DFFR_X1";
      case CellKind::Dffre: return "DFFRE_X1";
      default: return "UNKNOWN";
    }
}

const V4 *
cellTruthTable()
{
    static const std::vector<V4> table = [] {
        std::vector<V4> t(kNumCellKinds * kPackedFaninStates, V4::X);
        for (size_t k = 0; k < kNumCellKinds; ++k) {
            CellKind kind = CellKind(k);
            if (kind == CellKind::Input || isSequential(kind))
                continue;
            unsigned nin = cellFaninCount(kind);
            for (unsigned idx = 0; idx < kPackedFaninStates; ++idx) {
                V4 in[4];
                bool packable = true;
                for (unsigned p = 0; p < 4; ++p) {
                    unsigned v = (idx >> (2 * p)) & 3;
                    if (v > unsigned(V4::X) || (p >= nin && v != 0))
                        packable = false;
                    in[p] = V4(v);
                }
                if (packable)
                    t[k * kPackedFaninStates + idx] = evalCell(kind, in);
            }
        }
        return t;
    }();
    return table.data();
}

namespace {

/**
 * Fill a library with energies scaled from a unit energy/cap. Relative
 * cell weights loosely follow a 65 nm educational library: larger stacks
 * cost more; XOR/MUX cost more than NAND; flops dominate.
 */
void
fillParams(std::array<CellParams, kNumCellKinds> &p, double e,
           double cap, double leak, double clk_factor)
{
    auto set = [&](CellKind k, double rise, double fall, double pins,
                   double area, double lk) {
        CellParams &c = p[size_t(k)];
        c.riseEnergyJ = rise * e;
        c.fallEnergyJ = fall * e;
        c.inputCapF = pins * cap;
        c.areaUm2 = area;
        c.leakageW = lk * leak;
    };

    set(CellKind::Const0, 0.0, 0.0, 0.0, 0.5, 0.1);
    set(CellKind::Const1, 0.0, 0.0, 0.0, 0.5, 0.1);
    set(CellKind::Input, 0.3, 0.25, 0.0, 0.0, 0.0);
    set(CellKind::Buf, 0.7, 0.6, 1.0, 1.2, 0.8);
    set(CellKind::Inv, 0.5, 0.4, 1.0, 0.8, 0.6);
    set(CellKind::And2, 1.0, 0.85, 1.0, 1.6, 1.0);
    set(CellKind::And3, 1.3, 1.1, 1.0, 2.0, 1.3);
    set(CellKind::And4, 1.6, 1.35, 1.0, 2.4, 1.6);
    set(CellKind::Or2, 1.0, 0.85, 1.0, 1.6, 1.0);
    set(CellKind::Or3, 1.3, 1.1, 1.0, 2.0, 1.3);
    set(CellKind::Or4, 1.6, 1.35, 1.0, 2.4, 1.6);
    set(CellKind::Nand2, 0.8, 0.65, 1.0, 1.2, 0.9);
    set(CellKind::Nand3, 1.1, 0.9, 1.0, 1.6, 1.2);
    set(CellKind::Nand4, 1.4, 1.15, 1.0, 2.0, 1.5);
    set(CellKind::Nor2, 0.85, 0.7, 1.0, 1.2, 0.9);
    set(CellKind::Nor3, 1.15, 0.95, 1.0, 1.6, 1.2);
    set(CellKind::Nor4, 1.45, 1.2, 1.0, 2.0, 1.5);
    set(CellKind::Xor2, 1.8, 1.6, 1.3, 2.4, 1.6);
    set(CellKind::Xnor2, 1.8, 1.6, 1.3, 2.4, 1.6);
    set(CellKind::Mux2, 1.6, 1.4, 1.1, 2.4, 1.5);
    set(CellKind::Aoi21, 1.1, 0.9, 1.0, 1.6, 1.1);
    set(CellKind::Oai21, 1.1, 0.9, 1.0, 1.6, 1.1);
    set(CellKind::Aoi22, 1.4, 1.2, 1.0, 2.0, 1.4);
    set(CellKind::Oai22, 1.4, 1.2, 1.0, 2.0, 1.4);
    set(CellKind::Dff, 3.2, 2.9, 1.0, 4.8, 2.5);
    set(CellKind::Dffe, 3.6, 3.2, 1.0, 5.6, 2.8);
    set(CellKind::Dffr, 3.5, 3.1, 1.0, 5.4, 2.7);
    set(CellKind::Dffre, 3.9, 3.5, 1.0, 6.2, 3.0);

    // Clock pin energy: paid every cycle by every flop whether or not it
    // toggles. This models the clock tree + local clock buffering and
    // produces the power floor visible in the paper's traces (~1.3 mW
    // idle vs ~2.3 mW peak for openMSP430 at 100 MHz).
    for (CellKind k : {CellKind::Dff, CellKind::Dffe, CellKind::Dffr,
                       CellKind::Dffre}) {
        p[size_t(k)].clkPinEnergyJ = clk_factor * e;
    }
}

} // namespace

CellLibrary
CellLibrary::tsmc65Like()
{
    CellLibrary lib;
    lib.name_ = "ulpeak65";
    lib.vdd_ = 1.0;
    // Unit internal energy 2.0 fJ, unit pin cap 0.9 fF, wire load
    // 1.7 fF per fanout, unit leakage 7 nW, clock-pin factor 11.6.
    // Calibrated so the ~6.4k-gate / 534-flop core lands on the
    // paper's openMSP430 envelope at 1 V / 100 MHz: ~1.3 mW idle
    // floor, ~1.9-2.4 mW application peaks.
    lib.wireCapPerFanout_ = 1.7e-15;
    fillParams(lib.params_, 2.0e-15, 0.9e-15, 7.0e-9, 11.6);
    return lib;
}

CellLibrary
CellLibrary::f1610Like()
{
    CellLibrary lib;
    lib.name_ = "ulpeak130-f1610";
    lib.vdd_ = 3.0;
    // Older 130 nm node at 3 V: roughly 8x the per-transition energy
    // and a heavier clock tree, matching the MSP430F1610 measurements
    // of Chapter 2 (1.5-2.3 mW at just 8 MHz).
    lib.wireCapPerFanout_ = 3.2e-15;
    fillParams(lib.params_, 16.5e-15, 2.4e-15, 0.35e-9, 22.0);
    return lib;
}

double
CellLibrary::transitionEnergyJ(CellKind k, bool rising,
                               unsigned fanouts) const
{
    const CellParams &c = params_[size_t(k)];
    double internal = rising ? c.riseEnergyJ : c.fallEnergyJ;
    if (!rising)
        return internal;
    double load = wireCapPerFanout_ * fanouts;
    return internal + 0.5 * load * vdd_ * vdd_;
}

double
CellLibrary::energyScale(double vdd_v) const
{
    if (!(vdd_v > 0.0) || !std::isfinite(vdd_v))
        throw std::invalid_argument(
            "CellLibrary::energyScale: vdd must be a positive finite "
            "voltage");
    double ratio = vdd_v / vdd_;
    return ratio * ratio;
}

double
CellLibrary::scaledTransitionEnergyJ(CellKind k, bool rising,
                                     unsigned fanouts,
                                     double vdd_v) const
{
    return transitionEnergyJ(k, rising, fanouts) * energyScale(vdd_v);
}

bool
CellLibrary::operator==(const CellLibrary &o) const
{
    if (name_ != o.name_ || vdd_ != o.vdd_ ||
        wireCapPerFanout_ != o.wireCapPerFanout_)
        return false;
    for (size_t k = 0; k < kNumCellKinds; ++k) {
        const CellParams &a = params_[k], &b = o.params_[k];
        if (a.inputCapF != b.inputCapF || a.riseEnergyJ != b.riseEnergyJ ||
            a.fallEnergyJ != b.fallEnergyJ || a.leakageW != b.leakageW ||
            a.areaUm2 != b.areaUm2 || a.clkPinEnergyJ != b.clkPinEnergyJ)
            return false;
    }
    return true;
}

} // namespace ulpeak
