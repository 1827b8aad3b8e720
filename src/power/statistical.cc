#include "power/statistical.hh"

#include <cmath>

#include "logic/v4.hh"

namespace ulpeak {
namespace power {

namespace {

/** Evaluate a combinational cell over concrete booleans. */
bool
evalBool(CellKind k, const bool *in)
{
    V4 v[4];
    for (unsigned i = 0; i < cellFaninCount(k); ++i)
        v[i] = fromBool(in[i]);
    return evalCell(k, v) == V4::One;
}

} // namespace

StatisticalResult
statisticalPower(const Netlist &nl, double freq_hz,
                 double default_toggle_rate)
{
    StatisticalResult r;
    size_t n = nl.numGates();
    r.density.assign(n, 0.0);
    r.probOne.assign(n, 0.5);

    // Registers resample once per cycle; the design-tool default
    // assumes they toggle at the default rate with P(1)=0.5 (no
    // knowledge of the state machine).
    for (GateId g : nl.seqGates())
        r.density[g] = default_toggle_rate;

    // The rest in schedule order, so every fanin is final when read.
    for (const NodeRecord &rec : nl.flat().records) {
        if (rec.cls == NodeClass::Hook)
            continue;
        GateId g = rec.node;
        const Gate &gate = nl.gate(g);
        CellKind k = gate.kind;
        switch (k) {
          case CellKind::Const0:
            r.probOne[g] = 0.0;
            r.density[g] = 0.0;
            continue;
          case CellKind::Const1:
            r.probOne[g] = 1.0;
            r.density[g] = 0.0;
            continue;
          case CellKind::Input:
            r.probOne[g] = 0.5;
            r.density[g] = default_toggle_rate;
            continue;
          default:
            break;
        }
        unsigned nin = gate.nin;
        unsigned combos = 1u << nin;
        double p1 = 0.0;
        for (unsigned v = 0; v < combos; ++v) {
            bool in[4];
            double p = 1.0;
            for (unsigned i = 0; i < nin; ++i) {
                in[i] = (v >> i) & 1;
                double pi = r.probOne[gate.in[i]];
                p *= in[i] ? pi : (1.0 - pi);
            }
            if (p > 0.0 && evalBool(k, in))
                p1 += p;
        }
        r.probOne[g] = p1;

        // Transition density via Boolean differences:
        //   D(out) = sum_i P(df/dx_i) * D(x_i)
        double d = 0.0;
        for (unsigned i = 0; i < nin; ++i) {
            double sens = 0.0;
            for (unsigned v = 0; v < combos; ++v) {
                if ((v >> i) & 1)
                    continue; // enumerate the other inputs only
                bool in0[4], in1[4];
                double p = 1.0;
                for (unsigned j = 0; j < nin; ++j) {
                    bool bit = (v >> j) & 1;
                    in0[j] = bit;
                    in1[j] = bit;
                    if (j == i)
                        continue;
                    double pj = r.probOne[gate.in[j]];
                    p *= bit ? pj : (1.0 - pj);
                }
                in1[i] = true;
                if (p > 0.0 && evalBool(k, in0) != evalBool(k, in1))
                    sens += p;
            }
            d += sens * r.density[gate.in[i]];
        }
        // A net cannot toggle more than once per cycle in the
        // cycle-based model.
        r.density[g] = std::min(d, 1.0);
    }

    // Power integration.
    double sw = 0.0;
    for (GateId g = 0; g < n; ++g) {
        double eAvg = 0.5 * (nl.riseEnergyJ(g) + nl.fallEnergyJ(g));
        sw += r.density[g] * eAvg;
    }
    r.switchingPowerW = sw * freq_hz;
    r.clockPowerW = nl.clockEnergyPerCycleJ() * freq_hz;
    r.leakagePowerW = nl.totalLeakageW();
    r.totalPowerW = r.switchingPowerW + r.clockPowerW + r.leakagePowerW;
    return r;
}

} // namespace power
} // namespace ulpeak
