#include "peak/even_odd.hh"

#include <sstream>

#include "sim/bitset.hh"
#include "sim/vcd.hh"

namespace ulpeak {
namespace peak {

GateTrace
recordGateTrace(msp::System &sys, const isa::Image &image,
                uint64_t cycles, EvalMode mode)
{
    sys.memory().reset();
    sys.loadImage(image);
    sys.clearHalted();
    Simulator sim(sys.netlist(), mode);
    sys.attach(sim);
    sys.reset(sim);

    GateTrace t;
    size_t n = sys.netlist().numGates();
    for (uint64_t c = 0; c < cycles && !sys.halted(); ++c) {
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::allX());
        });
        std::vector<V4> vals(n);
        std::vector<uint8_t> act(n, 0);
        for (GateId g = 0; g < n; ++g)
            vals[g] = sim.value(g);
        forEachBit(sim.activeBits(), [&](GateId g) { act[g] = 1; });
        t.values.push_back(std::move(vals));
        t.active.push_back(std::move(act));
        // Gate switching only: the VCD flow sees standard cells, not
        // the behavioral RAM macro's access energy.
        t.onlineBoundJ.push_back(sim.boundEnergyJ() -
                                 sim.behavioralEnergyJ());
    }
    return t;
}

std::string
buildMaxVcd(const Netlist &nl, const GateTrace &trace, bool even)
{
    // Work on a copy of the values; Algorithm 2 assigns Xs in the
    // (c-1, c) pairs whose second element has the requested parity.
    std::vector<std::vector<V4>> vals = trace.values;
    const size_t n = nl.numGates();

    for (size_t c = 1; c < vals.size(); ++c) {
        bool isEven = (c % 2) == 0;
        if (isEven != even)
            continue;
        for (GateId g = 0; g < n; ++g) {
            if (!trace.active[c][g])
                continue; // "for all toggled gates g in c"
            V4 &prev = vals[c - 1][g];
            V4 &cur = vals[c][g];
            if (cur == V4::X && prev == V4::X) {
                // maxTransition: the costlier edge of this gate, the
                // one the kernels bill as kTransMax.
                bool rising = nl.riseEnergyJ(g) >= nl.fallEnergyJ(g);
                prev = rising ? V4::Zero : V4::One;
                cur = logicNot(prev);
            } else if (cur == V4::X) {
                cur = logicNot(prev);
            } else if (prev == V4::X) {
                prev = logicNot(cur);
            }
        }
    }

    std::vector<std::string> names(n);
    for (size_t g = 0; g < n; ++g)
        names[g] = "g" + std::to_string(g);
    std::ostringstream os;
    VcdWriter writer(os, names);
    for (auto &cycle : vals)
        writer.writeCycle(cycle);
    return os.str();
}

std::vector<double>
switchingEnergyFromVcd(const Netlist &nl, const std::string &vcd_text)
{
    std::istringstream is(vcd_text);
    VcdData data = readVcd(is);

    // Map signal order back to gate ids ("g<N>").
    std::vector<GateId> gateOf(data.signals.size());
    for (size_t s = 0; s < data.signals.size(); ++s)
        gateOf[s] = GateId(std::stoul(data.signals[s].substr(1)));

    std::vector<double> energy(data.values.size(), 0.0);
    for (size_t c = 1; c < data.values.size(); ++c) {
        double e = 0.0;
        for (size_t s = 0; s < data.signals.size(); ++s) {
            V4 prev = data.values[c - 1][s];
            V4 cur = data.values[c][s];
            if (!isKnown(prev) || !isKnown(cur) || prev == cur)
                continue;
            GateId g = gateOf[s];
            e += cur == V4::One ? nl.riseEnergyJ(g)
                                : nl.fallEnergyJ(g);
        }
        energy[c] = e;
    }
    return energy;
}

std::vector<double>
interleave(const std::vector<double> &even_trace,
           const std::vector<double> &odd_trace)
{
    size_t nCycles = std::min(even_trace.size(), odd_trace.size());
    std::vector<double> out(nCycles);
    for (size_t c = 0; c < nCycles; ++c)
        out[c] = (c % 2) == 0 ? even_trace[c] : odd_trace[c];
    return out;
}

} // namespace peak
} // namespace ulpeak
