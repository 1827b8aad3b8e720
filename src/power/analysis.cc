#include "power/analysis.hh"

#include <fstream>
#include <stdexcept>

#include "sim/bitset.hh"

namespace ulpeak {
namespace power {

ConcreteRunResult
runConcrete(msp::System &sys, const isa::Image &image,
            const PowerContext &ctx, const ConcreteRunOptions &opts,
            const RamInit &ram_init)
{
    sys.memory().reset();
    sys.loadImage(image);
    for (auto &[addr, words] : ram_init)
        sys.memory().loadRam(addr, words);
    sys.clearHalted();

    Simulator sim(sys.netlist());
    sys.attach(sim);
    sys.reset(sim);

    ConcreteRunResult r;
    size_t nmod = sys.netlist().numModules();
    if (opts.recordModules)
        r.traceModulesW.resize(nmod);
    if (opts.recordActivity)
        r.everActive.assign(sys.netlist().numGates(), 0);

    // Post-reset cycle counter for the mode schedule: traces and
    // envelopes count cycles from the end of reset, and the loop
    // starts right after sys.reset(), so the executed cycle's index
    // is sim.cycle() - startCycle sampled before the step.
    uint64_t startCycle = sim.cycle();
    double modeEnergyJ = 0.0;
    while (!sys.halted() && sim.cycle() < opts.maxCycles) {
        uint64_t cycleIdx = sim.cycle() - startCycle;
        uint16_t port =
            opts.portSchedule.empty()
                ? opts.portIn
                : opts.portSchedule[size_t(sim.cycle()) %
                                    opts.portSchedule.size()];
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::known(port));
        });
        // The cycle's operating mode (energy scale, clock), if any.
        const std::pair<double, double> *mf =
            opts.modeSchedule.empty()
                ? nullptr
                : &opts.modeSchedule[size_t(cycleIdx %
                                            opts.modeSchedule.size())];
        double w;
        if (!mf) {
            w = ctx.cycleBoundPowerW(sim);
        } else {
            w = ctx.cycleBoundPowerW(sim, mf->first, mf->second);
            // energy = power / mode clock (w already carries the
            // vdd^2 scale and the mode frequency).
            modeEnergyJ += w / mf->second;
        }
        r.stats.add(w);
        if (opts.recordTrace)
            r.traceW.push_back(float(w));
        if (opts.recordModules) {
            std::vector<double> mod =
                mf ? ctx.cycleModulePowerW(sim.moduleBoundEnergyJ(),
                                           mf->first, mf->second)
                   : ctx.cycleModulePowerW(sim);
            for (size_t m = 0; m < nmod; ++m)
                r.traceModulesW[m].push_back(float(mod[m]));
        }
        if (opts.recordActivity)
            forEachBit(sim.activeBits(),
                       [&](GateId g) { r.everActive[g] = 1; });
    }
    r.halted = sys.halted();
    r.totalEnergyJ = opts.modeSchedule.empty()
                         ? r.stats.energyJ(ctx.tclkS())
                         : modeEnergyJ;
    return r;
}

void
writePowerCsv(const std::string &path, const std::vector<float> &trace_w,
              const std::vector<std::vector<float>> *modules,
              const std::vector<std::string> *module_names)
{
    std::ofstream os(path);
    if (!os)
        throw std::runtime_error("cannot open " + path);
    os << "cycle,power_w";
    if (modules && module_names)
        for (const std::string &n : *module_names)
            os << "," << n;
    os << "\n";
    for (size_t c = 0; c < trace_w.size(); ++c) {
        os << c << "," << trace_w[c];
        if (modules)
            for (const auto &m : *modules)
                os << "," << (c < m.size() ? m[c] : 0.0f);
        os << "\n";
    }
}

} // namespace power
} // namespace ulpeak
