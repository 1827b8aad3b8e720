#include "power/power_model.hh"

namespace ulpeak {
namespace power {

PowerContext::PowerContext(const Netlist &nl, double freq)
    : nl_(&nl), freq_(freq)
{
    double tclk = 1.0 / freq_;
    staticPerCycle_ =
        nl.clockEnergyPerCycleJ() + nl.totalLeakageW() * tclk;

    moduleStatic_.assign(nl.numModules(), 0.0);
    const CellLibrary &lib = nl.library();
    for (GateId g = 0; g < nl.numGates(); ++g) {
        const CellParams &p = lib.params(nl.gate(g).kind);
        ModuleId top = nl.topLevelModuleOf(nl.gate(g).module);
        moduleStatic_[top] += p.clkPinEnergyJ + p.leakageW * tclk;
    }
}

std::vector<double>
PowerContext::cycleModulePowerW(const Simulator &sim) const
{
    return cycleModulePowerW(sim.moduleBoundEnergyJ());
}

std::vector<double>
PowerContext::cycleModulePowerW(
    const std::vector<double> &switching_j) const
{
    std::vector<double> out(switching_j.size(), 0.0);
    for (size_t m = 0; m < switching_j.size(); ++m)
        out[m] = (switching_j[m] + moduleStatic_[m]) * freq_;
    return out;
}

std::vector<double>
PowerContext::cycleModulePowerW(const std::vector<double> &switching_j,
                                double energy_scale,
                                double freq_hz) const
{
    std::vector<double> out = cycleModulePowerW(switching_j);
    double ratio = energy_scale * (freq_hz / freq_);
    for (double &m : out)
        m *= ratio;
    return out;
}

} // namespace power
} // namespace ulpeak
