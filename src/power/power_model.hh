/**
 * @file
 * Power-analysis context: converts the simulator's per-cycle switching
 * energies into power numbers at an operating point, adding the static
 * per-cycle components (clock tree and leakage) -- the PrimeTime role
 * in the paper's flow.
 */

#ifndef ULPEAK_POWER_POWER_MODEL_HH
#define ULPEAK_POWER_POWER_MODEL_HH

#include <vector>

#include "netlist/netlist.hh"
#include "sim/simulator.hh"

namespace ulpeak {
namespace power {

class PowerContext {
  public:
    /**
     * @param nl     finalized netlist
     * @param freq   clock frequency [Hz] (paper: 100 MHz for the
     *               openMSP430 evaluation, 8 MHz for the F1610
     *               measurements)
     */
    PowerContext(const Netlist &nl, double freq);

    double freqHz() const { return freq_; }
    double tclkS() const { return 1.0 / freq_; }

    /** Clock + leakage energy paid every cycle regardless of
     *  activity [J]. */
    double staticEnergyPerCycleJ() const { return staticPerCycle_; }

    /** Power of one cycle given its switching energy [W]. */
    double
    cyclePowerW(double switching_j) const
    {
        return (switching_j + staticPerCycle_) * freq_;
    }

    /**
     * Power of one cycle run in an operating mode: the cycle energy
     * (switching + the reference static lump) scaled by the mode's
     * voltage factor @p energy_scale
     * (CellLibrary::energyScale(mode.vdd)), times the mode clock
     * @p freq_hz. The static lump stays the calibrated per-cycle
     * energy at this context's reference clock and scales only with
     * vdd^2 -- a deliberate simplification (leakW * tclk_mode would
     * *grow* per-cycle energy as the clock slows, breaking the
     * mode-dominance guarantee the fuzzer pins). With scale 1 and
     * this context's own frequency it reproduces cyclePowerW
     * bit-for-bit.
     */
    double
    cyclePowerW(double switching_j, double energy_scale,
                double freq_hz) const
    {
        return (switching_j + staticPerCycle_) * energy_scale *
               freq_hz;
    }

    /** Bound power of the cycle most recently stepped on @p sim. */
    double
    cycleBoundPowerW(const Simulator &sim) const
    {
        return cyclePowerW(sim.boundEnergyJ());
    }

    /** Mode-scaled bound power of the last cycle on @p sim. */
    double
    cycleBoundPowerW(const Simulator &sim, double energy_scale,
                     double freq_hz) const
    {
        return cyclePowerW(sim.boundEnergyJ(), energy_scale, freq_hz);
    }

    /**
     * Per-top-level-module power split of the last cycle (bound
     * assignment), including each module's share of clock and leakage.
     * Indexed by ModuleId (only direct children of top are nonzero,
     * plus index 0 for unattributed top-level gates).
     */
    std::vector<double> cycleModulePowerW(const Simulator &sim) const;
    /** Same split from an explicit per-module switching vector (e.g.
     *  one PackedSimulator lane); identical arithmetic per entry. */
    std::vector<double>
    cycleModulePowerW(const std::vector<double> &switching_j) const;
    /** The same split in an operating mode: each entry rescaled by
     *  energy_scale * (freq_hz / freqHz()), the per-module mirror of
     *  the mode cyclePowerW overload. With scale 1 at this context's
     *  own frequency it reproduces the reference split bit-for-bit. */
    std::vector<double>
    cycleModulePowerW(const std::vector<double> &switching_j,
                      double energy_scale, double freq_hz) const;

    const Netlist &netlist() const { return *nl_; }
    /** Static (clock+leak) per-cycle energy of one module [J]. */
    double
    moduleStaticEnergyJ(ModuleId m) const
    {
        return moduleStatic_[m];
    }

  private:
    const Netlist *nl_;
    double freq_;
    double staticPerCycle_;
    std::vector<double> moduleStatic_;
};

/** Running statistics over a power trace. */
struct TraceStats {
    double peakW = 0.0;
    double sumW = 0.0;
    uint64_t cycles = 0;
    uint64_t peakCycle = 0;

    void
    add(double w)
    {
        if (w > peakW) {
            peakW = w;
            peakCycle = cycles;
        }
        sumW += w;
        ++cycles;
    }

    double avgW() const { return cycles ? sumW / cycles : 0.0; }
    /** Total energy at @p tclk seconds per cycle [J]. */
    double energyJ(double tclk) const { return sumW * tclk; }
};

} // namespace power
} // namespace ulpeak

#endif // ULPEAK_POWER_POWER_MODEL_HH
