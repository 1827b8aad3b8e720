/**
 * @file
 * Deployment scenarios: first-class descriptions of the environment
 * an application is analyzed under.
 *
 * The paper's central observation is that peak power/energy
 * requirements are application-specific; its Section 5 goes one step
 * further and shows the bounds tighten again when the analyst knows
 * something about the deployment -- e.g. that a peripheral port is
 * strapped to ground, or that a sensor drives only 4 of 16 pins. A
 * Scenario captures exactly that knowledge:
 *
 *  - per-port input constraints: each port bit is either pinned to a
 *    concrete value or left unconstrained (X), optionally as a
 *    per-cycle schedule that repeats with a fixed period
 *    (generalizing power::ConcreteRunOptions::portSchedule from
 *    concrete words to three-valued patterns);
 *  - initial-memory constraints: RAM words with known contents at
 *    boot (calibration tables, pinned input buffers) instead of
 *    Algorithm 1's all-X initialization;
 *  - initial-register constraints: architectural registers with
 *    known boot values;
 *  - operating-mode (DVFS) schedules: named (vdd, freq) operating
 *    points on a repeating per-cycle schedule ("sleep at 0.6 V /
 *    8 MHz, burst at 1.0 V / 100 MHz"), so the analysis bounds the
 *    whole duty-cycled schedule instead of one fixed operating
 *    point. Cell energies scale as (vdd/vdd_lib)^2
 *    (CellLibrary::energyScale) and per-cycle power uses the mode's
 *    clock; the schedule phase joins the dedup keys exactly like the
 *    port-schedule phase does. Optional assertions ("power never
 *    exceeds X W while in mode M, after a W-cycle settling window
 *    following each switch into M") are evaluated against the
 *    envelope and reported by `ulpeak --modes` -- failures are
 *    findings, never analysis errors.
 *
 * The symbolic engine drives port bits from the scenario instead of
 * all-X (sym::SymbolicConfig::scenario), so every reported number --
 * peak power, peak energy, NPE, the envelope -- is a guaranteed bound
 * over exactly the executions the scenario admits. Constraining a
 * scenario can only shrink that execution set, so every bound is <=
 * the unconstrained one (the dominance property
 * fuzz::scenarioDominanceCheck pins end-to-end).
 *
 * Scenarios come from named presets (presetNames()) or JSON files
 * (fromJsonFile; `ulpeak --scenario NAME|file.json`), participate in
 * the batch result cache by content hash (hashInto), and one
 * analyzeBatch call can sweep a whole scenario x program matrix.
 */

#ifndef ULPEAK_SCENARIO_SCENARIO_HH
#define ULPEAK_SCENARIO_SCENARIO_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "logic/v4.hh"

namespace ulpeak {

class CellLibrary;

namespace scenario {

/** One cycle's three-valued port constraint: bit i of @ref pinned
 *  set means the port bit is held at bit i of @ref value; clear
 *  means the bit is unconstrained (X under symbolic analysis). */
struct PortPattern {
    uint16_t pinned = 0;
    uint16_t value = 0;

    /** The Word16 the simulator is driven with (free bits X). */
    Word16
    word() const
    {
        return Word16(value, uint16_t(~pinned));
    }

    bool
    operator==(const PortPattern &o) const
    {
        return pinned == o.pinned && value == o.value;
    }

    /** Render as 16 chars, MSB first: '0'/'1' pinned, 'x' free. */
    std::string toString() const;
    /** Parse the toString() form; throws std::runtime_error. */
    static PortPattern parse(const std::string &s);
};

/** A named operating point: supply voltage and clock frequency.
 *  Switching energies scale with (vdd / vdd_lib)^2 and per-cycle
 *  power is computed with this mode's clock while the mode is in
 *  force (see power::PowerContext and CellLibrary::energyScale). */
struct OperatingMode {
    std::string name;    ///< report label; never hashes
    double vdd = 0.0;    ///< supply voltage [V], > 0
    double freqHz = 0.0; ///< clock frequency [Hz], > 0

    bool
    operator==(const OperatingMode &o) const
    {
        return name == o.name && vdd == o.vdd && freqHz == o.freqHz;
    }
};

/** An assertion checked against the analyzed envelope (post-analysis,
 *  never part of the bound itself): while the schedule is in mode
 *  @ref mode, the envelope must stay at or under @ref maxPowerW --
 *  except during the first @ref settleCycles cycles after each
 *  switch into the mode (the settling window of "a mode switch
 *  settles within W cycles"). Violations are reported as findings by
 *  `ulpeak --modes`, not as analysis failures. */
struct ModeAssertion {
    std::string mode;          ///< mode name the limit applies to
    double maxPowerW = 0.0;    ///< power ceiling [W], > 0
    uint64_t settleCycles = 0; ///< cycles exempt after each switch
};

struct Scenario {
    std::string name = "unconstrained";

    /** Static port constraint, used when @ref portSchedule is empty. */
    PortPattern port;
    /** Per-cycle port constraints, repeating with period size();
     *  cycle c (counted from the end of reset, like every trace and
     *  envelope) uses entry c % size(). Overrides @ref port. */
    std::vector<PortPattern> portSchedule;

    /** Concrete RAM words loaded before analysis begins (addr,
     *  words), narrowing Algorithm 1's all-X initial memory. */
    std::vector<std::pair<uint32_t, std::vector<uint16_t>>> ramInit;
    /** Concrete boot values of architectural registers (reg index
     *  4..15, value); applied once at the first post-reset cycle. */
    std::vector<std::pair<unsigned, uint16_t>> regInit;

    /** Named operating points. Empty means the analysis runs at the
     *  library vdd and the configured clock (the classic flow). */
    std::vector<OperatingMode> modes;
    /** Per-cycle mode indices into @ref modes, repeating with period
     *  size(); cycle c (post-reset, like @ref portSchedule) runs in
     *  modes[modeSchedule[c % size()]]. Empty with non-empty
     *  @ref modes means mode 0 is in force every cycle. */
    std::vector<uint32_t> modeSchedule;
    /** Envelope assertions evaluated by `ulpeak --modes`. Not part
     *  of the content hash: they are post-processing, never inputs
     *  to the analysis. */
    std::vector<ModeAssertion> assertions;

    /** True when the scenario admits every execution at the default
     *  operating point (all port bits X every cycle, no
     *  memory/register constraints, no modes) -- analysis results
     *  equal the classic all-X flow exactly. */
    bool isUnconstrained() const;

    /** The constraint in force at post-reset cycle @p cycle. */
    const PortPattern &patternAt(uint64_t cycle) const;
    /** The port word driven at post-reset cycle @p cycle. */
    Word16
    portWordAt(uint64_t cycle) const
    {
        return patternAt(cycle).word();
    }

    /// @name Operating modes
    /// @{
    bool
    hasModes() const
    {
        return !modes.empty();
    }
    /** The repeating mode-schedule period (1 when static). */
    uint64_t
    modePeriod() const
    {
        return modeSchedule.empty() ? 1 : modeSchedule.size();
    }
    /** Index into @ref modes in force at post-reset cycle @p cycle
     *  (0 when the schedule is empty). */
    uint32_t
    modeIndexAt(uint64_t cycle) const
    {
        return modeSchedule.empty()
                   ? 0
                   : modeSchedule[size_t(cycle % modeSchedule.size())];
    }
    /** The mode in force at post-reset cycle @p cycle; only valid
     *  when hasModes(). */
    const OperatingMode &
    modeAt(uint64_t cycle) const
    {
        return modes[modeIndexAt(cycle)];
    }
    /** Clock period [s] per mode-schedule phase, size modePeriod()
     *  -- the per-phase tclk vector ExecTree::maxPathEnergy and the
     *  windowed energy curves consume. Only valid when hasModes(). */
    std::vector<double> phaseTclkS() const;
    /** Per-phase (energy scale, clock Hz) resolved against @p lib,
     *  size modePeriod(): how the engine prices each cycle, and the
     *  form power::ConcreteRunOptions::modeSchedule takes. Without
     *  modes, the reference point: scale 1 at @p freq_hz, which
     *  prices bit-identically to the unscaled formulas. */
    std::vector<std::pair<double, double>>
    phasePricing(const CellLibrary &lib, double freq_hz) const;
    /** Throw std::runtime_error on structural inconsistencies:
     *  reg_init outside the general-purpose registers r4..r15,
     *  ram_init at an odd address, schedule without modes or with
     *  out-of-range indices, non-positive vdd/freq, duplicate mode
     *  names, assertions naming unknown modes or non-positive
     *  ceilings. The JSON parser and the symbolic engine both call
     *  this, so a broken scenario fails loudly wherever it was built.
     *  (RAM ranges need the memory map; the engine checks those.) */
    void validate() const;
    /// @}

    /** Schedule phase at @p cycle -- 0 for unscheduled scenarios.
     *  Two simulator states are interchangeable only at equal
     *  phases, so the engine mixes this into its dedup keys. The
     *  port and mode schedule phases combine mixed-radix (injective
     *  in the pair), so equal dedupPhase implies the cycle is
     *  congruent mod *both* periods. */
    uint64_t
    dedupPhase(uint64_t cycle) const
    {
        uint64_t port_phase =
            portSchedule.empty() ? 0 : cycle % portSchedule.size();
        uint64_t port_period =
            portSchedule.empty() ? 1 : portSchedule.size();
        uint64_t mode_phase =
            modeSchedule.empty() ? 0 : cycle % modeSchedule.size();
        return port_phase + port_period * mode_phase;
    }

    /** Mix the full scenario content into @p h (FNV-1a order): the
     *  batch cache key uses this, so two scenarios hash equal iff
     *  they constrain identically (the name does not participate). */
    void hashInto(uint64_t &h) const;

    /** Human one-liner ("port 0000xxxxxxxxxxxx, 2 RAM ranges"). */
    std::string summary() const;

    /// @name Construction
    /// @{
    static const std::vector<std::string> &presetNames();
    /** A named preset; throws std::runtime_error on unknown names
     *  (message lists the known ones). */
    static Scenario preset(const std::string &name);
    /** Parse the JSON form (see docs/architecture.md):
     *  {"name": ..., "port": "16-char pattern" | {"pinned","value"},
     *   "port_schedule": [pattern, ...],
     *   "ram_init": [{"addr": A, "words": [...]}, ...],
     *   "reg_init": [{"reg": R, "value": V}, ...],
     *   "modes": [{"name": N, "vdd": V, "freq_hz": F}, ...],
     *   "mode_schedule": [mode name or index, ...],
     *   "assert": [{"mode": N, "max_power_w": W,
     *               "settle_cycles": C}, ...]}
     *  Numbers may be JSON integers or "0x.." strings; duplicate
     *  object keys are rejected. Throws std::runtime_error with a
     *  position-bearing message. */
    static Scenario fromJson(const std::string &text);
    static Scenario fromJsonFile(const std::string &path);
    /** A preset name, or a path to a JSON file (anything containing
     *  a '/' or ending in ".json"). */
    static Scenario resolve(const std::string &spec);
    /// @}
};

} // namespace scenario
} // namespace ulpeak

#endif // ULPEAK_SCENARIO_SCENARIO_HH
