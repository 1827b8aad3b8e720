/**
 * @file
 * The ULP processor: an MSP430-ISA gate-level core plus peripherals,
 * organized into the same microarchitectural modules the paper reports
 * power for (Figure 3.6): frontend, exec_unit, mem_backbone,
 * multiplier, sfr, watchdog, clk_module, dbg.
 *
 * The CPU is a multi-cycle implementation driven by a one-hot FSM whose
 * schedule is exactly isa::MicroPlan: FETCH, SRCEXT, SRCRD, DSTEXT,
 * DSTRD, EXEC, DSTWR, PUSHWR (+ RESETV and HALT). Program/data memory
 * is a behavioral macro (sim::Memory) connected through a netlist hook,
 * as RAM macros are in the paper's placed-and-routed design.
 */

#ifndef ULPEAK_MSP_CPU_HH
#define ULPEAK_MSP_CPU_HH

#include <memory>
#include <string>

#include "hw/builder.hh"
#include "isa/assembler.hh"
#include "isa/iss.hh"
#include "netlist/netlist.hh"
#include "sim/memory.hh"
#include "sim/packed_simulator.hh"
#include "sim/simulator.hh"

namespace ulpeak {
namespace msp {

using SystemMap = isa::SystemMap;

/** FSM state indices (one-hot bit positions). */
enum FsmState : unsigned {
    kStResetV = 0,
    kStFetch,
    kStSrcExt,
    kStSrcRd,
    kStDstExt,
    kStDstRd,
    kStExec,
    kStDstWr,
    kStPushWr,
    kStHalt,
    kNumStates,
};

const char *fsmStateName(unsigned s);

/** Externally interesting nets of the built CPU. */
struct CpuHandles {
    // Primary inputs
    hw::Sig rstn = kNoGate;   ///< active-low reset
    hw::Sig irq = kNoGate;    ///< interrupt request pin (Ch. 6)
    hw::Bus portIn;           ///< 16-bit input port (reads X under
                              ///< symbolic analysis)
    hw::Bus memData;          ///< RAM/ROM read data (hook-driven)

    // Observation points
    hw::Bus pc;               ///< regfile r0 flops
    hw::Bus sr;               ///< regfile r2 flops
    hw::Bus sp;               ///< regfile r1 flops
    std::array<hw::Bus, 16> regs;
    hw::Bus ir;               ///< instruction register flops
    std::array<hw::Sig, kNumStates> state; ///< one-hot FSM nets

    // Memory interface (outputs of mem_backbone)
    hw::Bus mab;              ///< address bus
    hw::Sig mbEn = kNoGate;   ///< access enable
    hw::Sig mbWr = kNoGate;   ///< write enable
    hw::Bus mdbOut;           ///< write data

    uint32_t memHookId = 0;

    // Module ids for per-module power reporting
    ModuleId modFrontend = 0, modExec = 0, modMemBackbone = 0,
             modMultiplier = 0, modSfr = 0, modWatchdog = 0,
             modClk = 0, modDbg = 0;
};

/** Input pins and the value each is held at (the form of
 *  lint::ConstAnalysisOptions::drivenConstants). */
using PinValues = std::vector<std::pair<GateId, V4>>;

/**
 * A complete simulatable system: netlist + behavioral memory + halt
 * tracking. One System pairs with one Simulator; PackedSystem is the
 * same environment around 64 lanes, through the same bus rules, reset
 * sequence, run pins and FSM decode (src/msp/cpu.cc).
 *
 * The elaborated core -- the library, the finalized Netlist and the
 * CpuHandles -- is immutable, so every System built against libraries
 * of equal content shares one per process (elaborated by the first
 * System to ask, under a lock; later ones only look it up). Only the
 * Memory and the halt flags belong to one System, which makes a
 * System cheap to build: batch analyses, campaign and lint workers
 * and the exploration workers' clones all simulate one netlist.
 */
class System {
  public:
    /** Share the core elaborated against @p lib (building it on the
     *  first call for this library content). */
    explicit System(const CellLibrary &lib);

    const Netlist &netlist() const { return core_->nl; }
    /** The library the netlist was built against (voltage scaling). */
    const CellLibrary &lib() const { return core_->lib; }
    const CpuHandles &handles() const { return core_->h; }
    Memory &memory() { return mem_; }
    const Memory &memory() const { return mem_; }

    void loadImage(const isa::Image &image);

    /**
     * Register the memory hook, edge function and halt watcher on
     * @p sim. Must be called once per Simulator.
     */
    void attach(Simulator &sim);

    /**
     * Reset cycles driven before analysis begins (Algorithm 1 line 4:
     * "propagate reset signal"). Long enough for the power-on
     * X-transient to settle while the core is held in reset, so the
     * recorded trace starts at the application, not at the boot
     * glitch.
     */
    static constexpr unsigned kResetCycles = 6;

    /**
     * Drive the reset sequence; after this the core is in RESETV.
     * @p pre_cycle (may be null) runs inside each reset step's driver,
     * after the inputs are set -- the fault layer injects SEUs there
     * so reset cycles are injectable like any other cycle.
     */
    void reset(Simulator &sim,
               const std::function<void(Simulator &)> &pre_cycle =
                   nullptr);

    /**
     * Per-cycle input driver: holds the run pins (reset deasserted,
     * irq at 0 -- the Ch. 6 mechanism) and drives the input port with
     * @p port_in.
     */
    void driveCycle(Simulator &sim, Word16 port_in);

    /** The pins driveCycle holds constant while the core runs: what
     *  static analyses take as driven constants. */
    const PinValues &runPins() const { return core_->runPins; }

    bool halted() const { return halted_; }
    void clearHalted() { halted_ = false; }

    /** True when a store with unknown address/enable was attempted. */
    bool xStoreFault() const { return xStoreFault_; }

    /** Architectural views (for checks and the symbolic engine). */
    Word16 readPc(const Simulator &sim) const;
    Word16 readReg(const Simulator &sim, unsigned r) const;
    Word16 readIr(const Simulator &sim) const;
    /** Index of the active FSM state; -1 if not one-hot concrete. */
    int fsmState(const Simulator &sim) const;

    /** Per-access behavioral RAM/ROM energy [J] (read and write). */
    static constexpr double kMemAccessEnergyJ = 1.6e-12;

    /// @name Snapshot of behavioral state (symbolic forking)
    /// @{
    struct Snapshot {
        Memory::Snapshot mem;
        bool halted;
        bool xStoreFault;
    };
    Snapshot snapshot() const;
    void restore(const Snapshot &s);
    /// @}

    /** The cycle's bus read and the edge's commit (attach registers
     *  them). */
    void memHook(Simulator &sim);
    void memEdge(Simulator &sim);

  private:
    friend class PackedSystem;

    /** The shared, immutable part. The netlist points at @c lib, so a
     *  Core never moves. */
    struct Core {
        explicit Core(const CellLibrary &l);
        Core(const Core &) = delete;
        Core &operator=(const Core &) = delete;

        CellLibrary lib;
        Netlist nl;
        CpuHandles h;
        PinValues runPins;
    };
    static std::shared_ptr<const Core> coreFor(const CellLibrary &lib);

    std::shared_ptr<const Core> core_;
    Memory mem_;
    bool halted_ = false;
    bool xStoreFault_ = false;
};

/**
 * System around the 64 lanes of a PackedSimulator: a Memory copy, halt
 * bit and X-store bit per lane. Each live lane is bit-identical to a
 * System around a scalar Simulator stepped with that lane's inputs.
 * The hook and edge skip retired lanes, whose scalar run stopped
 * stepping; the edge also skips halted lanes, whose scalar run steps
 * no edge after the halting one. The hook bills every accessing lane
 * in one masked addBehavioralEnergyJ, so float sums keep the scalar
 * order. It registers member functions, so it does not move.
 */
class PackedSystem {
  public:
    static constexpr unsigned kLanes = PackedSimulator::kLanes;
    using LaneWords = std::array<Word16, kLanes>;

    /** Every lane's memory starts as a copy of @p sys's (its loaded
     *  image, ROM included); no lane is halted or faulted. */
    explicit PackedSystem(const System &sys);
    PackedSystem(const PackedSystem &) = delete;
    PackedSystem &operator=(const PackedSystem &) = delete;

    Memory &memory(unsigned lane) { return mem_[lane]; }

    /** Register the memory hook and edge function on @p ps. Once per
     *  PackedSimulator. */
    void attach(PackedSimulator &ps);
    /** System::reset on every lane (clears every halt and fault). */
    void reset(PackedSimulator &ps, PackedFnRef pre_cycle = {});
    /** System::driveCycle with lane l's port at @p ports[l], or every
     *  lane's at @p port. */
    void driveCycle(PackedSimulator &ps, const LaneWords &ports);
    void driveCycle(PackedSimulator &ps, Word16 port);
    /** System::fsmState of lane @p lane. */
    int fsmState(const PackedSimulator &ps, unsigned lane) const;

    uint64_t haltedMask() const { return halted_; }
    uint64_t xStoreMask() const { return xStore_; }

    /** Install a System::Snapshot into lane @p lane. */
    void restore(unsigned lane, const System::Snapshot &s);

    /** System::memHook / memEdge on every live lane. */
    void memHook(PackedSimulator &ps);
    void memEdge(PackedSimulator &ps);

  private:
    std::shared_ptr<const System::Core> core_;
    std::vector<Memory> mem_;
    uint64_t halted_ = 0;
    uint64_t xStore_ = 0;
};

} // namespace msp
} // namespace ulpeak

#endif // ULPEAK_MSP_CPU_HH
