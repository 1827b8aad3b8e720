/**
 * @file
 * Gate-level netlist representation.
 *
 * A Netlist is a flat vector of gates (one output net per gate, so gate
 * id == net id), each mapped to a standard cell kind from the
 * CellLibrary and to a module in a hierarchy of named modules. The
 * module hierarchy mirrors the microarchitectural units the paper
 * reports power for (frontend, exec_unit, mem_backbone, multiplier, sfr,
 * watchdog, clk_module, dbg).
 *
 * Behavioral blocks: RAM macros are not standard cells (neither in the
 * paper's placed-and-routed openMSP430 nor here). A behavioral hook
 * declares a set of Input-kind gates whose values are produced by a
 * simulator callback that combinationally depends on a declared set of
 * other gates (the address/enable pins). Levelization schedules the hook
 * at the right point of the topological order.
 */

#ifndef ULPEAK_NETLIST_NETLIST_HH
#define ULPEAK_NETLIST_NETLIST_HH

#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "cell/cell_library.hh"

namespace ulpeak {

using GateId = uint32_t;
using ModuleId = uint16_t;

constexpr GateId kNoGate = std::numeric_limits<GateId>::max();
constexpr ModuleId kTopModule = 0;

/** One standard-cell instance. The gate's output is net @c id. */
struct Gate {
    CellKind kind = CellKind::Const0;
    ModuleId module = kTopModule;
    uint8_t nin = 0;
    std::array<GateId, 4> in = {kNoGate, kNoGate, kNoGate, kNoGate};
};

/** Declaration of a behavioral block (e.g. a RAM macro). */
struct BehavioralHook {
    std::string name;
    std::vector<GateId> depends; ///< gates read by the callback
    std::vector<GateId> outputs; ///< Input-kind gates written by it
};

constexpr uint32_t kNoLevel = std::numeric_limits<uint32_t>::max();

/** How the kernels evaluate a schedule position (NodeRecord::cls). */
enum class NodeClass : uint8_t {
    Logic, ///< combinational cell: truth-table lookup
    Input, ///< value set by a driver or hook; X counts as active
    Const, ///< tie cell: settles once, never active
    Hook,  ///< behavioral hook: runs its callback
};

/** A node's entries in FlatNetlist::fanoutPos: [begin, end). */
struct FanoutRange {
    uint32_t begin = 0;
    uint32_t end = 0;
};

/**
 * Everything a kernel reads to evaluate one schedule position, in one
 * 32-byte entry: the drain loads this record and touches no other
 * per-node array until it prices or marks.
 */
struct alignas(32) NodeRecord {
    uint32_t node = 0; ///< gate id, or numGates + hook id
    /** kind * kPackedFaninStates: the node's cellTruthTable() row (a
     *  Const's value is the row's entry 0). */
    uint16_t row = 0;
    /** (1 << 2 * nin) - 1: the packed-fanin bits the cell has. */
    uint8_t pinMask = 0;
    NodeClass cls = NodeClass::Logic;
    /** Fanins. Pins past nin repeat pin 0, so four pins can be read
     *  at every record, and an OR over all four pins' activity is the
     *  OR over the cell's own pins. Zero for pinless nodes. */
    std::array<GateId, 4> in = {0, 0, 0, 0};
    FanoutRange fanout; ///< empty for hooks
};
static_assert(sizeof(NodeRecord) == 32, "one record per half line");

/**
 * The kernel view of a finalized netlist -- the data the simulation
 * kernels actually iterate. Built once by finalize().
 *
 * Nodes: ids [0, numGates) are gates; [numGates, numGates + numHooks)
 * are behavioral hooks. The combinational schedule covers every node
 * except sequential gates (those update at the clock edge, outside the
 * combinational phase): constants, primary inputs, hook-driven inputs,
 * hooks, and combinational gates.
 *
 * Levels: sources (constants, non-hook inputs; sequential outputs are
 * treated as level-0 sources) are level 0; a hook is one level above
 * its deepest dependency; a hook-driven input one level above its
 * hook; a combinational gate one level above its deepest fanin. Within
 * a level no node depends on another, so any within-level order is a
 * valid topological order; @ref records stores levels contiguously,
 * ascending node id within each level. The full-sweep kernel walks
 * @ref records front to back; the event-driven kernel keeps a pending
 * bitset over schedule positions and drains it in ascending position
 * -- the same order, since every consumer sits at a higher level than
 * its producers and so at a higher position.
 *
 * Only the schedule is position-ordered. Sequential gates read their
 * Gate (Netlist::gate) at the edge, and everything per gate --
 * pricing, activity, values, the gate-id fanout index -- stays in
 * gate-id order.
 */
struct FlatNetlist {
    uint32_t numGates = 0;
    uint32_t numHooks = 0;
    uint32_t numLevels = 0;

    /// @name Level-bucketed combinational schedule
    /// @{
    std::vector<uint32_t> levelOffset; ///< [numLevels + 1] into records
    /** One record per schedule position, by level. */
    std::vector<NodeRecord> records;
    std::vector<uint32_t> posOfNode; ///< index into records; kNoLevel
                                     ///< for seq
    /// @}

    /**
     * CSR fanout adjacency, in the event kernel's wake-bit form. For
     * each gate: first the schedule positions (indices into
     * @ref records) of the combinational gates it feeds, then, for
     * each flop reading it on any pin, @ref seqWakeBase + the flop's
     * index in Netlist::seqGates(). Hooks always run, so they do not
     * appear. One bitset covering [0, seqWakeBase + #flops) thus
     * marks both kinds of consumer with a single OR per entry. Entries
     * may repeat when a gate feeds several pins of one consumer; the
     * bitset dedups. A scheduled node's range is also in its record.
     */
    std::vector<uint32_t> fanoutOffset; ///< [numGates + 1] into fanoutPos
    std::vector<uint32_t> fanoutPos;
    /** First sequential wake bit: records.size() rounded up to a
     *  multiple of 64, so flop bits start on a word boundary. */
    uint32_t seqWakeBase = 0;

    /**
     * Per-gate transition energies [J], three per gate at
     * [3 * g + TransitionClass]: rise, fall, and max(rise, fall)
     * (Algorithm 2's maxTransition). The kernels price an active gate
     * by indexing this row with its transition class instead of
     * branching per case.
     */
    std::vector<double> transE;

    /// @name Per-gate lookups the kernels share
    /// @{
    /** Index in Netlist::seqGates(), or UINT32_MAX for a
     *  combinational gate. */
    std::vector<uint32_t> seqIndexOf;
    /** Netlist::topLevelModuleOf the gate's module: where the
     *  per-module split bills it. */
    std::vector<ModuleId> topModuleOf;
    /// @}

    uint32_t numNodes() const { return numGates + numHooks; }
    /** Gate @p g's wake entries in @ref fanoutPos. */
    FanoutRange
    fanoutsOf(GateId g) const
    {
        return {fanoutOffset[g], fanoutOffset[g + 1]};
    }
};

/** Column of FlatNetlist::transE. */
enum TransitionClass : uint8_t {
    kTransRise = 0,
    kTransFall = 1,
    kTransMax = 2,
};

class Netlist {
  public:
    explicit Netlist(const CellLibrary &lib);

    /// @name Construction
    /// @{
    ModuleId addModule(const std::string &name,
                       ModuleId parent = kTopModule);
    GateId addGate(CellKind kind, std::initializer_list<GateId> fanins,
                   ModuleId module);
    GateId addGate(CellKind kind, const std::vector<GateId> &fanins,
                   ModuleId module);
    /** Re-point fanin @p pin of @p g; only legal before finalize(). */
    void setFanin(GateId g, unsigned pin, GateId src);
    uint32_t addHook(BehavioralHook hook);
    void setName(GateId g, const std::string &name);

    /**
     * Freeze the netlist: compute fanout counts, the topological
     * evaluation order (combinational loops are fatal), per-gate
     * transition energies, and the sequential-gate list.
     */
    void finalize();
    /// @}

    /// @name Inspection
    /// @{
    size_t numGates() const { return gates_.size(); }
    const Gate &gate(GateId g) const { return gates_[g]; }
    const CellLibrary &library() const { return *lib_; }
    bool finalized() const { return finalized_; }

    const std::vector<GateId> &seqGates() const { return seqGates_; }
    const std::vector<BehavioralHook> &hooks() const { return hooks_; }
    /**
     * The flat structure-of-arrays kernel view (see FlatNetlist for
     * the layout). Built exactly once by finalize() and immutable
     * afterwards: the returned reference stays valid and unchanged
     * for the lifetime of the Netlist, so any number of Simulators
     * (every System of one library shares one netlist, see
     * msp::System) may iterate it concurrently without
     * synchronization. Calling this before finalize()
     * returns the empty view (numGates == 0); construction-phase
     * code should use gate() instead.
     */
    const FlatNetlist &flat() const { return flat_; }

    uint32_t fanoutCount(GateId g) const { return fanoutCount_[g]; }
    /** Energy of a 0->1 / 1->0 output transition of gate @p g [J]. */
    double riseEnergyJ(GateId g) const
    {
        return flat_.transE[3 * size_t(g) + kTransRise];
    }
    double fallEnergyJ(GateId g) const
    {
        return flat_.transE[3 * size_t(g) + kTransFall];
    }
    double maxEnergyJ(GateId g) const
    {
        return flat_.transE[3 * size_t(g) + kTransMax];
    }
    /** Total leakage of the netlist [W]. */
    double totalLeakageW() const { return totalLeakage_; }
    /** Per-cycle clock-tree/clock-pin energy (all flops) [J]. */
    double clockEnergyPerCycleJ() const { return clockEnergy_; }

    const std::string &moduleName(ModuleId m) const
    {
        return moduleNames_[m];
    }
    ModuleId moduleParent(ModuleId m) const { return moduleParents_[m]; }
    size_t numModules() const { return moduleNames_.size(); }
    /**
     * The ancestor of @p m that is a direct child of the top module --
     * the granularity at which the paper reports per-module power.
     */
    ModuleId topLevelModuleOf(ModuleId m) const;
    /** Find a direct-or-deep module by name; kTopModule if absent. */
    ModuleId findModule(const std::string &name) const;

    GateId findGate(const std::string &name) const;
    /** Name of @p g, or "" when unnamed. */
    std::string gateName(GateId g) const;
    const std::unordered_map<std::string, GateId> &namedGates() const
    {
        return names_;
    }
    /// @}

  private:
    friend class Levelizer;

    const CellLibrary *lib_;
    bool finalized_ = false;

    std::vector<Gate> gates_;
    std::vector<BehavioralHook> hooks_;
    std::vector<std::string> moduleNames_;
    std::vector<ModuleId> moduleParents_;
    std::unordered_map<std::string, GateId> names_;
    std::unordered_map<GateId, std::string> reverseNames_;

    FlatNetlist flat_;
    std::vector<GateId> seqGates_;
    std::vector<uint32_t> fanoutCount_;
    double totalLeakage_ = 0.0;
    double clockEnergy_ = 0.0;
};

/** Aggregate statistics used by tests, README tables and DOT export. */
struct NetlistStats {
    size_t totalGates = 0;
    size_t seqGates = 0;
    size_t combGates = 0;
    double areaUm2 = 0.0;
    double leakageW = 0.0;
    std::vector<std::pair<std::string, size_t>> gatesPerTopModule;
    std::vector<std::pair<std::string, size_t>> gatesPerKind;
};

NetlistStats computeStats(const Netlist &nl);

/** Human-readable multi-line summary of @p stats. */
std::string formatStats(const NetlistStats &stats);

/**
 * Graphviz DOT rendering of (a prefix of) the netlist, for inspecting
 * small designs and documentation diagrams. Sequential cells are
 * highlighted; edges into gates beyond @p max_gates are elided.
 */
std::string toDot(const Netlist &nl, size_t max_gates = 400);

} // namespace ulpeak

#endif // ULPEAK_NETLIST_NETLIST_HH
