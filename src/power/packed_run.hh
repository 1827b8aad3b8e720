/**
 * @file
 * Batched concrete power-analysis runs on the bit-parallel kernel: one
 * PackedSimulator sweep executes 64 concrete runs of the same binary
 * that differ only in their per-cycle input-port schedules -- the
 * batching shape of concrete trace validation (many random port
 * schedules against one analyzed envelope).
 *
 * Per lane, runConcretePacked() is bit-identical to power::runConcrete
 * with ConcreteRunOptions{maxCycles, portSchedule = that lane's
 * schedule}: each lane owns a private copy of the behavioral memory,
 * halts independently (a lane is retired right after the step that
 * halted it, exactly where the scalar run stops stepping), and its
 * recorded trace floats are the same sums in the same order (the
 * PackedSimulator lane-identity invariant). tests/test_packed_sim.cc and the ulfuzz packed property
 * lockstep the two.
 */

#ifndef ULPEAK_POWER_PACKED_RUN_HH
#define ULPEAK_POWER_PACKED_RUN_HH

#include <array>
#include <vector>

#include "power/analysis.hh"
#include "sim/packed_simulator.hh"

namespace ulpeak {
namespace power {

struct PackedRunOptions {
    uint64_t maxCycles = 200000;
    bool recordTrace = true;
    /** Per-lane per-cycle port values, cycled and indexed by absolute
     *  cycle exactly like ConcreteRunOptions::portSchedule. An empty
     *  lane schedule holds that lane's port at portIn. */
    std::array<std::vector<uint16_t>, PackedSimulator::kLanes>
        portSchedules;
    uint16_t portIn = 0;
};

/** One lane's run outcome: the fields of ConcreteRunResult the packed
 *  path supports, plus the lane's X-store fault flag. */
struct PackedLaneResult {
    bool halted = false;
    bool xStoreFault = false;
    TraceStats stats;
    std::vector<float> traceW;
    double totalEnergyJ = 0.0;
};

struct PackedRunResult {
    std::array<PackedLaneResult, PackedSimulator::kLanes> lanes;
};

/**
 * Run @p image concretely on @p sys's netlist, 64 port schedules at
 * once. The system's memory is reset and reloaded (then copied per
 * lane), so calls are independent of prior runs and of each other.
 */
PackedRunResult runConcretePacked(msp::System &sys,
                                  const isa::Image &image,
                                  const PowerContext &ctx,
                                  const PackedRunOptions &opts,
                                  const RamInit &ram_init = {});

/// @name Packed mirrors of msp::System (shared with src/fault, src/sym)
/// @{

/** Mirror of System::reset on every lane: the reset sequence, with
 *  @p pre_cycle (may be empty) run inside each step's driver after the
 *  inputs are set, the fault layer's injection point. */
void packedReset(PackedSimulator &s, const msp::CpuHandles &h,
                 PackedFnRef pre_cycle = {});

/** Per-lane mirror of System::fsmState: lane l's active FSM state, or
 *  -1 where its one-hot is not exactly one concrete 1. */
std::array<int, PackedSimulator::kLanes>
packedFsmStates(const PackedSimulator &s, const msp::CpuHandles &h);

/** Per-lane mirror of System::memHook: asynchronous RAM/ROM read data
 *  for every live lane, one access-energy bill per accessing lane. */
void packedMemHook(PackedSimulator &s, const msp::CpuHandles &h,
                   std::vector<Memory> &mem);

/**
 * Per-lane mirror of System::memEdge. Retired lanes are skipped
 * outright (their scalar counterpart stopped stepping before this
 * edge, so nothing may commit); additionally lanes already in
 * @p halted_mask are skipped, keeping memory, fault flag and halt
 * state bit-identical to independent scalar runs while other lanes
 * keep going.
 */
void packedMemEdge(PackedSimulator &s, const msp::CpuHandles &h,
                   std::vector<Memory> &mem, uint64_t &halted_mask,
                   uint64_t &fault_mask);

/// @}

} // namespace power
} // namespace ulpeak

#endif // ULPEAK_POWER_PACKED_RUN_HH
