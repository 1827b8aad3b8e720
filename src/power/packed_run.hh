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
 * schedule}: msp::PackedSystem gives each lane a private copy of the
 * behavioral memory under the scalar System's bus rules, a lane halts
 * independently (it is retired right after the step that halted it,
 * exactly where the scalar run stops stepping), and its recorded
 * trace floats are the same sums in the same order (the
 * PackedSimulator lane-identity invariant). tests/test_packed_sim.cc
 * and the ulfuzz packed property lockstep the two.
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

} // namespace power
} // namespace ulpeak

#endif // ULPEAK_POWER_PACKED_RUN_HH
