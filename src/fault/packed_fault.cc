/**
 * @file
 * Packed fault runner: 64 faulted executions per PackedSimulator
 * sweep, each lane driving its own cosim::Checker -- the same rules
 * cosim::run applies, fed from the lane's readings -- so every
 * classification field is bit-identical to 64 scalar runFaulted calls
 * (the packed lane-identity invariant extended through the checker):
 *
 *  - per-lane behavioral memory, the bus rules, the reset sequence
 *    and the FSM decode are msp::PackedSystem's, the lane counterpart
 *    of the scalar runner's msp::System;
 *  - a lane whose run ends is retired from the simulator exactly where
 *    the scalar loop stops stepping: its checking stops, its state and
 *    memory freeze, no further injection lands, and it costs the
 *    remaining lanes' sweeps nothing.
 *
 * No report text is built here (the FaultResult::report contract);
 * replay one lane through the scalar runner to get the full report.
 */

#include "fault/fault.hh"

#include <memory>

#include "msp/cpu.hh"

namespace ulpeak {
namespace fault {

std::array<FaultResult, PackedSimulator::kLanes>
runFaultedPacked(msp::System &sys, const isa::Image &image,
                 const std::array<std::vector<Injection>,
                                  PackedSimulator::kLanes> &faults,
                 const RunOptions &opts)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    const msp::CpuHandles &h = sys.handles();

    sys.memory().reset();
    sys.loadImage(image);
    msp::PackedSystem lanes(sys);

    // One checker per lane. A lane whose run ends is retired from the
    // simulator, so the simulator's live mask is the running lanes.
    std::array<std::unique_ptr<cosim::Checker>, kLanes> check;
    for (auto &c : check)
        c = std::make_unique<cosim::Checker>(image, opts.portIn);
    std::array<bool, kLanes> applied{};
    std::array<std::vector<float>, kLanes> traceW;

    // Bus and register reads transpose all 64 lanes at once, the
    // first time a lane needs them in a cycle.
    msp::PackedSystem::LaneWords mab, mdb;
    auto observeStores = [&](PackedSimulator &s) {
        V64 rstn = s.value(h.rstn);
        V64 wr = s.value(h.mbWr);
        bool read = false;
        for (uint64_t live = s.liveMask(); live; live &= live - 1) {
            unsigned l = unsigned(__builtin_ctzll(live));
            check[l]->edge(rstn.lane(l), wr.lane(l), [&] {
                if (!read) {
                    mab = s.readBusLanes(h.mab);
                    mdb = s.readBusLanes(h.mdbOut);
                    read = true;
                }
                return std::pair(mab[l], mdb[l]);
            });
        }
    };
    // Same edge order as the scalar path: the memory commit
    // (System::attach) precedes the store-stream observer
    // (cosim::run). Finished (retired) lanes are skipped by both --
    // their scalar counterpart stopped stepping -- but merely *halted*
    // lanes still feed the observer, so the halting store itself is
    // observed exactly as in the scalar run.
    PackedSimulator psim(sys.netlist());
    lanes.attach(psim);
    psim.addEdgeFn(observeStores);

    auto applyInjections = [&](PackedSimulator &s) {
        for (uint64_t live = s.liveMask(); live; live &= live - 1) {
            unsigned l = unsigned(__builtin_ctzll(live));
            for (const Injection &inj : faults[l]) {
                if (inj.cycle != s.cycle())
                    continue;
                if (inj.site.kind == SiteKind::Flop)
                    applied[l] |= s.injectSeuFlip(inj.site.gate,
                                                  uint64_t(1) << l) != 0;
                else
                    applied[l] |=
                        lanes.memory(l).flipBit(inj.site.addr,
                                                inj.site.bit);
            }
        }
    };

    lanes.reset(psim, applyInjections);

    // cosim::run's loop body per lane.
    std::array<msp::PackedSystem::LaneWords, 16> regs;
    while (psim.liveMask() && psim.cycle() < opts.maxCycles) {
        uint64_t stepping = psim.liveMask();
        bool regsRead = false;
        psim.step([&](PackedSimulator &s) {
            lanes.driveCycle(s, Word16::known(opts.portIn));
            applyInjections(s);
        });
        for (; stepping; stepping &= stepping - 1) {
            unsigned l = unsigned(__builtin_ctzll(stepping));
            uint64_t bit = uint64_t(1) << l;
            cosim::Checker &c = *check[l];
            if (opts.powerCtx)
                traceW[l].push_back(float(opts.powerCtx->cyclePowerW(
                    psim.boundEnergyJ(l))));
            if (lanes.haltedMask() & bit) {
                c.halt(psim.cycle(), lanes.memory(l));
            } else if (lanes.xStoreMask() & bit) {
                c.xStore(psim.cycle());
            } else if (lanes.fsmState(psim, l) != msp::kStFetch) {
                continue;
            } else {
                if (!regsRead) {
                    for (unsigned r = 0; r < 16; ++r)
                        regs[r] = psim.readBusLanes(h.regs[r]);
                    regsRead = true;
                }
                cosim::Registers lane;
                for (unsigned r = 0; r < 16; ++r)
                    lane[r] = regs[r][l];
                if (c.fetch(psim.cycle(), lane))
                    continue;
            }
            psim.retireLanes(bit);
        }
    }

    // Budget exhausted: every still-running lane is a hang.
    for (uint64_t m = psim.liveMask(); m; m &= m - 1)
        check[__builtin_ctzll(m)]->timeout(psim.cycle());

    std::array<FaultResult, kLanes> res;
    for (unsigned l = 0; l < kLanes; ++l) {
        res[l] = toFaultResult(check[l]->result(), applied[l]);
        if (opts.powerCtx)
            applyPowerTrace(res[l], traceW[l], opts.envelope);
    }
    return res;
}

} // namespace fault
} // namespace ulpeak
