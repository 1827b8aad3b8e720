/**
 * @file
 * Packed fault runner: 64 faulted executions per PackedSimulator
 * sweep, each lane locksteping against its own ISS instance. The
 * control flow mirrors cosim::run statement for statement so every
 * classification field is bit-identical to 64 scalar runFaulted calls
 * (the packed lane-identity invariant extended through the checker):
 *
 *  - per-lane behavioral memory and store-stream observation reuse
 *    power::packedMemHook / packedMemEdge;
 *  - the FETCH detection is a plane-wise evaluation of
 *    System::fsmState's exactly-one-hot-concrete rule;
 *  - a lane that diverges or halts is *finished* and retired from the
 *    simulator exactly where the scalar loop would have stopped
 *    stepping: its checking stops, its state and memory freeze, no
 *    further injection lands, and it costs the remaining lanes'
 *    sweeps nothing.
 *
 * Divergence detail/disassembly strings are not built here (the
 * FaultResult::report contract); replay one lane through the scalar
 * runner to get the full report.
 */

#include "fault/fault.hh"

#include "power/packed_run.hh"

namespace ulpeak {
namespace fault {

namespace {

constexpr unsigned kLanes = PackedSimulator::kLanes;

/** Mask of lanes whose FSM is exactly-one-hot concrete at FETCH --
 *  the plane-wise mirror of System::fsmState(sim) == kStFetch. */
uint64_t
fetchMask(const PackedSimulator &s, const msp::CpuHandles &h)
{
    uint64_t known_all = ~uint64_t(0);
    uint64_t ones_fetch = 0;
    uint64_t ones_other = 0;
    for (unsigned st = 0; st < msp::kNumStates; ++st) {
        V64 v = s.value(h.state[st]);
        known_all &= v.k;
        if (st == msp::kStFetch)
            ones_fetch = v.v;
        else
            ones_other |= v.v;
    }
    return ones_fetch & ~ones_other & known_all;
}

} // namespace

std::array<FaultResult, PackedSimulator::kLanes>
runFaultedPacked(msp::System &sys, const isa::Image &image,
                 const std::array<std::vector<Injection>,
                                  PackedSimulator::kLanes> &faults,
                 const RunOptions &opts)
{
    const msp::CpuHandles &h = sys.handles();

    sys.memory().reset();
    sys.loadImage(image);
    std::vector<Memory> mem(kLanes, sys.memory());

    std::array<FaultResult, kLanes> res;

    // Per-lane checker state (the locals of cosim::run, one per lane).
    // A lane that finishes is retired from the simulator, so the
    // simulator's live mask is the set of still-running lanes.
    uint64_t halted_mask = 0;
    uint64_t fault_mask = 0;
    std::array<std::vector<cosim::MemWrite>, kLanes> gateWrites;
    std::array<std::vector<cosim::MemWrite>, kLanes> issWrites;
    std::array<bool, kLanes> gateXWrite{};
    std::array<uint32_t, kLanes> curPc{};
    std::array<bool, kLanes> first{};
    std::array<bool, kLanes> issDone{};
    std::array<std::vector<float>, kLanes> traceW;
    first.fill(true);

    std::vector<isa::Iss> iss(kLanes);
    for (unsigned l = 0; l < kLanes; ++l) {
        iss[l].loadImage(image);
        iss[l].setPortIn(opts.portIn);
        std::vector<cosim::MemWrite> *w = &issWrites[l];
        iss[l].setWriteObserver([w](uint32_t a, uint16_t v) {
            if (a < isa::SystemMap::kRomBase)
                w->push_back({a, uint16_t(v)});
        });
        iss[l].reset();
        curPc[l] = iss[l].pc();
    }

    auto memHook = [&](PackedSimulator &s) {
        power::packedMemHook(s, h, mem);
    };
    auto memEdge = [&](PackedSimulator &s) {
        power::packedMemEdge(s, h, mem, halted_mask, fault_mask);
    };
    auto observeStores = [&](PackedSimulator &s) {
        V64 rstn = s.value(h.rstn);
        V64 wr = s.value(h.mbWr);
        uint64_t consider = s.liveMask();
        while (consider) {
            unsigned l = unsigned(__builtin_ctzll(consider));
            consider &= consider - 1;
            if (rstn.lane(l) != V4::One)
                continue;
            V4 w = wr.lane(l);
            if (w == V4::Zero)
                continue;
            Word16 addr = s.readBusLane(h.mab, l);
            Word16 data = s.readBusLane(h.mdbOut, l);
            if (w == V4::X || !addr.isFullyKnown() ||
                !data.isFullyKnown()) {
                gateXWrite[l] = true;
                continue;
            }
            if (addr.value < isa::SystemMap::kRomBase)
                gateWrites[l].push_back({addr.value, data.value});
        }
    };
    // Same edge order as the scalar path: the memory commit
    // (System::attach) precedes the store-stream observer
    // (cosim::run). Finished (retired) lanes are skipped by both --
    // their scalar counterpart stopped stepping -- but merely *halted*
    // lanes still feed the observer, so the halting store itself is
    // observed exactly as in the scalar run.
    PackedSimulator psim(sys.netlist());
    psim.setHookFn(h.memHookId, memHook);
    psim.addEdgeFn(memEdge);
    psim.addEdgeFn(observeStores);

    auto applyInjections = [&](PackedSimulator &s) {
        for (uint64_t live = s.liveMask(); live; live &= live - 1) {
            unsigned l = unsigned(__builtin_ctzll(live));
            for (const Injection &inj : faults[l]) {
                if (inj.cycle != s.cycle())
                    continue;
                if (inj.site.kind == SiteKind::Flop)
                    res[l].applied |=
                        s.injectSeuFlip(inj.site.gate,
                                        uint64_t(1) << l) != 0;
                else
                    res[l].applied |=
                        mem[l].flipBit(inj.site.addr, inj.site.bit);
            }
        }
    };

    // Lane divergence: the fields diverge() fills in cosim::run, minus
    // the detail/disasm strings. Finishes the lane.
    auto laneDiverge = [&](unsigned l, cosim::Divergence::Kind kind,
                           uint64_t cycle, uint32_t pc) {
        res[l].kind = kind;
        res[l].divergenceCycle = cycle;
        res[l].instrIndex = res[l].instructionsRetired;
        res[l].pc = pc;
        res[l].gateCycles = cycle;
        res[l].outcome =
            kind == cosim::Divergence::Kind::GateTimeout
                ? Outcome::Hang
                : (kind == cosim::Divergence::Kind::GateX
                       ? Outcome::Crash
                       : Outcome::Sdc);
        psim.retireLanes(uint64_t(1) << l);
    };

    // compareWrites(pc) per lane; returns false after diverging.
    auto compareWritesLane = [&](unsigned l, uint32_t pc) {
        if (gateWrites[l] == issWrites[l] && !gateXWrite[l])
            return true;
        laneDiverge(l, cosim::Divergence::Kind::MemWrite, psim.cycle(),
                    pc);
        return false;
    };

    // The post-halt epilogue of cosim::run (the GateTimeout branch
    // cannot apply: the lane halted).
    auto finalizeHalted = [&](unsigned l) {
        res[l].gateCycles = psim.cycle();
        if (!compareWritesLane(l, curPc[l]))
            return;
        if (!iss[l].halted()) {
            laneDiverge(l, cosim::Divergence::Kind::Halt, psim.cycle(),
                        curPc[l]);
            return;
        }
        if (psim.cycle() != iss[l].cycles()) {
            laneDiverge(l, cosim::Divergence::Kind::Cycles,
                        psim.cycle(), curPc[l]);
            return;
        }
        const Memory &m = mem[l];
        for (uint32_t a = m.ramBase(); a < m.ramBase() + m.ramSize();
             a += 2) {
            Word16 w = m.read(a);
            if (!w.isFullyKnown())
                continue;
            if (w.value != iss[l].readMem(a)) {
                laneDiverge(l, cosim::Divergence::Kind::FinalMemory,
                            psim.cycle(), curPc[l]);
                return;
            }
        }
        res[l].outcome = Outcome::Masked;
        psim.retireLanes(uint64_t(1) << l);
    };

    // Reset sequence (System::reset with the injection pre-cycle).
    for (unsigned i = 0; i < msp::System::kResetCycles; ++i) {
        psim.step([&](PackedSimulator &s) {
            s.setInput(h.rstn, V64::splat(V4::Zero));
            s.setInput(h.irq, V64::splat(V4::Zero));
            s.setInputBusAll(h.portIn, Word16::allX());
            applyInjections(s);
        });
    }

    while (psim.liveMask() && psim.cycle() < opts.maxCycles) {
        uint64_t stepping = psim.liveMask(); // scalar loop entrants
        psim.step([&](PackedSimulator &s) {
            s.setInput(h.rstn, V64::splat(V4::One));
            s.setInput(h.irq, V64::splat(V4::Zero));
            s.setInputBusAll(h.portIn, Word16::known(opts.portIn));
            applyInjections(s);
        });
        uint64_t fetch = fetchMask(psim, h);
        while (stepping) {
            unsigned l = unsigned(__builtin_ctzll(stepping));
            uint64_t bit = uint64_t(1) << l;
            stepping &= stepping - 1;
            if (opts.powerCtx)
                traceW[l].push_back(float(opts.powerCtx->cyclePowerW(
                    psim.boundEnergyJ(l))));
            if (halted_mask & bit) {
                finalizeHalted(l);
                continue;
            }
            if (fault_mask & bit) {
                laneDiverge(l, cosim::Divergence::Kind::GateX,
                            psim.cycle(), curPc[l]);
                continue;
            }
            if (!(fetch & bit))
                continue;

            // ---- Instruction boundary (cosim::run, per lane) ----
            uint32_t prevPc = curPc[l];
            if (!first[l]) {
                if (!compareWritesLane(l, prevPc))
                    continue;
                gateWrites[l].clear();
                issWrites[l].clear();
            }
            Word16 pcw = psim.readBusLane(h.pc, l);
            if (!pcw.isFullyKnown()) {
                laneDiverge(l, cosim::Divergence::Kind::GateX,
                            psim.cycle(), prevPc);
                continue;
            }
            if (issDone[l]) {
                laneDiverge(l, cosim::Divergence::Kind::Halt,
                            psim.cycle(), pcw.value);
                continue;
            }
            if (pcw.value != iss[l].pc()) {
                laneDiverge(l, cosim::Divergence::Kind::Pc,
                            psim.cycle(), prevPc);
                continue;
            }
            {
                bool regDiff = false;
                for (unsigned r = 1; r < 16; ++r) {
                    Word16 w = psim.readBusLane(h.regs[r], l);
                    if (!w.isFullyKnown())
                        continue;
                    if (w.value != iss[l].reg(r)) {
                        regDiff = true;
                        break;
                    }
                }
                if (regDiff) {
                    laneDiverge(l, cosim::Divergence::Kind::Register,
                                psim.cycle(), prevPc);
                    continue;
                }
            }
            curPc[l] = pcw.value;
            ++res[l].instructionsRetired;
            first[l] = false;
            if (!iss[l].step()) {
                if (!iss[l].halted()) {
                    laneDiverge(l, cosim::Divergence::Kind::IssTrap,
                                psim.cycle(), curPc[l]);
                    continue;
                }
                issDone[l] = true;
            }
        }
    }

    // Budget exhausted: every still-running lane is a hang.
    uint64_t running = psim.liveMask();
    while (running) {
        unsigned l = unsigned(__builtin_ctzll(running));
        running &= running - 1;
        laneDiverge(l, cosim::Divergence::Kind::GateTimeout,
                    psim.cycle(), curPc[l]);
    }

    if (opts.powerCtx)
        for (unsigned l = 0; l < kLanes; ++l)
            applyPowerTrace(res[l], traceW[l], opts.envelope);
    return res;
}

} // namespace fault
} // namespace ulpeak
