#include "power/packed_run.hh"

namespace ulpeak {
namespace power {

namespace {
constexpr unsigned kLanes = PackedSimulator::kLanes;
} // namespace

void
packedReset(PackedSimulator &s, const msp::CpuHandles &h,
            PackedFnRef pre_cycle)
{
    for (unsigned i = 0; i < msp::System::kResetCycles; ++i) {
        s.step([&](PackedSimulator &ps) {
            ps.setInput(h.rstn, V64::splat(V4::Zero));
            ps.setInput(h.irq, V64::splat(V4::Zero));
            ps.setInputBusAll(h.portIn, Word16::allX());
            if (pre_cycle)
                pre_cycle(ps);
        });
    }
}

std::array<int, kLanes>
packedFsmStates(const PackedSimulator &s, const msp::CpuHandles &h)
{
    std::array<int, kLanes> states;
    states.fill(-1);
    uint64_t undecoded = 0; // an X state net, or a second 1
    for (unsigned st = 0; st < msp::kNumStates; ++st) {
        V64 v = s.value(h.state[st]);
        undecoded |= ~v.k;
        for (uint64_t m = v.v; m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            if (states[l] >= 0)
                undecoded |= uint64_t(1) << l;
            states[l] = int(st);
        }
    }
    for (; undecoded; undecoded &= undecoded - 1)
        states[unsigned(__builtin_ctzll(undecoded))] = -1;
    return states;
}

void
packedMemHook(PackedSimulator &s, const msp::CpuHandles &h,
              std::vector<Memory> &mem)
{
    // Retired lanes are skipped: setInput would drop their data.
    std::array<Word16, kLanes> data;
    uint64_t access_mask = 0;
    V64 en = s.value(h.mbEn);
    for (uint64_t live = s.liveMask(); live; live &= live - 1) {
        unsigned l = unsigned(__builtin_ctzll(live));
        V4 e = en.lane(l);
        if (e == V4::Zero) {
            data[l] = Word16::known(0);
            continue;
        }
        Word16 addr = s.readBusLane(h.mab, l);
        if (e == V4::X || !addr.isFullyKnown()) {
            data[l] = Word16::allX();
            continue;
        }
        uint32_t a = addr.value;
        if (mem[l].inRam(a) || mem[l].inRom(a)) {
            data[l] = mem[l].read(a);
            access_mask |= uint64_t(1) << l;
        } else if (a < 0x0200) {
            data[l] = Word16::known(0);
        } else {
            data[l] = Word16::known(0xffff);
        }
    }
    s.setInputBusLanes(h.memData, data);
    if (access_mask)
        s.addBehavioralEnergyJ(msp::System::kMemAccessEnergyJ,
                               h.modMemBackbone, access_mask);
}

/** Halted lanes are skipped: the scalar run stops stepping one cycle
 *  after the halting store, so no later edge of that lane ever commits
 *  there. */
void
packedMemEdge(PackedSimulator &s, const msp::CpuHandles &h,
              std::vector<Memory> &mem, uint64_t &halted_mask,
              uint64_t &fault_mask)
{
    V64 rstn = s.value(h.rstn);
    V64 wr = s.value(h.mbWr);
    for (uint64_t m = s.liveMask() & ~halted_mask; m; m &= m - 1) {
        unsigned l = unsigned(__builtin_ctzll(m));
        uint64_t bit = uint64_t(1) << l;
        if (rstn.lane(l) != V4::One)
            continue;
        V4 w = wr.lane(l);
        if (w == V4::Zero)
            continue;
        if (w == V4::X) {
            fault_mask |= bit;
            continue;
        }
        Word16 addr = s.readBusLane(h.mab, l);
        if (!addr.isFullyKnown()) {
            fault_mask |= bit;
            continue;
        }
        uint32_t a = addr.value;
        Word16 d = s.readBusLane(h.mdbOut, l);
        if (mem[l].inRam(a))
            mem[l].write(a, d);
        else if (a == msp::SystemMap::kDone)
            halted_mask |= bit;
    }
}

PackedRunResult
runConcretePacked(msp::System &sys, const isa::Image &image,
                  const PowerContext &ctx, const PackedRunOptions &opts,
                  const RamInit &ram_init)
{
    sys.memory().reset();
    sys.loadImage(image);
    for (auto &[addr, words] : ram_init)
        sys.memory().loadRam(addr, words);

    const msp::CpuHandles &h = sys.handles();
    std::vector<Memory> mem(kLanes, sys.memory());
    uint64_t halted_mask = 0;
    uint64_t fault_mask = 0;

    auto memHook = [&](PackedSimulator &s) { packedMemHook(s, h, mem); };
    auto memEdge = [&](PackedSimulator &s) {
        packedMemEdge(s, h, mem, halted_mask, fault_mask);
    };
    PackedSimulator psim(sys.netlist());
    psim.setHookFn(h.memHookId, memHook);
    psim.addEdgeFn(memEdge);

    packedReset(psim, h);

    PackedRunResult r;
    std::array<Word16, kLanes> ports;
    while (psim.liveMask() && psim.cycle() < opts.maxCycles) {
        // Lanes recording this step: exactly those whose scalar run
        // would still be in its step loop (halt is checked before the
        // step there, so the step whose edge sets halt still records).
        uint64_t record_mask = psim.liveMask();
        for (unsigned l = 0; l < kLanes; ++l) {
            const std::vector<uint16_t> &sched = opts.portSchedules[l];
            uint16_t p = sched.empty()
                             ? opts.portIn
                             : sched[size_t(psim.cycle()) %
                                     sched.size()];
            ports[l] = Word16::known(p);
        }
        psim.step([&](PackedSimulator &s) {
            s.setInput(h.rstn, V64::splat(V4::One));
            s.setInput(h.irq, V64::splat(V4::Zero));
            s.setInputBusLanes(h.portIn, ports);
        });
        // A lane whose edge halted it has run its scalar twin's last
        // step.
        psim.retireLanes(halted_mask);
        while (record_mask) {
            unsigned l = unsigned(__builtin_ctzll(record_mask));
            record_mask &= record_mask - 1;
            double w = ctx.cyclePowerW(psim.boundEnergyJ(l));
            r.lanes[l].stats.add(w);
            if (opts.recordTrace)
                r.lanes[l].traceW.push_back(float(w));
        }
    }

    for (unsigned l = 0; l < kLanes; ++l) {
        r.lanes[l].halted = (halted_mask >> l) & 1;
        r.lanes[l].xStoreFault = (fault_mask >> l) & 1;
        r.lanes[l].totalEnergyJ = r.lanes[l].stats.energyJ(ctx.tclkS());
    }
    return r;
}

} // namespace power
} // namespace ulpeak
