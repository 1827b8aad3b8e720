#include "power/packed_run.hh"

namespace ulpeak {
namespace power {

namespace {
constexpr unsigned kLanes = PackedSimulator::kLanes;
} // namespace

PackedRunResult
runConcretePacked(msp::System &sys, const isa::Image &image,
                  const PowerContext &ctx, const PackedRunOptions &opts,
                  const RamInit &ram_init)
{
    sys.memory().reset();
    sys.loadImage(image);
    for (auto &[addr, words] : ram_init)
        sys.memory().loadRam(addr, words);

    msp::PackedSystem lanes(sys);
    PackedSimulator psim(sys.netlist());
    lanes.attach(psim);
    lanes.reset(psim);

    PackedRunResult r;
    msp::PackedSystem::LaneWords ports;
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
        psim.step(
            [&](PackedSimulator &s) { lanes.driveCycle(s, ports); });
        // A lane whose edge halted it has run its scalar twin's last
        // step.
        psim.retireLanes(lanes.haltedMask());
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
        r.lanes[l].halted = (lanes.haltedMask() >> l) & 1;
        r.lanes[l].xStoreFault = (lanes.xStoreMask() >> l) & 1;
        r.lanes[l].totalEnergyJ = r.lanes[l].stats.energyJ(ctx.tclkS());
    }
    return r;
}

} // namespace power
} // namespace ulpeak
