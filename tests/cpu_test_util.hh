/**
 * @file
 * Shared helpers for gate-level CPU tests: build a System once per
 * process (construction elaborates ~10k gates) and run assembled
 * programs to completion.
 */

#ifndef ULPEAK_TESTS_CPU_TEST_UTIL_HH
#define ULPEAK_TESTS_CPU_TEST_UTIL_HH

#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "isa/iss.hh"
#include "msp/cpu.hh"

namespace ulpeak {
namespace test {

/** Lazily-built shared netlist (the netlist itself is immutable). */
inline msp::System &
sharedSystem()
{
    static msp::System system(CellLibrary::tsmc65Like());
    return system;
}

struct GateRun {
    bool halted = false;
    bool xStoreFault = false;
    uint64_t cycles = 0;
    std::array<uint16_t, 16> regs{};
    std::array<bool, 16> regKnown{};
};

/**
 * Run @p image on the gate-level core with a concrete @p port_in until
 * halt or @p max_cycles. The System's memory is (re)loaded, so calls
 * are independent.
 */
inline GateRun
runGate(msp::System &sys, const isa::Image &image, uint16_t port_in,
        uint64_t max_cycles = 60000)
{
    sys.memory().reset();
    sys.loadImage(image);
    sys.clearHalted();

    Simulator sim(sys.netlist());
    sys.attach(sim);
    sys.reset(sim);
    while (!sys.halted() && sim.cycle() < max_cycles) {
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::known(port_in));
        });
    }

    GateRun r;
    r.halted = sys.halted();
    r.xStoreFault = sys.xStoreFault();
    r.cycles = sim.cycle();
    for (unsigned i = 0; i < 16; ++i) {
        Word16 w = sys.readReg(sim, i);
        r.regKnown[i] = w.isFullyKnown();
        r.regs[i] = w.value;
    }
    return r;
}

/** Lane @p lane's word of @p bus, one gate at a time: the reference
 *  for PackedSimulator::readBusLanes's transpose. */
inline Word16
readBusLane(const PackedSimulator &ps, const std::vector<GateId> &bus,
            unsigned lane)
{
    Word16 w;
    for (size_t i = 0; i < bus.size(); ++i) {
        V4 b = ps.valueLane(bus[i], lane);
        w.value |= uint16_t((b == V4::One) << i);
        w.xmask |= uint16_t((b == V4::X) << i);
    }
    return w;
}

/** Convenience: wrap @p body in the standard prologue/epilogue.
 * Holding the watchdog matters for symbolic tests: a free-running
 * counter makes every cycle's state unique, defeating Algorithm 1's
 * dedup. */
inline std::string
wrapProgram(const std::string &body)
{
    return R"(
        .org 0xf800
start:
        mov #0x0a00, sp
        mov #0x5a80, &0x0120
)" + body + R"(
        mov #1, &0x01f0
__forever:
        jmp __forever
        .org 0xfffe
        .word start
    )";
}

} // namespace test
} // namespace ulpeak

#endif // ULPEAK_TESTS_CPU_TEST_UTIL_HH
