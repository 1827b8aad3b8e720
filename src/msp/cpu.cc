/**
 * @file
 * Top-level assembly of the ULP system: declares the cross-module
 * wires, invokes the module builders, finalizes the netlist and
 * implements the behavioral RAM/ROM macro hook plus halt detection.
 */

#include "msp/cpu.hh"

#include <mutex>
#include <stdexcept>
#include <vector>

#include "msp/internal.hh"

namespace ulpeak {
namespace msp {

System::Core::Core(const CellLibrary &l) : lib(l), nl(lib)
{
    hw::Builder b(nl);
    CpuBuild c;
    c.b = &b;
    c.h = &h;

    // Primary inputs.
    c.rstn = b.input("rstn");
    c.irq = b.input("irq");
    h.rstn = c.rstn;
    h.irq = c.irq;
    h.portIn = b.busInput(16, "port_in");

    // RAM/ROM macro read-data port, produced by the behavioral hook.
    h.memData = b.busInput(16, "mem_rdata");

    // Cross-module wires (drivers connected by mem_backbone).
    c.mab = b.busWireDecl(16, "mab");
    c.mbEn = b.wireDecl("mb_en");
    c.mbWr = b.wireDecl("mb_wr");
    c.mdbOut = b.busWireDecl(16, "mdb_out");
    c.mdbIn = b.busWireDecl(16, "mdb_in");
    h.mab = c.mab;
    h.mbEn = c.mbEn;
    h.mbWr = c.mbWr;
    h.mdbOut = c.mdbOut;

    buildFrontend(b, c);
    buildExecUnit(b, c);
    buildMultiplier(b, c);
    buildPeripherals(b, c);
    buildMemBackbone(b, c);

    // The RAM/ROM macro behaves as an asynchronous-read array: its
    // read data depends combinationally on the address/enable nets
    // (not on mb_wr/mdb_out -- writes commit at the clock edge, which
    // keeps the macro free of combinational feedback).
    BehavioralHook hook;
    hook.name = "ram_rom_macro";
    hook.depends = c.mab;
    hook.depends.push_back(c.mbEn);
    hook.outputs = h.memData;
    h.memHookId = nl.addHook(std::move(hook));

    nl.finalize();
}

std::shared_ptr<const System::Core>
System::coreFor(const CellLibrary &lib)
{
    // A process elaborates each library content once; the lock also
    // makes concurrent first constructions wait for that one core.
    static std::mutex mu;
    static std::vector<std::shared_ptr<const Core>> cores;
    std::lock_guard<std::mutex> lock(mu);
    for (const std::shared_ptr<const Core> &c : cores)
        if (c->lib == lib)
            return c;
    cores.push_back(std::make_shared<const Core>(lib));
    return cores.back();
}

System::System(const CellLibrary &lib)
    : core_(coreFor(lib)),
      mem_(SystemMap::kRamBase, SystemMap::kRamSize, SystemMap::kRomBase)
{
}

void
System::loadImage(const isa::Image &image)
{
    for (auto &[addr, word] : image.flatten()) {
        if (mem_.inRom(addr))
            mem_.loadRom(addr, {word});
        else if (mem_.inRam(addr))
            mem_.loadRam(addr, {word});
        else
            throw std::out_of_range("image word outside RAM/ROM");
    }
}

void
System::attach(Simulator &sim)
{
    sim.setHookFn(core_->h.memHookId,
                  SimFnRef::member<&System::memHook>(*this));
    sim.addEdgeFn(SimFnRef::member<&System::memEdge>(*this));
}

void
System::reset(Simulator &sim,
              const std::function<void(Simulator &)> &pre_cycle)
{
    halted_ = false;
    xStoreFault_ = false;
    for (unsigned i = 0; i < kResetCycles; ++i) {
        sim.step([&](Simulator &s) {
            s.setInput(core_->h.rstn, V4::Zero);
            s.setInput(core_->h.irq, V4::Zero);
            s.setInputBus(core_->h.portIn, Word16::allX());
            if (pre_cycle)
                pre_cycle(s);
        });
    }
}

void
System::driveCycle(Simulator &sim, Word16 port_in)
{
    sim.setInput(core_->h.rstn, V4::One);
    sim.setInput(core_->h.irq, V4::Zero);
    sim.setInputBus(core_->h.portIn, port_in);
}

void
System::memHook(Simulator &sim)
{
    const CpuHandles &h = core_->h;
    V4 en = sim.value(h.mbEn);
    if (en == V4::Zero) {
        sim.setInputBus(h.memData, Word16::known(0));
        return;
    }
    Word16 addr = sim.readBus(h.mab);
    if (en == V4::X || !addr.isFullyKnown()) {
        sim.setInputBus(h.memData, Word16::allX());
        return;
    }
    uint32_t a = addr.value;
    if (mem_.inRam(a) || mem_.inRom(a)) {
        sim.setInputBus(h.memData, mem_.read(a));
        // Every presented RAM/ROM access (read or write cycle) is
        // billed once here; the edge function only commits the data.
        sim.addBehavioralEnergyJ(kMemAccessEnergyJ, h.modMemBackbone);
    } else if (a < 0x0200) {
        // Peripheral space: the backbone routes in-netlist data.
        sim.setInputBus(h.memData, Word16::known(0));
    } else {
        // Unmapped: pulled-up bus.
        sim.setInputBus(h.memData, Word16::known(0xffff));
    }
}

void
System::memEdge(Simulator &sim)
{
    const CpuHandles &h = core_->h;
    // Values read here are the stable values of the cycle that just
    // completed. While reset is asserted the core's control nets may
    // still be X; external reset inhibits writes.
    if (sim.value(h.rstn) != V4::One)
        return;
    V4 wr = sim.value(h.mbWr);
    if (wr == V4::Zero)
        return;
    if (wr == V4::X) {
        xStoreFault_ = true;
        return;
    }
    Word16 addr = sim.readBus(h.mab);
    if (!addr.isFullyKnown()) {
        xStoreFault_ = true;
        return;
    }
    uint32_t a = addr.value;
    Word16 data = sim.readBus(h.mdbOut);
    if (mem_.inRam(a)) {
        mem_.write(a, data);
    } else if (a == SystemMap::kDone) {
        halted_ = true;
    }
    // ROM / peripheral / unmapped writes: peripherals latch from the
    // netlist themselves; everything else is dropped.
}

Word16
System::readPc(const Simulator &sim) const
{
    return sim.readBus(core_->h.pc);
}

Word16
System::readReg(const Simulator &sim, unsigned r) const
{
    return sim.readBus(core_->h.regs[r]);
}

Word16
System::readIr(const Simulator &sim) const
{
    return sim.readBus(core_->h.ir);
}

int
System::fsmState(const Simulator &sim) const
{
    int found = -1;
    for (unsigned s = 0; s < kNumStates; ++s) {
        V4 v = sim.value(core_->h.state[s]);
        if (v == V4::X)
            return -1;
        if (v == V4::One) {
            if (found >= 0)
                return -1;
            found = int(s);
        }
    }
    return found;
}

System::Snapshot
System::snapshot() const
{
    return Snapshot{mem_.snapshot(), halted_, xStoreFault_};
}

void
System::restore(const Snapshot &s)
{
    mem_.restore(s.mem);
    halted_ = s.halted;
    xStoreFault_ = s.xStoreFault;
}

} // namespace msp
} // namespace ulpeak
