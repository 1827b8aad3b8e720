/**
 * @file
 * Top-level assembly of the ULP system: declares the cross-module
 * wires, invokes the module builders, finalizes the netlist and
 * implements the environment around the core -- the behavioral
 * RAM/ROM macro's bus rules, halt detection, the reset sequence, the
 * run pins and the FSM decode -- once for System and PackedSystem.
 */

#include "msp/cpu.hh"

#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "msp/internal.hh"

namespace ulpeak {
namespace msp {

namespace {

/** One access's read data, and whether it is billed. */
struct BusRead {
    Word16 data;
    bool billed;
};

/** The read rule of the RAM/ROM macro, one access (@p addr reads the
 *  address bus under a 1 enable). Enable 0 reads 0, an X enable or
 *  address all-X; RAM/ROM reads memory and is billed once (read and
 *  write cycles alike); peripheral space reads 0 (the backbone routes
 *  in-netlist data), unmapped space 0xffff (a pulled-up bus). */
template <typename AddrFn>
inline BusRead
readRule(const Memory &mem, V4 en, const AddrFn &addr)
{
    if (en == V4::Zero)
        return {Word16::known(0), false};
    if (en == V4::X)
        return {Word16::allX(), false};
    Word16 a = addr();
    if (!a.isFullyKnown())
        return {Word16::allX(), false};
    if (mem.inRam(a.value) || mem.inRom(a.value))
        return {mem.read(a.value), true};
    if (a.value < 0x0200)
        return {Word16::known(0), false};
    return {Word16::known(0xffff), false};
}

enum class Commit { None, XStore, Halt };

/** The commit rule of the RAM/ROM macro, one edge, from the stable
 *  values of the completed cycle (@p addr / @p data read the buses
 *  when needed). No write unless rstn is 1 (external reset inhibits
 *  writes while control nets may be X); an X write enable or address
 *  is an X-store fault; RAM is written, a store to kDone halts, the
 *  rest is dropped (peripherals latch from the netlist). */
template <typename AddrFn, typename DataFn>
inline Commit
commitRule(Memory &mem, V4 rstn, V4 wr, const AddrFn &addr,
           const DataFn &data)
{
    if (rstn != V4::One || wr == V4::Zero)
        return Commit::None;
    if (wr == V4::X)
        return Commit::XStore;
    Word16 a = addr();
    if (!a.isFullyKnown())
        return Commit::XStore;
    if (mem.inRam(a.value))
        mem.write(a.value, data());
    else if (a.value == SystemMap::kDone)
        return Commit::Halt;
    return Commit::None;
}

/** The FSM decode: the index of the one state net reading 1, or -1
 *  when one reads X or the reading is not one-hot. */
template <typename ValueFn>
inline int
decodeFsm(const CpuHandles &h, const ValueFn &value)
{
    int found = -1;
    for (unsigned s = 0; s < kNumStates; ++s) {
        V4 v = value(h.state[s]);
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

/** Hold @p pins and drive the input port: the one input writer of
 *  each kernel (a packed write sets every live lane). */
void
drivePins(Simulator &s, const CpuHandles &h, const PinValues &pins,
          Word16 port)
{
    for (const auto &[g, v] : pins)
        s.setInput(g, v);
    s.setInputBus(h.portIn, port);
}

/** A packed Word16 port drives every lane alike: a splat, far cheaper
 *  than the per-lane transpose of setInputBusLanes. */
template <typename Port>
void
drivePins(PackedSimulator &s, const CpuHandles &h, const PinValues &pins,
          const Port &port)
{
    for (const auto &[g, v] : pins)
        s.setInput(g, V64::splat(v));
    if constexpr (std::is_same_v<Port, Word16>) {
        for (size_t i = 0; i < h.portIn.size(); ++i)
            s.setInput(h.portIn[i], V64::splat(port.bit(unsigned(i))));
    } else {
        s.setInputBusLanes(h.portIn, port);
    }
}

/** The reset sequence (Algorithm 1 line 4) on either kernel: reset
 *  asserted, irq low and an X port for kResetCycles cycles;
 *  @p pre_cycle (if set) runs after the inputs are set. */
template <typename Sim, typename PreCycle>
void
resetSequence(Sim &sim, const CpuHandles &h, const PreCycle &pre_cycle)
{
    const PinValues held = {{h.rstn, V4::Zero}, {h.irq, V4::Zero}};
    for (unsigned i = 0; i < System::kResetCycles; ++i) {
        sim.step([&](Sim &s) {
            drivePins(s, h, held, Word16::allX());
            if (pre_cycle)
                pre_cycle(s);
        });
    }
}

} // namespace

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

    runPins = {{h.rstn, V4::One}, {h.irq, V4::Zero}};
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
    resetSequence(sim, core_->h, pre_cycle);
}

void
System::driveCycle(Simulator &sim, Word16 port_in)
{
    drivePins(sim, core_->h, core_->runPins, port_in);
}

void
System::memHook(Simulator &sim)
{
    const CpuHandles &h = core_->h;
    BusRead r = readRule(mem_, sim.value(h.mbEn),
                         [&] { return sim.readBus(h.mab); });
    sim.setInputBus(h.memData, r.data);
    if (r.billed)
        sim.addBehavioralEnergyJ(kMemAccessEnergyJ, h.modMemBackbone);
}

void
System::memEdge(Simulator &sim)
{
    const CpuHandles &h = core_->h;
    Commit c = commitRule(
        mem_, sim.value(h.rstn), sim.value(h.mbWr),
        [&] { return sim.readBus(h.mab); },
        [&] { return sim.readBus(h.mdbOut); });
    if (c == Commit::XStore)
        xStoreFault_ = true;
    else if (c == Commit::Halt)
        halted_ = true;
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
    return decodeFsm(core_->h, [&](GateId g) { return sim.value(g); });
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

PackedSystem::PackedSystem(const System &sys)
    : core_(sys.core_), mem_(kLanes, sys.memory())
{
}

void
PackedSystem::attach(PackedSimulator &ps)
{
    ps.setHookFn(core_->h.memHookId,
                 PackedFnRef::member<&PackedSystem::memHook>(*this));
    ps.addEdgeFn(PackedFnRef::member<&PackedSystem::memEdge>(*this));
}

void
PackedSystem::reset(PackedSimulator &ps, PackedFnRef pre_cycle)
{
    halted_ = 0;
    xStore_ = 0;
    resetSequence(ps, core_->h, pre_cycle);
}

void
PackedSystem::driveCycle(PackedSimulator &ps, const LaneWords &ports)
{
    drivePins(ps, core_->h, core_->runPins, ports);
}

void
PackedSystem::driveCycle(PackedSimulator &ps, Word16 port)
{
    drivePins(ps, core_->h, core_->runPins, port);
}

int
PackedSystem::fsmState(const PackedSimulator &ps, unsigned lane) const
{
    return decodeFsm(core_->h,
                     [&](GateId g) { return ps.valueLane(g, lane); });
}

void
PackedSystem::restore(unsigned lane, const System::Snapshot &s)
{
    uint64_t bit = uint64_t(1) << lane;
    mem_[lane].restore(s.mem);
    halted_ = s.halted ? halted_ | bit : halted_ & ~bit;
    xStore_ = s.xStoreFault ? xStore_ | bit : xStore_ & ~bit;
}

void
PackedSystem::memHook(PackedSimulator &ps)
{
    // Retired lanes are skipped: setInput would drop their data. The
    // address bus is transposed once, when some lane reads.
    const CpuHandles &h = core_->h;
    LaneWords data, addr;
    uint64_t billed = 0;
    V64 en = ps.value(h.mbEn);
    uint64_t live = ps.liveMask();
    if (en.v & en.k & live)
        addr = ps.readBusLanes(h.mab);
    for (; live; live &= live - 1) {
        unsigned l = unsigned(__builtin_ctzll(live));
        BusRead r = readRule(mem_[l], en.lane(l), [&] { return addr[l]; });
        data[l] = r.data;
        if (r.billed)
            billed |= uint64_t(1) << l;
    }
    ps.setInputBusLanes(h.memData, data);
    if (billed)
        ps.addBehavioralEnergyJ(System::kMemAccessEnergyJ,
                                h.modMemBackbone, billed);
}

void
PackedSystem::memEdge(PackedSimulator &ps)
{
    // The buses are transposed once, when some lane commits.
    const CpuHandles &h = core_->h;
    V64 rstn = ps.value(h.rstn);
    V64 wr = ps.value(h.mbWr);
    uint64_t lanes = ps.liveMask() & ~halted_;
    LaneWords addr, data;
    if (rstn.v & rstn.k & wr.v & wr.k & lanes) {
        addr = ps.readBusLanes(h.mab);
        data = ps.readBusLanes(h.mdbOut);
    }
    for (uint64_t m = lanes; m; m &= m - 1) {
        unsigned l = unsigned(__builtin_ctzll(m));
        Commit c = commitRule(mem_[l], rstn.lane(l), wr.lane(l),
                              [&] { return addr[l]; },
                              [&] { return data[l]; });
        if (c == Commit::XStore)
            xStore_ |= uint64_t(1) << l;
        else if (c == Commit::Halt)
            halted_ |= uint64_t(1) << l;
    }
}

} // namespace msp
} // namespace ulpeak
