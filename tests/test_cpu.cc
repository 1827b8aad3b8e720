/**
 * @file
 * Gate-level CPU tests: the shared elaborated core, netlist structure,
 * reset, directed programs covering the ISA, memory-mapped
 * peripherals and halt behaviour.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

using test::GateRun;
using test::runGate;
using test::sharedSystem;
using test::wrapProgram;

// First in the file, so the threads race to elaborate the f1610 core
// (no earlier test built it); the CI runs this binary under TSan.
TEST(CpuCore, ConcurrentConstructionElaboratesOneCore)
{
    constexpr unsigned kThreads = 8;
    std::vector<std::unique_ptr<msp::System>> systems(kThreads);
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t)
        pool.emplace_back([&systems, t] {
            systems[t] =
                std::make_unique<msp::System>(CellLibrary::f1610Like());
        });
    for (std::thread &t : pool)
        t.join();
    for (unsigned t = 1; t < kThreads; ++t)
        EXPECT_EQ(&systems[t]->netlist(), &systems[0]->netlist()) << t;
    EXPECT_TRUE(systems[0]->netlist().finalized());
}

TEST(CpuCore, SystemsOfOneLibraryShareTheNetlistNotTheMemory)
{
    msp::System a(CellLibrary::tsmc65Like());
    msp::System b(CellLibrary::tsmc65Like());
    msp::System other(CellLibrary::f1610Like());
    EXPECT_EQ(&a.netlist(), &b.netlist());
    EXPECT_EQ(&a.handles(), &b.handles());
    EXPECT_EQ(&a.lib(), &a.netlist().library());
    EXPECT_NE(&a.netlist(), &other.netlist());
    EXPECT_EQ(other.lib().name(), CellLibrary::f1610Like().name());

    // Memory and halt state stay per System.
    EXPECT_NE(&a.memory(), &b.memory());
    a.memory().write(isa::SystemMap::kRamBase, Word16::known(0x1234));
    EXPECT_NE(b.memory().read(isa::SystemMap::kRamBase).value, 0x1234);
}

TEST(CpuNetlist, StructureLooksLikeAProcessor)
{
    msp::System &sys = sharedSystem();
    NetlistStats s = computeStats(sys.netlist());
    EXPECT_GT(s.totalGates, 4000u) << "should be a real netlist";
    EXPECT_GT(s.seqGates, 300u);
    // All eight paper modules exist and are populated.
    for (const char *name :
         {"frontend", "exec_unit", "mem_backbone", "multiplier", "sfr",
          "watchdog", "clk_module", "dbg"}) {
        ModuleId m = sys.netlist().findModule(name);
        EXPECT_NE(m, kTopModule) << name;
        bool found = false;
        for (auto &[mod, count] : s.gatesPerTopModule)
            if (mod == name && count > 0)
                found = true;
        EXPECT_TRUE(found) << name;
    }
}

TEST(CpuNetlist, MultiplierIsTheBiggestBlock)
{
    // The paper's power story depends on the multiplier being the
    // dominant combinational block (Section 5, OPT3).
    msp::System &sys = sharedSystem();
    NetlistStats s = computeStats(sys.netlist());
    size_t mult = 0, others = 0;
    for (auto &[mod, count] : s.gatesPerTopModule) {
        if (mod == "multiplier")
            mult = count;
        else if (mod == "dbg" || mod == "sfr" || mod == "clk_module" ||
                 mod == "watchdog")
            others = std::max(others, count);
    }
    EXPECT_GT(mult, 1500u);
    EXPECT_GT(mult, others * 3);
}

TEST(CpuRun, MinimalHaltProgram)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram("")), 0);
    EXPECT_TRUE(r.halted);
    EXPECT_FALSE(r.xStoreFault);
}

TEST(CpuRun, ArithmeticAndFlags)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #100, r4
        mov #23, r5
        add r5, r4
        sub #3, r5
        mov #0xffff, r6
        add #1, r6
        mov sr, r7
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[4], 123);
    EXPECT_EQ(r.regs[5], 20);
    EXPECT_EQ(r.regs[6], 0);
    EXPECT_TRUE(r.regs[7] & (1 << isa::kFlagC));
    EXPECT_TRUE(r.regs[7] & (1 << isa::kFlagZ));
}

TEST(CpuRun, LoopsAndBranches)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #5, r4
        mov #0, r5
loop:
        add r4, r5
        dec r4
        jnz loop
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[5], 15);
}

TEST(CpuRun, MemoryReadWrite)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #0x0300, r4
        mov #0x1111, 0(r4)
        mov #0x2222, 2(r4)
        mov @r4+, r5
        add @r4, r5
        mov r5, &0x0320
        mov &0x0320, r6
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[5], 0x3333);
    EXPECT_EQ(r.regs[6], 0x3333);
    EXPECT_EQ(r.regs[4], 0x0302);
}

TEST(CpuRun, StackAndCalls)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #0x0a00, sp
        mov #0x1234, r4
        push r4
        clr r4
        pop r5
        call #leaf
        mov sp, r7
        jmp end
leaf:
        mov #77, r6
        ret
end:
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[5], 0x1234);
    EXPECT_EQ(r.regs[6], 77);
    EXPECT_EQ(r.regs[7], 0x0a00);
}

TEST(CpuRun, HardwareMultiplier)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #1234, &0x0130
        mov #5678, &0x0138
        mov &0x013a, r4
        mov &0x013c, r5
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    uint32_t p = 1234u * 5678u;
    EXPECT_EQ(r.regs[4], uint16_t(p));
    EXPECT_EQ(r.regs[5], uint16_t(p >> 16));
}

TEST(CpuRun, PortInput)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov &0x0020, r4
        xor #0xffff, r4
    )")),
                        0xbeef);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[4], uint16_t(~0xbeef));
}

TEST(CpuRun, WatchdogHoldAndReadback)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #0x5a80, &0x0120
        mov &0x0120, r4
        mov #0x1111, &0x0120  ; wrong password
        mov &0x0120, r5
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[4], 0x6980);
    EXPECT_EQ(r.regs[5], 0x6980);
}

TEST(CpuRun, ShiftUnit)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #0x8003, r4
        rra r4
        mov #1, r5
        setc
        rrc r5
        mov #0x1234, r6
        swpb r6
        mov #0x0080, r7
        sxt r7
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[4], 0xc001);
    EXPECT_EQ(r.regs[5], 0x8000);
    EXPECT_EQ(r.regs[6], 0x3412);
    EXPECT_EQ(r.regs[7], 0xff80);
}

TEST(CpuRun, RmwOnMemoryOperand)
{
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #0x00f0, &0x0300
        rra &0x0300
        mov &0x0300, r4
        add #1, &0x0300
        mov &0x0300, r5
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.regs[4], 0x0078);
    EXPECT_EQ(r.regs[5], 0x0079);
}

TEST(CpuRun, UninitializedRegisterStaysX)
{
    // Algorithm 1 line 2: anything not explicitly initialized is X.
    msp::System &sys = sharedSystem();
    GateRun r = runGate(sys, isa::assemble(wrapProgram(R"(
        mov #7, r4
    )")),
                        0);
    ASSERT_TRUE(r.halted);
    EXPECT_TRUE(r.regKnown[4]);
    EXPECT_FALSE(r.regKnown[11]) << "r11 was never written";
}

// ---- The RAM/ROM macro's bus rules against a literal spec ----

/** The address classes of the bus-rule spec. */
enum class Addr { X, Ram, Rom, Done, Periph, Unmapped };

constexpr uint16_t kSpecRam = isa::SystemMap::kRamBase + 0x10;
constexpr uint16_t kSpecRom = isa::SystemMap::kRomBase + 0x20;
constexpr uint16_t kRamWord = 0x1111, kRomWord = 0x2222;
constexpr uint16_t kStoreWord = 0xbeef;

Word16
addrOf(Addr a)
{
    switch (a) {
    case Addr::X:
        return Word16(kSpecRam, 0x0004); // one X bit
    case Addr::Ram:
        return Word16::known(kSpecRam);
    case Addr::Rom:
        return Word16::known(kSpecRom);
    case Addr::Done:
        return Word16::known(isa::SystemMap::kDone);
    case Addr::Periph:
        return Word16::known(0x0100);
    case Addr::Unmapped:
        return Word16::known(0x1000);
    }
    return Word16::allX();
}

/** What the bus nets read in one cycle. */
struct Access {
    V4 rstn, en, wr;
    Addr addr;
};

/** What one access did: the hook's read data and bill, and the edge's
 *  effects as "W" (RAM written), "H" (halt), "F" (X-store fault) or
 *  "." (none), with a "?" for any effect the spec has no room for (a
 *  stray bill, another lane's commit, a clobbered word). */
struct Outcome {
    Word16 data;
    bool billed = false;
    std::string commit;
};

/** A System over the shared core with one RAM and one ROM word. */
std::unique_ptr<msp::System>
specSystem()
{
    auto sys = std::make_unique<msp::System>(sharedSystem().lib());
    sys->memory().loadRam(kSpecRam, {kRamWord});
    sys->memory().loadRom(kSpecRom, {kRomWord});
    return sys;
}

/** @p sim's state with the bus nets set to @p a (the write data is
 *  always kStoreWord). */
Simulator::Snapshot
accessState(const Simulator &sim, const Access &a)
{
    const msp::CpuHandles &h = sharedSystem().handles();
    Simulator::Snapshot s = sim.snapshot();
    s.val[h.rstn] = a.rstn;
    s.val[h.mbEn] = a.en;
    s.val[h.mbWr] = a.wr;
    Word16 addr = addrOf(a.addr), data = Word16::known(kStoreWord);
    for (unsigned i = 0; i < 16; ++i) {
        s.val[h.mab[i]] = addr.bit(i);
        s.val[h.mdbOut[i]] = data.bit(i);
    }
    return s;
}

std::string
effects(const Memory &mem, bool halted, bool fault)
{
    std::string e;
    if (mem.read(kSpecRam) == Word16::known(kStoreWord))
        e += "W";
    else if (!(mem.read(kSpecRam) == Word16::known(kRamWord)))
        e += "?"; // RAM clobbered
    if (!(mem.read(kSpecRom) == Word16::known(kRomWord)))
        e += "?"; // ROM written
    if (halted)
        e += "H";
    if (fault)
        e += "F";
    return e.empty() ? "." : e;
}

/** One access through System::memHook then System::memEdge. */
Outcome
viaSystem(const Access &a)
{
    auto sys = specSystem();
    const msp::CpuHandles &h = sys->handles();
    Simulator sim(sys->netlist());
    sim.restore(accessState(sim, a));
    sys->memHook(sim);
    sys->memEdge(sim);
    Outcome o;
    o.data = sim.readBus(h.memData);
    double billJ = sim.moduleBoundEnergyJ()[h.modMemBackbone];
    o.billed = billJ == msp::System::kMemAccessEnergyJ &&
               sim.behavioralEnergyJ() == billJ;
    if (!o.billed && (billJ != 0.0 || sim.behavioralEnergyJ() != 0.0))
        o.commit = "?"; // billed something else
    o.commit += effects(sys->memory(), sys->halted(), sys->xStoreFault());
    return o;
}

/** One access through PackedSystem's hook then edge, in lane @p lane
 *  only (the other lanes read all-X nets, which neither bill nor
 *  commit). */
Outcome
viaLane(const Access &a, unsigned lane)
{
    auto sys = specSystem();
    const msp::CpuHandles &h = sys->handles();
    msp::PackedSystem lanes(*sys);
    PackedSimulator ps(sys->netlist());
    ps.loadLaneState(lane, accessState(Simulator(sys->netlist()), a));
    lanes.memHook(ps);
    lanes.memEdge(ps);
    Outcome o;
    o.data = test::readBusLane(ps, h.memData, lane);
    o.billed = ps.boundEnergyJ(lane) == msp::System::kMemAccessEnergyJ;
    if (!o.billed && ps.boundEnergyJ(lane) != 0.0)
        o.commit = "?";
    uint64_t bit = uint64_t(1) << lane;
    for (unsigned l = 0; l < msp::PackedSystem::kLanes; ++l)
        if (l != lane && ps.boundEnergyJ(l) != 0.0)
            o.commit += "?"; // another lane billed
    if ((lanes.haltedMask() | lanes.xStoreMask()) & ~bit)
        o.commit += "?"; // another lane committed
    o.commit += effects(lanes.memory(lane), lanes.haltedMask() & bit,
                        lanes.xStoreMask() & bit);
    return o;
}

/** Every kernel the rules run in: System, and lanes 0, 31, 63. */
template <typename Check>
void
forEachKernel(const Access &a, const Check &check)
{
    check(viaSystem(a), "System");
    for (unsigned lane : {0u, 31u, 63u})
        check(viaLane(a, lane), "lane " + std::to_string(lane));
}

const char *
v4Name(V4 v)
{
    return v == V4::Zero ? "0" : v == V4::One ? "1" : "X";
}

TEST(CpuBus, ReadRuleMatchesTheSpec)
{
    constexpr uint16_t kAllX = 0xffff;
    struct Row {
        V4 en;
        Addr addr;
        uint16_t value, xmask;
        bool billed;
    };
    // Enable 0 reads 0 and X reads all-X wherever it points; under a 1
    // enable an X address bit reads all-X, RAM and ROM read memory and
    // bill one access, the peripheral space reads 0 and unmapped space
    // the pulled-up 0xffff.
    const Row spec[] = {
        {V4::Zero, Addr::X, 0, 0, false},
        {V4::Zero, Addr::Ram, 0, 0, false},
        {V4::Zero, Addr::Rom, 0, 0, false},
        {V4::Zero, Addr::Periph, 0, 0, false},
        {V4::Zero, Addr::Unmapped, 0, 0, false},
        {V4::One, Addr::X, 0, kAllX, false},
        {V4::One, Addr::Ram, kRamWord, 0, true},
        {V4::One, Addr::Rom, kRomWord, 0, true},
        {V4::One, Addr::Periph, 0, 0, false},
        {V4::One, Addr::Unmapped, 0xffff, 0, false},
        {V4::X, Addr::X, 0, kAllX, false},
        {V4::X, Addr::Ram, 0, kAllX, false},
        {V4::X, Addr::Rom, 0, kAllX, false},
        {V4::X, Addr::Periph, 0, kAllX, false},
        {V4::X, Addr::Unmapped, 0, kAllX, false},
    };
    for (const Row &r : spec) {
        // Reset asserted: the edge commits nothing.
        Access a{V4::Zero, r.en, V4::One, r.addr};
        forEachKernel(a, [&](const Outcome &o, const std::string &who) {
            SCOPED_TRACE(who + ": en " + v4Name(r.en) + " addr class " +
                         std::to_string(int(r.addr)));
            EXPECT_EQ(o.data, Word16(r.value, r.xmask));
            EXPECT_EQ(o.billed, r.billed);
            EXPECT_EQ(o.commit, ".");
        });
    }
}

TEST(CpuBus, CommitRuleMatchesTheSpec)
{
    struct Row {
        V4 rstn, wr;
        /** Effect per address class, in Addr order: X, RAM, ROM,
         *  kDone, peripheral, unmapped. */
        const char *effect[6];
    };
    // No write unless rstn is 1; an X write enable or X address is an
    // X-store fault; RAM is written, kDone halts, the rest is dropped.
    const Row spec[] = {
        {V4::Zero, V4::Zero, {".", ".", ".", ".", ".", "."}},
        {V4::Zero, V4::One, {".", ".", ".", ".", ".", "."}},
        {V4::Zero, V4::X, {".", ".", ".", ".", ".", "."}},
        {V4::One, V4::Zero, {".", ".", ".", ".", ".", "."}},
        {V4::One, V4::One, {"F", "W", ".", "H", ".", "."}},
        {V4::One, V4::X, {"F", "F", "F", "F", "F", "F"}},
        {V4::X, V4::Zero, {".", ".", ".", ".", ".", "."}},
        {V4::X, V4::One, {".", ".", ".", ".", ".", "."}},
        {V4::X, V4::X, {".", ".", ".", ".", ".", "."}},
    };
    for (const Row &r : spec) {
        for (int c = 0; c < 6; ++c) {
            // Enable 0: the hook reads 0 and bills nothing.
            Access a{r.rstn, V4::Zero, r.wr, Addr(c)};
            forEachKernel(a, [&](const Outcome &o, const std::string &who) {
                SCOPED_TRACE(who + ": rstn " + v4Name(r.rstn) + " wr " +
                             v4Name(r.wr) + " addr class " +
                             std::to_string(c));
                EXPECT_EQ(o.commit, r.effect[c]);
                EXPECT_EQ(o.data, Word16::known(0));
                EXPECT_FALSE(o.billed);
            });
        }
    }
}

} // namespace
} // namespace ulpeak
