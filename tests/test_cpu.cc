/**
 * @file
 * Gate-level CPU tests: the shared elaborated core, netlist structure,
 * reset, directed programs covering the ISA, memory-mapped
 * peripherals and halt behaviour.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace ulpeak
