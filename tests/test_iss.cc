/**
 * @file
 * Golden-model (ISS) tests: arithmetic/flag semantics, addressing
 * modes, stack operations, the hardware multiplier, halt and cycle
 * accounting.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/iss.hh"

namespace ulpeak {
namespace isa {
namespace {

Iss
runProgram(const std::string &body, uint64_t max_instrs = 10000)
{
    std::string src = ".org 0xf800\nstart:\n" + body + R"(
        mov #1, &0x01f0
        .org 0xfffe
        .word start
    )";
    Iss iss;
    iss.loadImage(assemble(src));
    iss.reset();
    EXPECT_TRUE(iss.run(max_instrs)) << iss.haltReason();
    return iss;
}

TEST(Iss, MovAndArithmetic)
{
    Iss iss = runProgram(R"(
        mov #100, r4
        mov #23, r5
        add r5, r4
        sub #3, r5
    )");
    EXPECT_EQ(iss.reg(4), 123);
    EXPECT_EQ(iss.reg(5), 20);
}

TEST(Iss, CarryAndOverflowFlags)
{
    Iss iss = runProgram(R"(
        mov #0xffff, r4
        add #1, r4          ; -> 0, C=1, Z=1
        mov sr, r6
        mov #0x7fff, r4
        add #1, r4          ; -> 0x8000, V=1, N=1
        mov sr, r7
    )");
    EXPECT_TRUE(iss.reg(6) & (1 << kFlagC));
    EXPECT_TRUE(iss.reg(6) & (1 << kFlagZ));
    EXPECT_TRUE(iss.reg(7) & (1 << kFlagV));
    EXPECT_TRUE(iss.reg(7) & (1 << kFlagN));
    EXPECT_FALSE(iss.reg(7) & (1 << kFlagC));
}

TEST(Iss, SubtractionBorrowSemantics)
{
    Iss iss = runProgram(R"(
        mov #5, r4
        sub #3, r4          ; 2, C=1 (no borrow)
        mov sr, r6
        mov #3, r4
        sub #5, r4          ; -2, C=0 (borrow)
        mov sr, r7
    )");
    EXPECT_EQ(iss.reg(4), 0xfffe);
    EXPECT_TRUE(iss.reg(6) & (1 << kFlagC));
    EXPECT_FALSE(iss.reg(7) & (1 << kFlagC));
}

TEST(Iss, ConditionalJumps)
{
    Iss iss = runProgram(R"(
        mov #3, r4
        mov #0, r5
loop:
        add r4, r5
        dec r4
        jnz loop
    )");
    EXPECT_EQ(iss.reg(5), 6);
    EXPECT_EQ(iss.reg(4), 0);
}

TEST(Iss, SignedComparisons)
{
    Iss iss = runProgram(R"(
        mov #0xfffe, r4     ; -2
        cmp #1, r4          ; -2 < 1 signed
        mov #0, r5
        jge notless
        mov #1, r5
notless:
    )");
    EXPECT_EQ(iss.reg(5), 1);
}

TEST(Iss, MemoryAndAddressingModes)
{
    Iss iss = runProgram(R"(
        mov #0x0300, r4
        mov #0x1111, 0(r4)
        mov #0x2222, 2(r4)
        mov @r4+, r5
        mov @r4, r6
        add 0(r4), r5
        mov #0x0300, r7
        mov r6, &0x0310
    )");
    EXPECT_EQ(iss.reg(5), 0x3333);
    EXPECT_EQ(iss.reg(6), 0x2222);
    EXPECT_EQ(iss.reg(4), 0x0302);
    EXPECT_EQ(iss.readMem(0x0310), 0x2222);
}

TEST(Iss, StackPushPopCallRet)
{
    Iss iss = runProgram(R"(
        mov #0x0a00, sp
        mov #0x1234, r4
        push r4
        mov #0, r4
        pop r5
        call #func
        jmp after
func:
        mov #77, r6
        ret
after:
        mov sp, r7
    )");
    EXPECT_EQ(iss.reg(5), 0x1234);
    EXPECT_EQ(iss.reg(6), 77);
    EXPECT_EQ(iss.reg(7), 0x0a00);
}

TEST(Iss, ShiftsAndByteOps)
{
    Iss iss = runProgram(R"(
        mov #0x8003, r4
        rra r4              ; arithmetic: 0xc001
        mov #0x0001, r5
        setc
        rrc r5              ; 0x8000, C=1
        mov sr, r8
        mov #0x1234, r6
        swpb r6             ; 0x3412
        mov #0x0080, r7
        sxt r7              ; 0xff80
    )");
    EXPECT_EQ(iss.reg(4), 0xc001);
    EXPECT_EQ(iss.reg(5), 0x8000);
    EXPECT_TRUE(iss.reg(8) & (1 << kFlagC));
    EXPECT_EQ(iss.reg(6), 0x3412);
    EXPECT_EQ(iss.reg(7), 0xff80);
}

TEST(Iss, HardwareMultiplier)
{
    Iss iss = runProgram(R"(
        mov #1234, &0x0130  ; MPY
        mov #5678, &0x0138  ; OP2 triggers
        mov &0x013a, r4     ; RESLO
        mov &0x013c, r5     ; RESHI
    )");
    uint32_t product = 1234u * 5678u;
    EXPECT_EQ(iss.reg(4), uint16_t(product));
    EXPECT_EQ(iss.reg(5), uint16_t(product >> 16));
}

TEST(Iss, WatchdogPasswordProtected)
{
    Iss iss = runProgram(R"(
        mov #0x5a80, &0x0120
        mov &0x0120, r4     ; reads 0x6980
        mov #0x1280, &0x0120 ; wrong password, ignored
        mov &0x0120, r5
    )");
    EXPECT_EQ(iss.reg(4), 0x6980);
    EXPECT_EQ(iss.reg(5), 0x6980);
}

TEST(Iss, PortInOut)
{
    Iss iss;
    iss.loadImage(assemble(R"(
        .org 0xf800
start:
        mov &0x0020, r4
        mov r4, &0x0022
        mov #1, &0x01f0
        .org 0xfffe
        .word start
    )"));
    iss.setPortIn(0xbeef);
    iss.reset();
    EXPECT_TRUE(iss.run(100));
    EXPECT_EQ(iss.reg(4), 0xbeef);
    EXPECT_EQ(iss.portOut(), 0xbeef);
}

TEST(Iss, CycleAccounting)
{
    Iss iss = runProgram(R"(
        mov r4, r5          ; 2
        mov #300, r5        ; 3
        mov &0x0300, r5     ; 4
        nop                 ; 2
    )");
    // + final mov #1,&DONE (srcConst=1 via CG, dstExt, dstWr) = 4
    // + reset/halt-commit constant = 4
    EXPECT_EQ(iss.cycles(), 8u + 2 + 3 + 4 + 2 + 4);
    EXPECT_EQ(iss.instructions(), 5u);
}

TEST(Iss, ExplicitSrWriteWins)
{
    Iss iss = runProgram(R"(
        mov #0xffff, r4
        add #1, r4          ; sets C and Z
        mov #0, sr          ; explicit clear must win
        mov sr, r5
    )");
    EXPECT_EQ(iss.reg(5), 0);
}

// The taint shadow: a branch on the port or on RAM the image never
// wrote is a fork (forkTarget names the side not taken), a branch on
// known values is not, and the masked key ignores tainted values.
TEST(Iss, TaintMarksTheBranchesTheEngineForksOn)
{
    Image image = assemble(R"(
        .org 0xf800
start:
        mov &0x0020, r4     ; the port
        and #1, r4
b_port: jnz port_set        ; a fork when the port is tainted
        mov #5, r5
        cmp #5, r5
        jeq known           ; known flags: never a fork
known:
        mov &0x0300, r6     ; RAM the image does not load
        tst r6
b_ram:  jz unset            ; a fork
unset:
port_set:
        mov #1, &0x01f0
        .org 0xfffe
        .word start
    )");
    auto forks = [&](bool port_tainted, uint16_t port) {
        Iss iss;
        iss.loadImage(image);
        iss.reset();
        iss.setPortTainted(port_tainted);
        iss.setPortIn(port);
        std::vector<std::pair<uint16_t, int32_t>> out; // (pc, target)
        for (uint16_t pc = iss.pc(); iss.step(); pc = iss.pc())
            if (iss.forkTarget() >= 0)
                out.emplace_back(pc, iss.forkTarget());
        return std::make_pair(out, iss.maskedStateKey());
    };
    const uint16_t jnz = uint16_t(image.symbols.at("b_port"));
    const uint16_t jz = uint16_t(image.symbols.at("b_ram"));
    const int32_t portSet = int32_t(image.symbols.at("port_set"));
    auto [tainted, key0] = forks(true, 0);
    ASSERT_EQ(tainted.size(), 2u);
    EXPECT_EQ(tainted[0], std::make_pair(jnz, portSet));
    EXPECT_EQ(tainted[1].first, jz);
    // The port only ever reads 0 here, so only the RAM branch forks.
    auto [grounded, key1] = forks(false, 0);
    ASSERT_EQ(grounded.size(), 1u);
    EXPECT_EQ(grounded[0].first, jz);
    // Port 2 keeps the concrete path; only the tainted r4 differs.
    auto [other, key2] = forks(true, 2);
    EXPECT_EQ(other, tainted);
    EXPECT_EQ(key2, key0);
    EXPECT_NE(key1, key0); // r4 is known on the grounded run
}

TEST(Iss, InvalidInstructionHalts)
{
    Iss iss;
    iss.loadImage(assemble(R"(
        .org 0xf800
start:
        .word 0xa405        ; DADD: unsupported
        .org 0xfffe
        .word start
    )"));
    iss.reset();
    EXPECT_FALSE(iss.run(10));
    EXPECT_NE(iss.haltReason().find("invalid"), std::string::npos);
}

} // namespace
} // namespace isa
} // namespace ulpeak
