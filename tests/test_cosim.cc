/**
 * @file
 * Tests of the lockstep co-simulation checker (src/cosim): random
 * generated programs must run divergence-free, and -- the checker
 * checking itself -- deliberately injected semantic bugs must be
 * caught with a report naming the first divergent cycle and
 * instruction -- and the cosim::Checker's rules, driven directly with
 * scripted gate-side readings, reach every divergence kind.
 *
 * Suites named *Long* are excluded from the quick ctest label and run
 * under `ctest -L long` (see CMakeLists.txt and docs/testing.md).
 */

#include <gtest/gtest.h>

#include <functional>

#include "cosim/cosim.hh"
#include "fuzz/program_gen.hh"
#include "fuzz/rng.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

cosim::Result
runSeed(uint64_t seed, unsigned instructions = 24)
{
    fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 0));
    fuzz::ProgramGenOptions gen;
    gen.instructions = instructions;
    fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
    SCOPED_TRACE(prog.source);
    cosim::Options opts;
    opts.portIn = rng.word();
    return cosim::run(test::sharedSystem(), isa::assemble(prog.source),
                      opts);
}

class CosimFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CosimFuzz, RandomProgramLockstepsDivergenceFree)
{
    cosim::Result r = runSeed(GetParam());
    EXPECT_TRUE(r.ok) << r.report();
    EXPECT_GT(r.instructionsRetired, 30u) << "prologue alone is ~38";
    EXPECT_EQ(r.gateCycles, r.issCycles);
    EXPECT_EQ(r.divergence.kind, cosim::Divergence::Kind::None);
    EXPECT_TRUE(r.report().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CosimFuzz, ::testing::Range(uint64_t(0), uint64_t(8)));

class CosimFuzzLong : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CosimFuzzLong, RandomProgramLockstepsDivergenceFree)
{
    for (uint64_t s = 0; s < 25; ++s) {
        cosim::Result r = runSeed(GetParam() * 1000 + s, 32);
        EXPECT_TRUE(r.ok) << "seed " << GetParam() * 1000 + s << "\n"
                          << r.report();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CosimFuzzLong,
                         ::testing::Range(uint64_t(1), uint64_t(7)));

/** Two images identical except for one instruction: the tampered one
 *  goes to the ISS, so the gate core plays the reference. */
struct BugPair {
    isa::Image gate;
    isa::Image iss;
};

BugPair
makeBugPair(const std::string &good_line, const std::string &bad_line)
{
    std::string head = R"(
        mov #1234, r4
        mov #40, r5
        add r5, r4
)";
    std::string tail = R"(
        mov r4, &0x0300
        add r5, r4
        xor r4, r5
)";
    BugPair p;
    p.gate = isa::assemble(
        test::wrapProgram(head + "        " + good_line + "\n" + tail));
    p.iss = isa::assemble(
        test::wrapProgram(head + "        " + bad_line + "\n" + tail));
    return p;
}

TEST(CosimInjectedBug, RegisterBugCaughtAndLocated)
{
    BugPair p = makeBugPair("add #1, r4", "add #2, r4");
    cosim::Result r =
        cosim::run(test::sharedSystem(), p.gate, p.iss, {});
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.divergence.kind, cosim::Divergence::Kind::Register);
    // The divergence is visible at the boundary following the
    // tampered instruction.
    EXPECT_GT(r.divergence.cycle, 0u);
    EXPECT_GT(r.divergence.instrIndex, 4u);
    EXPECT_NE(r.divergence.detail.find("r4"), std::string::npos)
        << r.report();
    // The report names kind, location and carries a disassembly
    // window with the faulting instruction marked.
    std::string rep = r.report();
    EXPECT_NE(rep.find("register"), std::string::npos);
    EXPECT_NE(rep.find("gate cycle"), std::string::npos);
    EXPECT_NE(rep.find("> 0x"), std::string::npos);
    // The window is disassembled from the (tampered) ISS image.
    EXPECT_NE(rep.find("add #2, r4"), std::string::npos) << rep;
}

TEST(CosimInjectedBug, MemWriteBugCaught)
{
    BugPair p = makeBugPair("mov #5, &0x0310", "mov #6, &0x0310");
    cosim::Result r =
        cosim::run(test::sharedSystem(), p.gate, p.iss, {});
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.divergence.kind, cosim::Divergence::Kind::MemWrite);
    EXPECT_NE(r.divergence.detail.find("0x0310"), std::string::npos)
        << r.report();
}

TEST(CosimInjectedBug, BranchBugCaught)
{
    // Z is set by `mov #0 -> tst`: jeq taken, jne not -- the two
    // sides part ways at the branch and the checker reports the PC
    // split.
    std::string head = "        mov #0, r4\n        tst r4\n";
    std::string tail = "        mov #7, r6\nskip_t:\n        nop\n";
    isa::Image gate = isa::assemble(
        test::wrapProgram(head + "        jeq skip_t\n" + tail));
    isa::Image iss = isa::assemble(
        test::wrapProgram(head + "        jne skip_t\n" + tail));
    cosim::Result r = cosim::run(test::sharedSystem(), gate, iss, {});
    ASSERT_FALSE(r.ok);
    EXPECT_EQ(r.divergence.kind, cosim::Divergence::Kind::Pc)
        << r.report();
    EXPECT_NE(r.divergence.detail.find("next pc"), std::string::npos);
}

TEST(CosimInjectedBug, CycleScheduleBugCaught)
{
    // Same architectural result, different cycle count: indexed vs
    // register addressing of the same value. Registers all match, so
    // only the end-of-run cycle comparison can catch it.
    std::string head = "        mov #21, r4\n        mov r4, &0x0300\n";
    isa::Image gate = isa::assemble(
        test::wrapProgram(head + "        mov &0x0300, r5\n"));
    isa::Image iss = isa::assemble(
        test::wrapProgram(head + "        mov r4, r5\n"));
    cosim::Result r = cosim::run(test::sharedSystem(), gate, iss, {});
    ASSERT_FALSE(r.ok);
    // The first observable difference may be the cycle count or an
    // intermediate fetch-address mismatch, depending on alignment;
    // either way the run must not pass.
    EXPECT_NE(r.divergence.kind, cosim::Divergence::Kind::None);
}

TEST(CosimChecker, MatchedProgramRunsCleanAndCountsMatch)
{
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov #6, r4
        mov #0, r5
c_loop:
        add r4, r5
        push r4
        pop r6
        dec r4
        jnz c_loop
        mov r5, &0x0300
        mov &0x0300, r7
    )"));
    cosim::Result r = cosim::run(test::sharedSystem(), img, {});
    ASSERT_TRUE(r.ok) << r.report();
    EXPECT_EQ(r.gateCycles, r.issCycles);
    EXPECT_GT(r.instructionsRetired, 30u);
}

TEST(CosimChecker, PortInputFlowsThroughBothModels)
{
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov &0x0020, r4
        add #3, r4
        mov r4, &0x0300
        mov r4, &0x0022
    )"));
    cosim::Options opts;
    opts.portIn = 0xbeef;
    cosim::Result r = cosim::run(test::sharedSystem(), img, opts);
    ASSERT_TRUE(r.ok) << r.report();
}

/// @name The checker's rules on scripted readings
/// @{

/** One scripted gate-side reading, fed to the rule of its kind. */
struct Event {
    enum What { Edge, Fetch, XStore, Timeout, Halt } what;
    uint64_t cycle = 0;
    cosim::Registers regs{}; ///< Fetch
    Word16 addr{}, data{};   ///< Edge (an enabled store)
};

/** The gate side of a perfect core for @p image: a fetch per
 *  instruction reading the ISS's own state, its stores at the edges
 *  after it, and a halt on the ISS's final cycle. */
std::vector<Event>
cleanScript(const isa::Image &image)
{
    isa::Iss ref;
    ref.loadImage(image);
    ref.reset();
    std::vector<std::pair<uint32_t, uint16_t>> stores;
    ref.setWriteObserver([&stores](uint32_t a, uint16_t v) {
        stores.push_back({a, v});
    });
    std::vector<Event> script;
    for (bool running = true; running;) {
        Event f{Event::Fetch, ref.cycles()};
        for (unsigned r = 0; r < 16; ++r)
            f.regs[r] = Word16::known(ref.reg(r));
        script.push_back(f);
        stores.clear();
        running = ref.step();
        for (auto [a, v] : stores)
            script.push_back({Event::Edge, ref.cycles(), {},
                              Word16::known(uint16_t(a)),
                              Word16::known(v)});
    }
    script.push_back({Event::Halt, ref.cycles()});
    return script;
}

/** Feed @p script to a fresh checker until a rule ends the run. */
cosim::Result
play(const isa::Image &image, const std::vector<Event> &script,
     const Memory &ram)
{
    cosim::Checker check(image, 0);
    for (const Event &e : script) {
        if (e.what == Event::Edge) {
            check.edge(V4::One, e.addr.isFullyKnown() ? V4::One : V4::X,
                       [&e] { return std::pair(e.addr, e.data); });
            continue;
        }
        if (e.what == Event::Fetch && check.fetch(e.cycle, e.regs))
            continue;
        if (e.what == Event::XStore)
            check.xStore(e.cycle);
        else if (e.what == Event::Timeout)
            check.timeout(e.cycle);
        else if (e.what == Event::Halt)
            check.halt(e.cycle, ram);
        break;
    }
    cosim::Result r = check.result();
    check.explain(r.divergence, ram, 2);
    return r;
}

TEST(CosimChecker, ScriptedReadingsReachEveryDivergenceKind)
{
    using K = cosim::Divergence::Kind;
    const isa::Image tiny = isa::assemble(R"(
        .org 0xf800
start:
        mov #5, r15
        mov r15, &0x0200
        mov #1, &0x01f0
        .org 0xfffe
        .word start
    )");
    // The ISS traps on its first instruction (0x0000 is no MSP430
    // opcode).
    const isa::Image trap = isa::assemble(R"(
        .org 0xf800
start:
        .word 0x0000
        .org 0xfffe
        .word start
    )");
    const std::vector<Event> clean = cleanScript(tiny);
    // fetch 0 (cycle c0), fetch 1, store [0x0200]=5, fetch 2,
    // store [0x01f0]=1, halt (cycle hc).
    ASSERT_EQ(clean.size(), 6u);
    const uint64_t c0 = clean[0].cycle, c1 = clean[1].cycle;
    const uint64_t c2 = clean[3].cycle;
    const uint64_t hc = clean[5].cycle;
    Memory ram(isa::SystemMap::kRamBase, isa::SystemMap::kRamSize,
               isa::SystemMap::kRomBase);
    ram.write(0x0200, Word16::known(5));

    ASSERT_TRUE(play(tiny, clean, ram).ok);
    {
        // An X register is not yet initialized: never compared.
        std::vector<Event> s = clean;
        s[1].regs[15] = Word16::allX();
        EXPECT_TRUE(play(tiny, s, ram).ok);
    }

    struct Row {
        const char *what;
        std::function<void(std::vector<Event> &, Memory &)> perturb;
        K kind;
        uint64_t cycle;
        uint32_t pc;
        uint64_t instrIndex;
        const char *detail;
        bool trapImage = false;
    };
    const Row rows[] = {
        {"fetch address", [](auto &s, auto &) { s[1].regs[0].value = 6; },
         K::Pc, c1, 0xf800, 1, "next pc: gate=0x0006 iss=0xf804"},
        {"r15", [](auto &s, auto &) { s[1].regs[15].value = 6; },
         K::Register, c1, 0xf800, 1, "r15: gate=0x0006 iss=0x0005"},
        {"store data", [](auto &s, auto &) { s[2].data.value = 6; },
         K::MemWrite, c2, 0xf804, 2,
         "write 0: gate [0x0200]=0x0006 iss [0x0200]=0x0005"},
        {"final RAM", [](auto &, Memory &m) {
             m.write(0x0200, Word16::known(4));
         },
         K::FinalMemory, hc, 0xf808, 3, "[0x0200]: gate=0x0004 iss=0x0005"},
        {"cycle count", [](auto &s, auto &) { ++s[5].cycle; }, K::Cycles,
         hc + 1, 0xf808, 3, "cycles: gate="},
        {"X pc", [](auto &s, auto &) { s[1].regs[0] = Word16::allX(); },
         K::GateX, c1, 0xf800, 1, "(has X bits)"},
        {"X store", [c1](auto &s, auto &) {
             s.insert(s.begin() + 1, Event{Event::XStore, c1 - 1});
         },
         K::GateX, c1 - 1, 0xf800, 1, "store with unknown address"},
        {"no halt", [c2](auto &s, auto &) {
             s.resize(4);
             s.push_back({Event::Timeout, c2 + 40});
         },
         K::GateTimeout, c2 + 40, 0xf808, 3, "still running after"},
        {"ISS trap", [](auto &s, auto &) { s.resize(1); }, K::IssTrap, c0,
         0xf800, 1, "iss: invalid instruction", true},
        {"gate runs past the ISS halt", [hc](auto &s, auto &) {
             Event f = s[3];
             f.cycle = hc;
             f.regs[0].value = 0xf80c;
             s[5] = f;
         },
         K::Halt, hc, 0xf80c, 3, "iss halted (done) but gate core"},
        {"gate halts before the ISS", [](auto &s, auto &) {
             s.resize(1);
             s.push_back({Event::Halt, s[0].cycle + 1});
         },
         K::Halt, c0 + 1, 0xf800, 1, "gate core halted; iss still running"},
    };
    bool reached[10] = {};
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        std::vector<Event> s = clean;
        Memory m = ram;
        row.perturb(s, m);
        if (row.trapImage)
            s[0].regs = cleanScript(trap)[0].regs;
        cosim::Result r = play(row.trapImage ? trap : tiny, s, m);
        ASSERT_FALSE(r.ok);
        EXPECT_EQ(r.divergence.kind, row.kind)
            << cosim::divergenceKindName(r.divergence.kind);
        EXPECT_EQ(r.divergence.cycle, row.cycle);
        EXPECT_EQ(r.gateCycles, row.cycle);
        EXPECT_EQ(r.divergence.pc, row.pc);
        EXPECT_EQ(r.divergence.instrIndex, row.instrIndex);
        EXPECT_NE(r.divergence.detail.find(row.detail), std::string::npos)
            << r.report();
        EXPECT_NE(r.divergence.disasm.find("> 0x"), std::string::npos);
        reached[unsigned(r.divergence.kind)] = true;
    }
    for (unsigned k = 1; k < 10; ++k)
        EXPECT_TRUE(reached[k]) << cosim::divergenceKindName(K(k));
}

/// @}

} // namespace
} // namespace ulpeak
