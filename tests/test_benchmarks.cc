/**
 * @file
 * Benchmark-suite tests, including the repository's central safety
 * property: for every benchmark and random input set, the X-based
 * peak power and NPE bounds dominate the concrete observation
 * (parameterized across the full suite -- the Section 3.4 validation
 * as a regression test).
 *
 * Functional correctness of the kernels is checked against C++
 * reference models on the ISS.
 */

#include <gtest/gtest.h>

#include "bench430/benchmarks.hh"
#include "isa/iss.hh"
#include "peak/peak_analysis.hh"
#include "power/analysis.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

using bench430::Benchmark;
using bench430::kInputAddr;
using bench430::kOutputAddr;

isa::Iss
runIss(const Benchmark &b, const baseline::InputSet &in)
{
    isa::Iss iss;
    iss.loadImage(b.assembleImage());
    for (auto &[addr, words] : in.ram)
        for (size_t i = 0; i < words.size(); ++i)
            iss.writeMem(addr + uint32_t(i) * 2, words[i]);
    iss.setPortIn(in.portIn);
    iss.reset();
    EXPECT_TRUE(iss.run(200000)) << b.name << ": " << iss.haltReason();
    return iss;
}

std::vector<uint16_t>
inputWords(const baseline::InputSet &in)
{
    return in.ram.empty() ? std::vector<uint16_t>{} : in.ram[0].second;
}

TEST(BenchmarkSuite, FourteenBenchmarksInPaperOrder)
{
    const auto &all = bench430::allBenchmarks();
    ASSERT_EQ(all.size(), 14u);
    EXPECT_EQ(all[0].name, "autoCorr");
    EXPECT_EQ(all[13].name, "Viterbi");
    EXPECT_THROW(bench430::benchmarkByName("nope"), std::out_of_range);
}

TEST(BenchmarkSuite, AllAssembleAndHaltOnIss)
{
    fuzz::Rng rng(3);
    for (const auto &b : bench430::allBenchmarks()) {
        isa::Iss iss = runIss(b, b.makeInput(rng));
        EXPECT_TRUE(iss.halted()) << b.name;
        EXPECT_GT(iss.cycles(), 20u) << b.name;
    }
}

TEST(BenchmarkReference, MultAccumulatesProducts)
{
    const auto &b = bench430::benchmarkByName("mult");
    fuzz::Rng rng(17);
    auto in = b.makeInput(rng);
    isa::Iss iss = runIss(b, in);
    auto w = inputWords(in);
    uint32_t lo32 = 0;
    uint64_t sum = 0;
    for (int i = 0; i < 8; ++i)
        sum += uint32_t(w[2 * i]) * uint32_t(w[2 * i + 1]);
    lo32 = uint32_t(sum); // 32-bit accumulate with carry
    EXPECT_EQ(iss.readMem(kOutputAddr), uint16_t(lo32));
    EXPECT_EQ(iss.readMem(kOutputAddr + 2), uint16_t(lo32 >> 16));
}

TEST(BenchmarkReference, BinSearchFindsAndMisses)
{
    const auto &b = bench430::benchmarkByName("binSearch");
    static const uint16_t table[16] = {3,   17,  29,  44,  58,  71,
                                       89,  104, 120, 137, 155, 170,
                                       188, 203, 221, 240};
    for (uint16_t key : {uint16_t(89), uint16_t(3), uint16_t(240),
                         uint16_t(90), uint16_t(0)}) {
        baseline::InputSet in;
        in.ram.emplace_back(kInputAddr, std::vector<uint16_t>{key});
        isa::Iss iss = runIss(b, in);
        int expect = -1;
        for (int i = 0; i < 16; ++i)
            if (table[i] == key)
                expect = i;
        if (expect >= 0)
            EXPECT_EQ(iss.readMem(kOutputAddr), uint16_t(expect))
                << key;
        else
            EXPECT_EQ(iss.readMem(kOutputAddr), 0xffff) << key;
    }
}

TEST(BenchmarkReference, THoldCountsAboveThreshold)
{
    const auto &b = bench430::benchmarkByName("tHold");
    fuzz::Rng rng(23);
    auto in = b.makeInput(rng);
    isa::Iss iss = runIss(b, in);
    unsigned expect = 0;
    for (uint16_t w : inputWords(in))
        expect += w >= 0x0400;
    EXPECT_EQ(iss.readMem(kOutputAddr), expect);
}

TEST(BenchmarkReference, DivQuotientRemainder)
{
    const auto &b = bench430::benchmarkByName("div");
    for (uint16_t raw : {uint16_t(0), uint16_t(10), uint16_t(0xabcd),
                         uint16_t(255)}) {
        baseline::InputSet in;
        in.ram.emplace_back(kInputAddr, std::vector<uint16_t>{raw});
        isa::Iss iss = runIss(b, in);
        uint16_t dividend = raw & 0x00ff;
        EXPECT_EQ(iss.readMem(kOutputAddr), dividend / 11) << raw;
        EXPECT_EQ(iss.readMem(kOutputAddr + 2), dividend % 11) << raw;
    }
}

TEST(BenchmarkReference, InSortSorts)
{
    const auto &b = bench430::benchmarkByName("inSort");
    fuzz::Rng rng(31);
    auto in = b.makeInput(rng);
    isa::Iss iss = runIss(b, in);
    auto w = inputWords(in);
    std::sort(w.begin(), w.end());
    for (size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(iss.readMem(kInputAddr + uint32_t(i) * 2), w[i])
            << i;
}

TEST(BenchmarkReference, IntAvgMean)
{
    const auto &b = bench430::benchmarkByName("intAVG");
    fuzz::Rng rng(37);
    auto in = b.makeInput(rng);
    isa::Iss iss = runIss(b, in);
    uint16_t sum = 0;
    for (uint16_t w : inputWords(in))
        sum = uint16_t(sum + w);
    // Three arithmetic right shifts.
    int16_t s = int16_t(sum);
    s = int16_t(s >> 3);
    EXPECT_EQ(iss.readMem(kOutputAddr), uint16_t(s));
}

TEST(BenchmarkReference, RleRoundTrips)
{
    const auto &b = bench430::benchmarkByName("rle");
    baseline::InputSet in;
    in.ram.emplace_back(kInputAddr,
                        std::vector<uint16_t>{2, 2, 2, 1, 1, 3, 3, 3});
    isa::Iss iss = runIss(b, in);
    // Expect (2,3), (1,2), (3,3).
    EXPECT_EQ(iss.readMem(kOutputAddr + 0), 2);
    EXPECT_EQ(iss.readMem(kOutputAddr + 2), 3);
    EXPECT_EQ(iss.readMem(kOutputAddr + 4), 1);
    EXPECT_EQ(iss.readMem(kOutputAddr + 6), 2);
    EXPECT_EQ(iss.readMem(kOutputAddr + 8), 3);
    EXPECT_EQ(iss.readMem(kOutputAddr + 10), 3);
}

TEST(BenchmarkReference, AutoCorrLagZeroIsEnergy)
{
    const auto &b = bench430::benchmarkByName("autoCorr");
    fuzz::Rng rng(41);
    auto in = b.makeInput(rng);
    isa::Iss iss = runIss(b, in);
    auto w = inputWords(in);
    for (int k = 0; k < 4; ++k) {
        uint16_t expect = 0;
        for (int i = 0; i + k < 8; ++i)
            expect = uint16_t(expect + uint16_t(w[i] * w[i + k]));
        EXPECT_EQ(iss.readMem(kOutputAddr + uint32_t(k) * 2), expect)
            << "lag " << k;
    }
}

TEST(BenchmarkReference, ConvEnKnownVector)
{
    // All-zero data bits -> all-zero parities.
    const auto &b = bench430::benchmarkByName("ConvEn");
    baseline::InputSet zero;
    zero.ram.emplace_back(kInputAddr, std::vector<uint16_t>{0});
    isa::Iss iss = runIss(b, zero);
    EXPECT_EQ(iss.readMem(kOutputAddr), 0);
    // A one-bit input produces a nonzero, deterministic code word.
    baseline::InputSet one;
    one.ram.emplace_back(kInputAddr, std::vector<uint16_t>{1});
    isa::Iss iss2 = runIss(b, one);
    EXPECT_NE(iss2.readMem(kOutputAddr), 0);
}

TEST(BenchmarkReference, FftDcInput)
{
    // DC input c: X[0] = 8c (output slot 0), all other bins zero --
    // exact in Q8 because every butterfly multiplies zeros or uses
    // W^0 (DESIGN.md: DIF without output reordering).
    const auto &b = bench430::benchmarkByName("FFT");
    baseline::InputSet in;
    in.ram.emplace_back(
        kInputAddr, std::vector<uint16_t>{7, 7, 7, 7, 7, 7, 7, 7});
    isa::Iss iss = runIss(b, in);
    EXPECT_EQ(iss.readMem(kOutputAddr), 56);
    for (uint32_t i = 1; i < 8; ++i)
        EXPECT_EQ(iss.readMem(kOutputAddr + i * 2), 0) << i;
}

TEST(BenchmarkReference, PiSteadyStateZeroOutput)
{
    // sensor == setpoint -> zero error, zero actuation.
    const auto &b = bench430::benchmarkByName("PI");
    baseline::InputSet in;
    in.portIn = 0x0200;
    isa::Iss iss = runIss(b, in);
    EXPECT_EQ(iss.portOut(), 0);
}

TEST(BenchmarkReference, ViterbiAllZeroSymbolsDeterministic)
{
    const auto &b = bench430::benchmarkByName("Viterbi");
    baseline::InputSet in;
    in.ram.emplace_back(kInputAddr,
                        std::vector<uint16_t>{0, 0, 0, 0, 0, 0});
    isa::Iss a = runIss(b, in);
    isa::Iss c = runIss(b, in);
    // Deterministic metrics; state-0 metric stays the minimum on an
    // all-zero (uncorrupted) sequence.
    uint16_t m0 = a.readMem(kOutputAddr + 12);
    EXPECT_EQ(m0, c.readMem(kOutputAddr + 12));
    for (uint32_t s = 1; s < 4; ++s)
        EXPECT_LE(m0, a.readMem(kOutputAddr + 12 + s * 2)) << s;
}

TEST(BenchmarkReference, Tea8DeterministicAndKeyed)
{
    const auto &b = bench430::benchmarkByName("tea8");
    baseline::InputSet in;
    in.ram.emplace_back(kInputAddr, std::vector<uint16_t>{
                                        0x1234, 0x5678, 1, 2, 3, 4});
    isa::Iss a = runIss(b, in);
    isa::Iss c = runIss(b, in);
    EXPECT_EQ(a.readMem(kOutputAddr), c.readMem(kOutputAddr));
    // Changing the key changes the ciphertext.
    baseline::InputSet in2 = in;
    in2.ram[0].second[2] = 9;
    isa::Iss d = runIss(b, in2);
    EXPECT_NE(a.readMem(kOutputAddr), d.readMem(kOutputAddr));
    // Ciphertext differs from plaintext.
    EXPECT_NE(a.readMem(kOutputAddr), 0x1234);
}

TEST(BenchmarkReference, IntFiltFir)
{
    const auto &b = bench430::benchmarkByName("intFilt");
    fuzz::Rng rng(43);
    auto in = b.makeInput(rng);
    isa::Iss iss = runIss(b, in);
    auto w = inputWords(in);
    static const uint16_t coef[4] = {3, 11, 11, 3};
    for (int n = 0; n < 5; ++n) {
        uint16_t expect = 0;
        for (int j = 0; j < 4; ++j)
            expect = uint16_t(expect + uint16_t(w[n + j] * coef[j]));
        EXPECT_EQ(iss.readMem(kOutputAddr + uint32_t(n) * 2), expect)
            << "tap " << n;
    }
}

/**
 * The central property test (Section 3.4 validation as a regression):
 * for every benchmark, the X-based requirements dominate concrete
 * observations from random inputs, and the gate-level run agrees with
 * the ISS on the output region.
 */
class BenchmarkProperty : public ::testing::TestWithParam<int> {};

TEST_P(BenchmarkProperty, XBoundDominatesConcreteRuns)
{
    const Benchmark &b =
        bench430::allBenchmarks()[size_t(GetParam())];
    isa::Image img = b.assembleImage();
    msp::System &sys = test::sharedSystem();

    peak::Options opts;
    peak::Report x = peak::analyze(sys, img, opts);
    ASSERT_TRUE(x.ok) << b.name << ": " << x.error;

    power::PowerContext ctx(sys.netlist(), opts.freqHz);
    for (const auto &in : b.makeInputs(3, 1234)) {
        power::ConcreteRunOptions copts;
        copts.recordTrace = false;
        copts.recordActivity = true;
        copts.portIn = in.portIn;
        auto run = power::runConcrete(sys, img, ctx, copts, in.ram);
        ASSERT_TRUE(run.halted) << b.name;
        EXPECT_GE(x.peakPowerW, run.stats.peakW) << b.name;
        EXPECT_GE(x.npeJPerCycle, run.npeJPerCycle() * 0.999)
            << b.name;
        // Concrete cycles never exceed the max-path bound.
        EXPECT_LE(run.stats.cycles, x.maxPathCycles + 2) << b.name;

        // Gate-level run matches the ISS architecturally.
        isa::Iss iss = runIss(b, in);
        for (uint32_t a = kOutputAddr; a < kOutputAddr + 0x20; a += 2) {
            Word16 w = sys.memory().read(a);
            if (w.isFullyKnown())
                EXPECT_EQ(w.value, iss.readMem(a))
                    << b.name << " @" << std::hex << a;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkProperty,
                         ::testing::Range(0, 14));

/** Full-sweep-mode System shared across the equivalence tests (the
 * event-mode one is test::sharedSystem()). */
msp::System &
fullSweepSystem()
{
    static msp::System system(CellLibrary::tsmc65Like());
    return system;
}

class KernelEquivalence : public ::testing::TestWithParam<int> {};

/**
 * Acceptance property of the flat-kernel refactor: the event-driven
 * kernel reproduces the full sweep bit for bit -- peak power, peak
 * energy and NPE on every bench430 program...
 */
TEST_P(KernelEquivalence, AnalyzeReportsBitIdentical)
{
    const Benchmark &b =
        bench430::allBenchmarks()[size_t(GetParam())];
    isa::Image img = b.assembleImage();
    msp::System &sys = test::sharedSystem();

    peak::Options ev;
    ev.evalMode = EvalMode::EventDriven;
    peak::Options fs;
    fs.evalMode = EvalMode::FullSweep;
    peak::Report re = peak::analyze(sys, img, ev);
    peak::Report rf = peak::analyze(sys, img, fs);
    ASSERT_TRUE(re.ok) << b.name << ": " << re.error;
    ASSERT_TRUE(rf.ok) << b.name << ": " << rf.error;
    EXPECT_EQ(re.peakPowerW, rf.peakPowerW) << b.name;
    EXPECT_EQ(re.peakEnergyJ, rf.peakEnergyJ) << b.name;
    EXPECT_EQ(re.npeJPerCycle, rf.npeJPerCycle) << b.name;
    EXPECT_EQ(re.maxPathCycles, rf.maxPathCycles) << b.name;
    EXPECT_EQ(re.totalCycles, rf.totalCycles) << b.name;
    EXPECT_EQ(re.pathsExplored, rf.pathsExplored) << b.name;
    EXPECT_EQ(re.dedupMerges, rf.dedupMerges) << b.name;
    EXPECT_EQ(re.flatTraceW, rf.flatTraceW) << b.name;
}

/**
 * ...and, cycle for cycle, identical actual energy, bound energy and
 * activity sets along the symbolic (all-X input) path prefix.
 */
TEST_P(KernelEquivalence, PerCycleLockstepIdentical)
{
    const Benchmark &b =
        bench430::allBenchmarks()[size_t(GetParam())];
    isa::Image img = b.assembleImage();
    msp::System &sysEv = test::sharedSystem();
    msp::System &sysFs = fullSweepSystem();
    ASSERT_EQ(sysEv.netlist().numGates(), sysFs.netlist().numGates());

    for (msp::System *s : {&sysEv, &sysFs}) {
        s->memory().reset();
        s->loadImage(img);
        s->clearHalted();
    }
    Simulator ev(sysEv.netlist(), EvalMode::EventDriven);
    Simulator fs(sysFs.netlist(), EvalMode::FullSweep);
    sysEv.attach(ev);
    sysFs.attach(fs);
    sysEv.reset(ev);
    sysFs.reset(fs);

    for (int c = 0; c < 250 && !sysEv.halted(); ++c) {
        ev.step([&](Simulator &s) {
            sysEv.driveCycle(s, Word16::allX());
        });
        fs.step([&](Simulator &s) {
            sysFs.driveCycle(s, Word16::allX());
        });
        ASSERT_EQ(ev.actualEnergyJ(), fs.actualEnergyJ())
            << b.name << " cycle " << c;
        ASSERT_EQ(ev.boundEnergyJ(), fs.boundEnergyJ())
            << b.name << " cycle " << c;
        ASSERT_EQ(ev.activeBits(), fs.activeBits())
            << b.name << " cycle " << c;
        ASSERT_EQ(sysEv.halted(), sysFs.halted()) << b.name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, KernelEquivalence,
                         ::testing::Range(0, 14));

} // namespace
} // namespace ulpeak
