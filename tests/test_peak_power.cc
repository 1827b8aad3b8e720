/**
 * @file
 * Tests of the peak-analysis layer: the literal Algorithm 2 even/odd
 * VCD construction and its equivalence to the online per-cycle bound,
 * the execution-tree energy computation, COI reporting, and the
 * Section 3.4 validation utilities.
 */

#include <gtest/gtest.h>

#include "peak/coi.hh"
#include "peak/even_odd.hh"
#include "peak/peak_analysis.hh"
#include "peak/validation.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

TEST(EvenOdd, LiteralAlgorithm2MatchesOnlineBound)
{
    // Record a window of symbolic simulation (X port inputs), build
    // the even- and odd-maximizing VCDs, run activity-based power
    // analysis over both, interleave -- the result must equal the
    // online per-cycle bound, cycle for cycle.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov &0x0020, r4
        mov r4, &0x0130
        mov &0x0020, r5
        mov r5, &0x0138
        mov &0x013a, r6
        add r6, r4
        xor r4, r5
    )"));
    peak::GateTrace trace = peak::recordGateTrace(sys, img, 60);
    ASSERT_GT(trace.values.size(), 30u);

    std::string evenVcd = peak::buildMaxVcd(sys.netlist(), trace, true);
    std::string oddVcd = peak::buildMaxVcd(sys.netlist(), trace, false);
    auto evenE = peak::switchingEnergyFromVcd(sys.netlist(), evenVcd);
    auto oddE = peak::switchingEnergyFromVcd(sys.netlist(), oddVcd);
    auto peakTrace = peak::interleave(evenE, oddE);

    ASSERT_EQ(peakTrace.size(), trace.onlineBoundJ.size());
    for (size_t c = 1; c < peakTrace.size(); ++c) {
        EXPECT_NEAR(peakTrace[c], trace.onlineBoundJ[c],
                    1e-6 * trace.onlineBoundJ[c] + 1e-20)
            << "cycle " << c;
    }
}

TEST(EvenOdd, AssignedVcdsContainNoXOnToggledGates)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img =
        isa::assemble(test::wrapProgram("        mov &0x0020, r4\n"));
    peak::GateTrace trace = peak::recordGateTrace(sys, img, 20);
    std::string vcd = peak::buildMaxVcd(sys.netlist(), trace, true);
    // Spot property: the even VCD has strictly more known values than
    // the raw trace (assignment resolved Xs).
    size_t rawX = 0;
    for (auto &cyc : trace.values)
        for (V4 v : cyc)
            rawX += v == V4::X;
    size_t vcdX = 0;
    for (char ch : vcd)
        vcdX += ch == 'x';
    EXPECT_LT(vcdX, rawX);
}

TEST(EvenOdd, EmptyTraceDegeneratesGracefully)
{
    // Algorithm 2 over a zero-cycle trace: valid (header-only) VCDs,
    // no per-cycle energies, empty interleave -- no special-casing
    // required anywhere in the pipeline.
    msp::System &sys = test::sharedSystem();
    peak::GateTrace trace; // empty
    std::string evenVcd = peak::buildMaxVcd(sys.netlist(), trace, true);
    std::string oddVcd = peak::buildMaxVcd(sys.netlist(), trace, false);
    EXPECT_FALSE(evenVcd.empty()) << "header must still be emitted";
    auto evenE = peak::switchingEnergyFromVcd(sys.netlist(), evenVcd);
    auto oddE = peak::switchingEnergyFromVcd(sys.netlist(), oddVcd);
    EXPECT_TRUE(evenE.empty());
    EXPECT_TRUE(oddE.empty());
    EXPECT_TRUE(peak::interleave(evenE, oddE).empty());
    EXPECT_TRUE(trace.onlineBoundJ.empty());
}

TEST(EvenOdd, SingleCycleTraceIsWellFormed)
{
    // One-cycle window: the pipeline stays well-formed end to end.
    // Cycle 0 of a VCD has no predecessor, so the file-based flow
    // reports zero switching energy there (which is why every
    // trace-equivalence comparison in this file starts at cycle 1);
    // the sizes and the construction itself must still hold.
    msp::System &sys = test::sharedSystem();
    isa::Image img =
        isa::assemble(test::wrapProgram("        mov #1, r4\n"));
    peak::GateTrace trace = peak::recordGateTrace(sys, img, 1);
    ASSERT_EQ(trace.values.size(), 1u);
    ASSERT_EQ(trace.active.size(), 1u);
    ASSERT_EQ(trace.onlineBoundJ.size(), 1u);
    std::string evenVcd = peak::buildMaxVcd(sys.netlist(), trace, true);
    std::string oddVcd = peak::buildMaxVcd(sys.netlist(), trace, false);
    auto peakTrace =
        peak::interleave(peak::switchingEnergyFromVcd(sys.netlist(),
                                                      evenVcd),
                         peak::switchingEnergyFromVcd(sys.netlist(),
                                                      oddVcd));
    ASSERT_EQ(peakTrace.size(), 1u);
    EXPECT_EQ(peakTrace[0], 0.0) << "no transition before cycle 0";
}

TEST(EvenOdd, AllUnknownInputWindowStaysEquivalent)
{
    // The cycles right after reset are the X-heaviest window the
    // flow ever sees (uninitialized registers + X ports): the literal
    // even/odd construction must still equal the online bound there.
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(test::wrapProgram(
        "        mov &0x0020, r4\n        mov &0x0020, r5\n"));
    peak::GateTrace trace = peak::recordGateTrace(sys, img, 6);
    ASSERT_EQ(trace.values.size(), 6u);
    size_t xGates = 0;
    for (V4 v : trace.values[0])
        xGates += v == V4::X;
    EXPECT_GT(xGates, 0u) << "window must actually contain Xs";
    std::string evenVcd = peak::buildMaxVcd(sys.netlist(), trace, true);
    std::string oddVcd = peak::buildMaxVcd(sys.netlist(), trace, false);
    auto peakTrace =
        peak::interleave(peak::switchingEnergyFromVcd(sys.netlist(),
                                                      evenVcd),
                         peak::switchingEnergyFromVcd(sys.netlist(),
                                                      oddVcd));
    ASSERT_EQ(peakTrace.size(), trace.onlineBoundJ.size());
    for (size_t c = 1; c < peakTrace.size(); ++c)
        EXPECT_NEAR(peakTrace[c], trace.onlineBoundJ[c],
                    1e-6 * trace.onlineBoundJ[c] + 1e-20)
            << "cycle " << c;
}

TEST(Coi, ZeroKAndOversizedKEdgeCases)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img =
        isa::assemble(test::wrapProgram("        mov #3, r4\n"));
    sym::SymbolicConfig cfg;
    cfg.recordModuleTrace = true;
    sym::SymbolicEngine eng(sys, cfg);
    auto sr = eng.run(img);
    ASSERT_TRUE(sr.ok) << sr.error;

    auto none = peak::analyzeCoi(sys.netlist(), sr, img, 0);
    EXPECT_TRUE(none.cois.empty());

    // k far beyond the number of distinct peaks: the report is capped
    // by the separation rule, never padded or duplicated.
    auto many = peak::analyzeCoi(sys.netlist(), sr, img, 10000,
                                 /*min_separation=*/8);
    EXPECT_FALSE(many.cois.empty());
    EXPECT_LE(many.cois.size(), sr.totalCycles / 8 + 1);
    for (size_t i = 1; i < many.cois.size(); ++i)
        EXPECT_NE(many.cois[i].flatCycle, many.cois[0].flatCycle);
}

TEST(Validation, EmptyVectorsAreVacuouslySound)
{
    auto v = peak::validateActivity({}, {});
    EXPECT_TRUE(v.isSuperset);
    EXPECT_EQ(v.commonGates, 0u);
    auto t = peak::validateTraceBound({}, {});
    EXPECT_TRUE(t.bounds);
    EXPECT_EQ(t.violations, 0u);
}

TEST(ExecTree, FlattenAndEnergyLinear)
{
    sym::ExecTree t;
    uint32_t root = t.newNode(sym::kNoNode);
    t.node(root).powerW = {1.0f, 2.0f, 3.0f};
    EXPECT_EQ(t.totalCycles(), 3u);
    auto pe = t.maxPathEnergy({1.0});
    EXPECT_DOUBLE_EQ(pe.energyJ, 6.0);
    EXPECT_EQ(pe.cycles, 3u);
}

TEST(ExecTree, MaxPathPicksWorseBranch)
{
    sym::ExecTree t;
    uint32_t root = t.newNode(sym::kNoNode);
    t.node(root).powerW = {1.0f};
    uint32_t a = t.newNode(root);
    t.node(a).powerW = {5.0f};
    uint32_t b = t.newNode(root);
    t.node(b).powerW = {1.0f, 1.0f, 1.0f, 1.0f};
    t.node(root).edges = {{0x100, a, false}, {0x102, b, false}};
    auto pe = t.maxPathEnergy({1.0});
    EXPECT_DOUBLE_EQ(pe.energyJ, 6.0); // root + a
    EXPECT_EQ(pe.cycles, 2u);
}

TEST(ExecTree, MergedCrossEdgeMemoized)
{
    // Diamond: root -> {a, b} -> join (merged edge from b).
    sym::ExecTree t;
    uint32_t root = t.newNode(sym::kNoNode);
    t.node(root).powerW = {1.0f};
    uint32_t a = t.newNode(root);
    t.node(a).powerW = {2.0f};
    uint32_t b = t.newNode(root);
    t.node(b).powerW = {4.0f};
    uint32_t join = t.newNode(a);
    t.node(join).powerW = {10.0f};
    t.node(root).edges = {{0, a, false}, {0, b, false}};
    t.node(a).edges = {{0, join, false}};
    t.node(b).edges = {{0, join, true}};
    auto pe = t.maxPathEnergy({1.0});
    EXPECT_DOUBLE_EQ(pe.energyJ, 1.0 + 4.0 + 10.0);
}

TEST(ExecTree, BackEdgeRequiresBound)
{
    sym::ExecTree t;
    uint32_t root = t.newNode(sym::kNoNode);
    t.node(root).powerW = {1.0f};
    uint32_t loop = t.newNode(root);
    t.node(loop).powerW = {2.0f};
    t.node(root).edges = {{0, loop, false}};
    t.node(loop).edges = {{0, loop, true}}; // self back-edge
    EXPECT_THROW(t.maxPathEnergy({1.0}, 0), std::runtime_error);
    auto pe = t.maxPathEnergy({1.0}, 5);
    // Loop body repeats 5 times: 1 + 2*5.
    EXPECT_DOUBLE_EQ(pe.energyJ, 11.0);
}

TEST(PeakAnalyze, ReportFieldsConsistent)
{
    msp::System &sys = test::sharedSystem();
    peak::Options opts;
    peak::Report r = peak::analyze(
        sys, isa::assemble(test::wrapProgram("        mov #5, r4\n")),
        opts);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.flatTraceW.size(), r.totalCycles);
    double maxTrace = 0.0;
    for (float w : r.flatTraceW)
        maxTrace = std::max(maxTrace, double(w));
    // The trace stores floats; the peak is tracked in double.
    EXPECT_NEAR(maxTrace, r.peakPowerW, 1e-6 * r.peakPowerW);
    EXPECT_NEAR(r.npeJPerCycle,
                r.peakEnergyJ / double(r.maxPathCycles),
                1e-18);
}

TEST(Coi, ReportsPeakWithModuleBreakdown)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov #0xffff, r4
        mov r4, &0x0130
        mov r4, &0x0138
        mov &0x013a, r5
    )"));
    sym::SymbolicConfig cfg;
    cfg.recordModuleTrace = true;
    sym::SymbolicEngine eng(sys, cfg);
    auto sr = eng.run(img);
    ASSERT_TRUE(sr.ok) << sr.error;
    auto coi = peak::analyzeCoi(sys.netlist(), sr, img, 2);
    ASSERT_FALSE(coi.cois.empty());
    EXPECT_NEAR(coi.cois[0].powerW, sr.peakPowerW,
                1e-6 * sr.peakPowerW);
    ASSERT_FALSE(coi.cois[0].modulePowerW.empty());
    EXPECT_FALSE(coi.cois[0].disasm.empty());
    // Breakdown is sorted descending.
    for (size_t i = 1; i < coi.cois[0].modulePowerW.size(); ++i)
        EXPECT_GE(coi.cois[0].modulePowerW[i - 1].second,
                  coi.cois[0].modulePowerW[i].second);
    EXPECT_NE(coi.toString().find("COI"), std::string::npos);
}

TEST(Validation, SupersetLogic)
{
    std::vector<uint8_t> x = {1, 1, 1, 0};
    std::vector<uint8_t> in = {1, 0, 1, 0};
    auto v = peak::validateActivity(x, in);
    EXPECT_TRUE(v.isSuperset);
    EXPECT_EQ(v.commonGates, 2u);
    EXPECT_EQ(v.xOnlyGates, 1u);
    in[3] = 1; // a gate only the concrete run toggled: soundness bug
    v = peak::validateActivity(x, in);
    EXPECT_FALSE(v.isSuperset);
    EXPECT_EQ(v.inputOnlyGates, 1u);
}

TEST(Validation, TraceBoundLogic)
{
    std::vector<float> x = {2.0f, 2.0f, 2.0f};
    std::vector<float> c = {1.0f, 2.0f, 1.5f};
    auto v = peak::validateTraceBound(x, c);
    EXPECT_TRUE(v.bounds);
    EXPECT_FALSE(v.lengthMismatch);
    EXPECT_EQ(v.firstViolationCycle, UINT64_MAX);
    EXPECT_NEAR(v.meanSlackW, 0.5, 1e-9);
    c[1] = 2.5f;
    v = peak::validateTraceBound(x, c);
    EXPECT_FALSE(v.bounds);
    EXPECT_EQ(v.violations, 1u);
    EXPECT_EQ(v.firstViolationCycle, 1u);
    EXPECT_NEAR(v.maxViolationW, 0.5, 1e-9);
}

// Regression (bugfix): mismatched trace lengths used to be silently
// truncated to min(n, m) and could still report bounds=true -- a
// concrete run outliving the bound trace is precisely the failure a
// validation layer exists to catch.
TEST(Validation, TraceBoundLengthMismatch)
{
    std::vector<float> x = {2.0f, 2.0f};
    std::vector<float> c = {1.0f, 1.0f, 9.0f, 3.0f};
    auto v = peak::validateTraceBound(x, c);
    EXPECT_TRUE(v.lengthMismatch);
    EXPECT_FALSE(v.bounds); // the tail has no bound at all
    EXPECT_EQ(v.comparedCycles, 2u);
    EXPECT_EQ(v.uncomparedTailCycles, 2u);
    EXPECT_EQ(v.violations, 2u);
    EXPECT_EQ(v.firstViolationCycle, 2u);
    EXPECT_NEAR(v.maxViolationW, 9.0, 1e-9); // worst unbounded cycle

    // The opposite direction is sound: the bound covers the longest
    // path, the concrete run simply halted earlier. Flagged, but
    // still bounding.
    std::vector<float> shortRun = {1.0f, 1.5f};
    std::vector<float> longBound = {2.0f, 2.0f, 2.0f, 2.0f};
    v = peak::validateTraceBound(longBound, shortRun);
    EXPECT_TRUE(v.lengthMismatch);
    EXPECT_TRUE(v.bounds);
    EXPECT_EQ(v.violations, 0u);
    EXPECT_EQ(v.uncomparedTailCycles, 2u);
}

// Regression (bugfix): an input-based vector longer than the X-based
// vector used to keep isSuperset=true even when the tail toggled.
TEST(Validation, ActivityLengthMismatch)
{
    std::vector<uint8_t> x = {1, 1};
    std::vector<uint8_t> in = {1, 0, 1};
    auto v = peak::validateActivity(x, in);
    EXPECT_TRUE(v.lengthMismatch);
    EXPECT_FALSE(v.isSuperset); // gate 2 is not covered by x at all
    EXPECT_EQ(v.inputOnlyGates, 1u);
    EXPECT_EQ(v.uncomparedGates, 1u);

    // Even an inactive tail cannot support a superset claim: the
    // X-based analysis has no entry for those gates.
    in = {1, 0, 0};
    v = peak::validateActivity(x, in);
    EXPECT_TRUE(v.lengthMismatch);
    EXPECT_FALSE(v.isSuperset);
    EXPECT_EQ(v.inputOnlyGates, 0u);

    // An x vector longer than the input vector keeps the claim (x
    // covers every measured gate); the tail counts as x-only.
    std::vector<uint8_t> xl = {1, 1, 1, 1};
    std::vector<uint8_t> ins = {1, 1};
    v = peak::validateActivity(xl, ins);
    EXPECT_TRUE(v.lengthMismatch);
    EXPECT_TRUE(v.isSuperset);
    EXPECT_EQ(v.xOnlyGates, 2u);
    EXPECT_EQ(v.uncomparedGates, 2u);
}

} // namespace
} // namespace ulpeak
