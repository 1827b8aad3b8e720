/**
 * @file
 * Configuration invariance of the peak analysis (fuzz property 3): on
 * random generated programs (with X port inputs forcing
 * execution-tree forks) under random scenarios, DVFS schedules and
 * static pruning, peak::analyze must report bit-identical results at
 * every point of threads{1, K} x EvalMode x SnapshotMode x
 * frontier{automatic, packed} as under the forced scalar frontier.
 * These are the guarantees every consumer (batch
 * driver, cache keys, CLI reports) builds on. Also pins the one
 * report comparator, fuzz::reportDiff, and the draw distribution of
 * the `ulfuzz --mode invariance` items.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "fuzz/program_gen.hh"
#include "fuzz/properties.hh"
#include "tests/cpu_test_util.hh"

namespace ulpeak {
namespace {

/** A random forking program (property 3's shape) drawn from @p rng,
 *  which then continues the item's stream. */
isa::Image
imageForSeed(fuzz::Rng &rng, unsigned instructions)
{
    fuzz::ProgramGenOptions gen;
    gen.instructions = instructions;
    return isa::assemble(fuzz::generateForkingProgram(rng, gen).source);
}

class InvarianceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InvarianceFuzz, RandomKnobPointMatchesReference)
{
    fuzz::Rng rng(fuzz::Rng::deriveStream(21, GetParam()));
    isa::Image img = imageForSeed(rng, 10);
    fuzz::PropertyResult r =
        fuzz::configInvarianceCheck(test::sharedSystem(), img, rng, 4);
    EXPECT_TRUE(r.ok) << r.detail;
}

INSTANTIATE_TEST_SUITE_P(Seeds, InvarianceFuzz,
                         ::testing::Range(uint64_t(0), uint64_t(6)));

TEST(InvarianceFuzzLong, ManyProgramsManyThreadCounts)
{
    for (uint64_t seed = 100; seed < 116; ++seed) {
        for (unsigned threads : {2u, 4u, 8u}) {
            fuzz::Rng rng(fuzz::Rng::deriveStream(21, seed));
            isa::Image img = imageForSeed(rng, 14);
            fuzz::PropertyResult r = fuzz::configInvarianceCheck(
                test::sharedSystem(), img, rng, threads);
            EXPECT_TRUE(r.ok) << "seed " << seed << " threads "
                              << threads << ": " << r.detail;
        }
    }
}

/** Item @p i of `ulfuzz --seed 1 --mode invariance`: its stream is
 *  (seed, 2 << 32 | i), and its forking program (--instr 24 / 2 + 1
 *  body items) is drawn before the knobs, which continue rng. */
struct InvarianceItem {
    fuzz::Rng rng;
    std::string source;
};

InvarianceItem
ulfuzzInvarianceItem(unsigned i)
{
    InvarianceItem item{
        fuzz::Rng(fuzz::Rng::deriveStream(1, (2ull << 32) + i)), ""};
    fuzz::ProgramGenOptions gen;
    gen.instructions = 13;
    item.source = fuzz::generateForkingProgram(item.rng, gen).source;
    return item;
}

// The first 16 draws of `ulfuzz --seed 1 --mode invariance` (its
// default count) reach every knob, every scenario kind, both prune
// settings and both sides of the grouping axis.
TEST(InvarianceDraws, UlfuzzDefaultRunCoversEveryAxis)
{
    unsigned automatic = 0, threads = 0, sweep = 0, full = 0, packed = 0;
    unsigned kinds[3] = {0, 0, 0}, pruned = 0, grouped = 0;
    for (unsigned i = 0; i < 16; ++i) {
        InvarianceItem item = ulfuzzInvarianceItem(i);
        fuzz::InvarianceDraw d = fuzz::drawInvariance(item.rng, 4);

        const peak::Options &ref = d.reference, &var = d.variant;
        EXPECT_EQ(ref.numThreads, 1u);
        EXPECT_EQ(ref.evalMode, EvalMode::EventDriven);
        EXPECT_EQ(ref.snapshotMode, sym::SnapshotMode::Delta);
        EXPECT_FALSE(ref.packedExplore); // and forced scalar when run
        EXPECT_TRUE(ref.recordEnvelope && ref.recordActiveSets);
        EXPECT_EQ(ref.staticPrune, var.staticPrune);
        uint64_t hr = 0, hv = 0;
        ref.scenario.hashInto(hr);
        var.scenario.hashInto(hv);
        EXPECT_EQ(hr, hv);

        bool t = var.numThreads == 4,
             k = var.evalMode == EvalMode::FullSweep,
             s = var.snapshotMode == sym::SnapshotMode::Full,
             p = var.packedExplore;
        automatic += !p;
        threads += t;
        sweep += k;
        full += s;
        packed += p;
        ++kinds[ref.scenario.hasModes()         ? 2
                : ref.scenario.isUnconstrained() ? 0
                                                 : 1];
        pruned += ref.staticPrune;
        if (!d.group.empty()) {
            ++grouped;
            EXPECT_GE(d.group.size(), 2u);
            EXPECT_LE(d.group.size(), 5u);
            ASSERT_LT(d.groupIndex, d.group.size());
            uint64_t hg = 0;
            d.group[d.groupIndex].hashInto(hg);
            EXPECT_EQ(hg, hr);
        }
    }
    EXPECT_GE(threads, 4u);
    EXPECT_GE(sweep, 4u);
    EXPECT_GE(full, 4u);
    EXPECT_GE(packed, 4u);
    EXPECT_GE(automatic, 4u);
    EXPECT_GT(kinds[0], 0u) << "no unconstrained item";
    EXPECT_GT(kinds[1], 0u) << "no port-scenario item";
    EXPECT_GT(kinds[2], 0u) << "no DVFS item";
    EXPECT_GT(pruned, 0u);
    EXPECT_LT(pruned, 16u);
    EXPECT_GE(grouped, 4u);
    EXPECT_LE(grouped, 12u);
}

// The same 16 items exercise the fork machinery: most of them fork,
// and some hold more than one path in flight at once, so a packed
// sweep carries several live lanes.
TEST(InvarianceDraws, UlfuzzDefaultRunForks)
{
    unsigned forking = 0, multiLane = 0;
    for (unsigned i = 0; i < 16; ++i) {
        isa::Image img = isa::assemble(ulfuzzInvarianceItem(i).source);
        peak::Options o;
        o.packedExplore = true;
        peak::Report r = peak::analyze(test::sharedSystem(), img, o);
        forking += r.pathsExplored > 1;
        multiLane += r.packedLaneCycles > r.packedSweeps;
    }
    EXPECT_GE(forking, 8u);
    EXPECT_GT(multiLane, 0u);
}

/** A report with every field reportDiff covers populated. */
peak::Report
sampleReport()
{
    peak::Report r;
    r.ok = true;
    r.peakPowerW = 1.25e-3;
    r.peakEnergyJ = 3.5e-9;
    r.npeJPerCycle = 7.0e-12;
    r.maxPathCycles = 120;
    r.flatTraceW = {1e-3f, 1.25e-3f, 0.5e-3f};
    r.envelope.present = true;
    r.envelope.powerW = {1e-3f, 1.25e-3f};
    r.envelope.windows = {1, 10};
    r.envelope.windowEnergyJ = {{1e-11f, 1.25e-11f}, {1e-11f, 2.25e-11f}};
    r.envelope.peakWindowEnergyJ = {1.25e-11, 2.25e-11};
    r.everActive = {0, 1, 1, 0};
    r.peakActive = {1, 2};
    r.totalCycles = 400;
    r.pathsExplored = 3;
    r.dedupMerges = 1;
    r.snapshotBytesCopied = 200;
    r.snapshotBytesFull = 800;
    return r;
}

TEST(ReportDiff, EveryCoveredFieldIsNamed)
{
    const peak::Report base = sampleReport();
    EXPECT_EQ(fuzz::reportDiff(base, base), "");

    struct Case {
        const char *field;
        bool bound; ///< part of ReportScope::Bounds
        void (*perturb)(peak::Report &);
    };
    const Case cases[] = {
        {"peakPowerW", true, [](peak::Report &r) { r.peakPowerW *= 2; }},
        {"peakEnergyJ", true,
         [](peak::Report &r) { r.peakEnergyJ *= 2; }},
        {"npeJPerCycle", true,
         [](peak::Report &r) { r.npeJPerCycle *= 2; }},
        {"maxPathCycles", true,
         [](peak::Report &r) { ++r.maxPathCycles; }},
        {"envelope.present", true,
         [](peak::Report &r) { r.envelope.present = false; }},
        {"envelope.powerW", true,
         [](peak::Report &r) { r.envelope.powerW[1] = 2e-3f; }},
        {"envelope.windows", true,
         [](peak::Report &r) { r.envelope.windows[1] = 100; }},
        {"envelope.windowEnergyJ[1]", true,
         [](peak::Report &r) { r.envelope.windowEnergyJ[1][0] = 0; }},
        {"envelope.windowEnergyJ.size", true,
         [](peak::Report &r) { r.envelope.windowEnergyJ.pop_back(); }},
        {"envelope.peakWindowEnergyJ", true,
         [](peak::Report &r) { r.envelope.peakWindowEnergyJ[0] = 0; }},
        {"everActive", true, [](peak::Report &r) { r.everActive[0] = 1; }},
        {"totalCycles", false, [](peak::Report &r) { ++r.totalCycles; }},
        {"pathsExplored", false,
         [](peak::Report &r) { ++r.pathsExplored; }},
        {"dedupMerges", false, [](peak::Report &r) { ++r.dedupMerges; }},
        {"flatTraceW", false,
         [](peak::Report &r) { r.flatTraceW.push_back(0); }},
        {"peakActive", false, [](peak::Report &r) { r.peakActive[1] = 3; }},
        {"snapshotBytesCopied", false,
         [](peak::Report &r) { ++r.snapshotBytesCopied; }},
        {"snapshotBytesFull", false,
         [](peak::Report &r) { ++r.snapshotBytesFull; }},
        {"ok", true, [](peak::Report &r) { r.ok = false; }},
    };
    for (const Case &c : cases) {
        peak::Report b = base;
        c.perturb(b);
        std::string all = fuzz::reportDiff(base, b);
        EXPECT_NE(all.find(c.field), std::string::npos)
            << c.field << " not named in:\n" << all;
        std::string bounds =
            fuzz::reportDiff(base, b, fuzz::ReportScope::Bounds);
        if (c.bound)
            EXPECT_NE(bounds.find(c.field), std::string::npos)
                << c.field;
        else
            EXPECT_EQ(bounds, "") << c.field;
    }
}

// Snapshot byte counters depend on the snapshot form, so reports of
// two forms do not compare them.
TEST(ReportDiff, SnapshotBytesCompareWithinOneForm)
{
    peak::Report a = sampleReport(), b = a;
    b.snapshotMode = sym::SnapshotMode::Full;
    b.snapshotBytesCopied = 1000;
    EXPECT_EQ(fuzz::reportDiff(a, b), "");
}

// A lane fork captures only for the children that leave the lanes, so
// snapshot byte counters compare only between reports that never
// swept them.
TEST(ReportDiff, SnapshotBytesCompareOnlyOffTheLanes)
{
    peak::Report a = sampleReport(), b = a;
    b.snapshotBytesCopied = 1000;
    EXPECT_NE(fuzz::reportDiff(a, b), "");
    b.packedSweeps = 1;
    EXPECT_EQ(fuzz::reportDiff(a, b), "");
    EXPECT_EQ(fuzz::reportDiff(b, a), "");
}

// Two rejections agree only when their errors do.
TEST(ReportDiff, RejectionsCompareByError)
{
    peak::Report a, b;
    a.error = b.error = "symbolic cycle budget exhausted";
    EXPECT_EQ(fuzz::reportDiff(a, b), "");
    b.error = "unbounded loop";
    EXPECT_NE(fuzz::reportDiff(a, b, fuzz::ReportScope::Bounds)
                  .find("error"),
              std::string::npos);
}

// A one-ulp mismatch prints as two different numbers.
TEST(ReportDiff, DoublesPrintExactly)
{
    peak::Report a = sampleReport(), b = a;
    b.peakPowerW = std::nextafter(a.peakPowerW, 1.0);
    std::string d = fuzz::reportDiff(a, b);
    EXPECT_EQ(d, "peakPowerW: a=0.00125 b=0.0012500000000000002\n");
}

} // namespace
} // namespace ulpeak
