/**
 * @file
 * Scenario subsystem tests: pattern/JSON parsing and presets, the
 * engine-level semantics of port/memory/register constraints
 * (constraints collapse the forks their X values caused and can only
 * tighten the bounds), schedule-phase dedup determinism under the
 * parallel exploration core, snapshot-mode bit-identity, exploration
 * statistics, and the scenario x program batch matrix with its
 * per-scenario aggregates and cache behavior.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <thread>

#include "bench430/benchmarks.hh"
#include "cell/cell_library.hh"
#include "cli/driver.hh"
#include "fuzz/properties.hh"
#include "peak/batch.hh"
#include "peak/peak_analysis.hh"
#include "scenario/scenario.hh"

namespace ulpeak {
namespace {

namespace fs = std::filesystem;
using scenario::PortPattern;
using scenario::Scenario;

/** A program forking twice on port bits: 4 paths unconstrained,
 *  1 path with the port pinned. */
std::string
portBranchSource()
{
    return bench430::wrapBenchmarkBody(R"(
        mov #0, r4
        mov &PIN, r5
        and #1, r5
        jz ps_skip1
        add #1, r4
ps_skip1:
        mov &PIN, r5
        and #2, r5
        jz ps_skip2
        add #2, r4
ps_skip2:
        mov r4, &OUT
)");
}

/** A program forking on an uninitialized (X) RAM word. */
std::string
ramBranchSource()
{
    return bench430::wrapBenchmarkBody(R"(
        mov #0, r4
        mov &INPUT, r5
        and #1, r5
        jz rs_skip
        add #1, r4
rs_skip:
        mov r4, &OUT
)");
}

/** A program forking on an uninitialized (X) register. */
std::string
regBranchSource()
{
    return bench430::wrapBenchmarkBody(R"(
        mov #0, r4
        and #1, r7
        jz gs_skip
        add #1, r4
gs_skip:
        mov r4, &OUT
)");
}

TEST(Scenario, PortPatternParseRoundTrip)
{
    PortPattern p = PortPattern::parse("000000000000xxxx");
    EXPECT_EQ(p.pinned, 0xfff0);
    EXPECT_EQ(p.value, 0x0000);
    EXPECT_EQ(p.toString(), "000000000000xxxx");

    PortPattern q = PortPattern::parse("1xxxxxxxxxxxxxx0");
    EXPECT_EQ(q.pinned, 0x8001);
    EXPECT_EQ(q.value, 0x8000);
    EXPECT_EQ(q.word().bit(15), V4::One);
    EXPECT_EQ(q.word().bit(0), V4::Zero);
    EXPECT_EQ(q.word().bit(7), V4::X);

    EXPECT_THROW(PortPattern::parse("0000"), std::runtime_error);
    EXPECT_THROW(PortPattern::parse("000000000000xxx2"),
                 std::runtime_error);
}

TEST(Scenario, Presets)
{
    EXPECT_TRUE(Scenario::preset("unconstrained").isUnconstrained());
    Scenario g = Scenario::preset("ports-grounded");
    EXPECT_FALSE(g.isUnconstrained());
    EXPECT_EQ(g.port.pinned, 0xffff);
    EXPECT_TRUE(g.portWordAt(0).isFullyKnown());

    Scenario s4 = Scenario::preset("sensor-4bit");
    EXPECT_EQ(s4.port.pinned, 0xfff0);

    Scenario ps = Scenario::preset("periodic-sensor");
    ASSERT_EQ(ps.portSchedule.size(), 8u);
    EXPECT_EQ(ps.portWordAt(0), Word16::allX());
    EXPECT_TRUE(ps.portWordAt(1).isFullyKnown());
    EXPECT_EQ(ps.portWordAt(8), Word16::allX()); // period wraps
    EXPECT_EQ(ps.dedupPhase(3), 3u);
    EXPECT_EQ(ps.dedupPhase(11), 3u);
    EXPECT_EQ(Scenario::preset("unconstrained").dedupPhase(7), 0u);

    EXPECT_THROW(Scenario::preset("no-such-scenario"),
                 std::runtime_error);
}

TEST(Scenario, JsonParsing)
{
    Scenario s = Scenario::fromJson(R"({
        "name": "lab-bench",
        "port": "00000000xxxxxxxx",
        "port_schedule": ["xxxxxxxxxxxxxxxx",
                          {"pinned": "0xffff", "value": 0}],
        "ram_init": [{"addr": "0x0380", "words": [17, "0xbeef"]}],
        "reg_init": [{"reg": 7, "value": "0x10"}]
    })");
    EXPECT_EQ(s.name, "lab-bench");
    EXPECT_EQ(s.port.pinned, 0xff00);
    ASSERT_EQ(s.portSchedule.size(), 2u);
    EXPECT_EQ(s.portSchedule[0].pinned, 0x0000);
    EXPECT_EQ(s.portSchedule[1].pinned, 0xffff);
    ASSERT_EQ(s.ramInit.size(), 1u);
    EXPECT_EQ(s.ramInit[0].first, 0x0380u);
    EXPECT_EQ(s.ramInit[0].second,
              (std::vector<uint16_t>{17, 0xbeef}));
    ASSERT_EQ(s.regInit.size(), 1u);
    EXPECT_EQ(s.regInit[0].first, 7u);
    EXPECT_EQ(s.regInit[0].second, 0x10);

    // Malformed inputs fail loudly.
    EXPECT_THROW(Scenario::fromJson("[]"), std::runtime_error);
    EXPECT_THROW(Scenario::fromJson(R"({"port": "short"})"),
                 std::runtime_error);
    EXPECT_THROW(Scenario::fromJson(R"({"unknown_key": 1})"),
                 std::runtime_error);
    EXPECT_THROW(
        Scenario::fromJson(R"({"reg_init": [{"reg": 0, "value": 1}]})"),
        std::runtime_error);
    EXPECT_THROW(
        Scenario::fromJson(R"({"ram_init": [{"addr": 0x}]})"),
        std::runtime_error);
}

TEST(Scenario, ResolveDispatchesPresetsAndFiles)
{
    EXPECT_EQ(Scenario::resolve("ports-grounded").port.pinned, 0xffff);

    fs::path file =
        fs::temp_directory_path() / "ulpeak_scn_test.json";
    std::ofstream(file) << R"({"port": "0000000000000000"})";
    Scenario s = Scenario::resolve(file.string());
    EXPECT_EQ(s.port.pinned, 0xffff);
    EXPECT_EQ(s.name, "ulpeak_scn_test"); // file stem becomes the name
    fs::remove(file);

    EXPECT_THROW(Scenario::resolve("/nonexistent/dir/x.json"),
                 std::runtime_error);
}

TEST(Scenario, ContentHashIgnoresNameAndSeesEveryField)
{
    auto key = [](const Scenario &s) {
        uint64_t h = 1469598103934665603ull;
        s.hashInto(h);
        return h;
    };
    Scenario a = Scenario::preset("ports-grounded");
    Scenario b = a;
    b.name = "renamed";
    EXPECT_EQ(key(a), key(b)); // names never split the cache

    Scenario c = a;
    c.port.value = 1;
    c.port.pinned = 0xffff;
    EXPECT_NE(key(a), key(c));
    Scenario d = a;
    d.ramInit.push_back({0x0380, {1}});
    EXPECT_NE(key(a), key(d));
    Scenario e = a;
    e.regInit.push_back({7, 0});
    EXPECT_NE(key(a), key(e));
}

TEST(Scenario, CacheKeyIncludesScenario)
{
    isa::Image img =
        bench430::benchmarkByName("mult").assembleImage();
    CellLibrary lib = CellLibrary::tsmc65Like();
    peak::Options u;
    peak::Options g;
    g.scenario = Scenario::preset("ports-grounded");
    EXPECT_NE(peak::cacheKey(lib, img, u),
              peak::cacheKey(lib, img, g));
    // snapshotMode, threads, kernels stay excluded.
    peak::Options full = u;
    full.snapshotMode = sym::SnapshotMode::Full;
    full.numThreads = 4;
    full.evalMode = EvalMode::FullSweep;
    EXPECT_EQ(peak::cacheKey(lib, img, u),
              peak::cacheKey(lib, img, full));
}

TEST(Scenario, PinnedPortsCollapseForksAndTightenBounds)
{
    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(portBranchSource());

    peak::Options uopts;
    uopts.recordEnvelope = true;
    peak::Report unc = peak::analyze(sys, img, uopts);
    ASSERT_TRUE(unc.ok) << unc.error;
    EXPECT_GE(unc.pathsExplored, 3u); // two port branches fork

    peak::Options gopts = uopts;
    gopts.scenario = Scenario::preset("ports-grounded");
    peak::Report grounded = peak::analyze(sys, img, gopts);
    ASSERT_TRUE(grounded.ok) << grounded.error;
    EXPECT_EQ(grounded.pathsExplored, 1u); // branches are concrete
    EXPECT_LE(grounded.peakPowerW, unc.peakPowerW * (1 + 1e-9));
    EXPECT_LE(grounded.peakEnergyJ, unc.peakEnergyJ * (1 + 1e-9));
    EXPECT_LE(grounded.envelope.powerW.size(),
              unc.envelope.powerW.size());

    // Pinning only bit 0 leaves the second branch (bit 1) forking.
    peak::Options bit0 = uopts;
    bit0.scenario.name = "bit0";
    bit0.scenario.port.pinned = 0x0001;
    peak::Report partial = peak::analyze(sys, img, bit0);
    ASSERT_TRUE(partial.ok) << partial.error;
    EXPECT_GT(partial.pathsExplored, grounded.pathsExplored);
    EXPECT_LT(partial.pathsExplored, unc.pathsExplored);
    EXPECT_LE(partial.peakPowerW, unc.peakPowerW * (1 + 1e-9));
}

TEST(Scenario, RamInitNarrowsUninitializedMemory)
{
    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(ramBranchSource());

    peak::Report unc = peak::analyze(sys, img, peak::Options{});
    ASSERT_TRUE(unc.ok) << unc.error;
    EXPECT_GE(unc.pathsExplored, 2u); // X RAM word forks the branch

    peak::Options copts;
    copts.scenario.name = "ram-pinned";
    copts.scenario.ramInit.push_back({0x0380, {0}});
    peak::Report con = peak::analyze(sys, img, copts);
    ASSERT_TRUE(con.ok) << con.error;
    EXPECT_EQ(con.pathsExplored, 1u);
    EXPECT_LE(con.peakPowerW, unc.peakPowerW * (1 + 1e-9));

    // Out-of-RAM init ranges fail loudly, not with an assert.
    peak::Options bad;
    bad.scenario.ramInit.push_back({0xf000, {1}});
    peak::Report b = peak::analyze(sys, img, bad);
    EXPECT_FALSE(b.ok);
    EXPECT_NE(b.error.find("outside RAM"), std::string::npos);
    EXPECT_NE(b.error.find("0xf000"), std::string::npos);
}

// Scenarios built through the library API (bypassing the JSON
// parser's checks) must fail as cleanly as ones read from files.
TEST(Scenario, ProgrammaticConstraintsAreValidated)
{
    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(regBranchSource());

    peak::Options emptyWords;
    emptyWords.scenario.ramInit.push_back({0x0380, {}});
    peak::Report a = peak::analyze(sys, img, emptyWords);
    EXPECT_FALSE(a.ok);
    EXPECT_NE(a.error.find("has no words"), std::string::npos);

    peak::Options regHigh;
    regHigh.scenario.regInit.push_back({16, 0});
    peak::Report b = peak::analyze(sys, img, regHigh);
    EXPECT_FALSE(b.ok);
    EXPECT_NE(b.error.find("general-purpose"), std::string::npos);

    peak::Options regSpecial;
    regSpecial.scenario.regInit.push_back({2, 0}); // r2 = sr
    peak::Report c = peak::analyze(sys, img, regSpecial);
    EXPECT_FALSE(c.ok);

    // An odd RAM address is rejected, not rounded down to its word.
    peak::Options oddAddr;
    oddAddr.scenario.ramInit.push_back({0x0201, {5}});
    peak::Report d = peak::analyze(sys, img, oddAddr);
    EXPECT_FALSE(d.ok);
    EXPECT_NE(d.error.find("ram_init"), std::string::npos) << d.error;
}

// A bad --scenario spec is a usage error (exit 2), never an uncaught
// exception aborting the process.
TEST(Scenario, CliRejectsBadScenarioSpecsAsUsageErrors)
{
    const char *argv[] = {"ulpeak", "--programs", "mult",
                          "--scenario", "no-such-preset"};
    EXPECT_EQ(cli::runCli(5, argv), 2);
    const char *argv2[] = {"ulpeak", "--programs", "mult",
                           "--scenario", "/nonexistent/x.json"};
    EXPECT_EQ(cli::runCli(5, argv2), 2);
}

TEST(Scenario, RegInitNarrowsBootRegisters)
{
    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(regBranchSource());

    peak::Report unc = peak::analyze(sys, img, peak::Options{});
    ASSERT_TRUE(unc.ok) << unc.error;
    EXPECT_GE(unc.pathsExplored, 2u); // X r7 forks the branch

    peak::Options copts;
    copts.scenario.name = "r7-known";
    copts.scenario.regInit.push_back({7, 0x0001});
    peak::Report con = peak::analyze(sys, img, copts);
    ASSERT_TRUE(con.ok) << con.error;
    EXPECT_EQ(con.pathsExplored, 1u);
    EXPECT_LE(con.peakPowerW, unc.peakPowerW * (1 + 1e-9));
}

// A scheduled scenario makes the same simulator state reachable at
// different schedule phases; the phase-aware dedup keys must keep
// 1-vs-K-thread exploration bit-identical anyway.
TEST(Scenario, ScheduledScenarioIsThreadDeterministic)
{
    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(portBranchSource());

    peak::Options opts;
    opts.recordEnvelope = true;
    opts.scenario = Scenario::preset("periodic-sensor");
    peak::Report serial = peak::analyze(sys, img, opts);
    ASSERT_TRUE(serial.ok) << serial.error;

    opts.numThreads = 4;
    peak::Report parallel = peak::analyze(sys, img, opts);
    EXPECT_EQ(fuzz::reportDiff(serial, parallel), "");
}

// Delta and full fork snapshots must be bit-identical end to end --
// and the delta representation must actually copy fewer bytes.
TEST(Scenario, SnapshotModesAreBitIdentical)
{
    msp::System sys(CellLibrary::tsmc65Like());
    for (const char *prog : {"binSearch", "tea8"}) {
        isa::Image img =
            bench430::benchmarkByName(prog).assembleImage();
        peak::Options delta;
        delta.recordEnvelope = true;
        peak::Options full = delta;
        full.snapshotMode = sym::SnapshotMode::Full;
        peak::Report rd = peak::analyze(sys, img, delta);
        peak::Report rf = peak::analyze(sys, img, full);
        EXPECT_EQ(fuzz::reportDiff(rd, rf), "");
        if (rd.pathsExplored > 1) {
            EXPECT_LT(rd.snapshotBytesCopied, rf.snapshotBytesCopied)
                << prog;
            EXPECT_EQ(rf.snapshotBytesCopied, rf.snapshotBytesFull)
                << prog;
        }
    }
}

TEST(Scenario, ExplorationStatistics)
{
    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img =
        bench430::benchmarkByName("binSearch").assembleImage();
    peak::Options opts;
    peak::Report r = peak::analyze(sys, img, opts);
    ASSERT_TRUE(r.ok);
    // Serial exploration: one worker, no steals, its cycle count is
    // the whole run.
    EXPECT_EQ(r.steals, 0u);
    ASSERT_EQ(r.perWorkerCycles.size(), 1u);
    EXPECT_EQ(r.perWorkerCycles[0], r.totalCycles);
    EXPECT_GT(r.snapshotBytesFull, 0u);
    EXPECT_LE(r.snapshotBytesCopied, r.snapshotBytesFull);

    opts.numThreads = 3;
    peak::Report p = peak::analyze(sys, img, opts);
    ASSERT_TRUE(p.ok);
    // The engine clamps workers to the host's core count (never
    // below 2, so concurrency stays exercised on small hosts).
    unsigned hw = std::thread::hardware_concurrency();
    unsigned expectWorkers =
        hw && hw < 3 ? std::max(2u, hw) : 3u;
    ASSERT_EQ(p.perWorkerCycles.size(), expectWorkers);
    uint64_t sum = 0;
    for (uint64_t c : p.perWorkerCycles)
        sum += c;
    EXPECT_EQ(sum, p.totalCycles);
    // Scheduling-independent statistics stay pinned across thread
    // counts; steals/perWorkerCycles are allowed to differ.
    EXPECT_EQ(p.snapshotBytesCopied, r.snapshotBytesCopied);
    EXPECT_EQ(p.snapshotBytesFull, r.snapshotBytesFull);
}

TEST(Scenario, BatchMatrixAndPerScenarioAggregates)
{
    auto suite = cli::resolvePrograms({"mult", "intAVG"});
    peak::BatchOptions opts;
    opts.analysis.recordEnvelope = true;
    opts.scenarios = {Scenario::preset("unconstrained"),
                      Scenario::preset("ports-grounded")};
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(rep.ok);

    // Scenario-major matrix.
    ASSERT_EQ(rep.programs.size(), 4u);
    EXPECT_EQ(rep.programs[0].name, "mult");
    EXPECT_EQ(rep.programs[0].scenario, "unconstrained");
    EXPECT_EQ(rep.programs[1].name, "intAVG");
    EXPECT_EQ(rep.programs[1].scenario, "unconstrained");
    EXPECT_EQ(rep.programs[2].scenario, "ports-grounded");
    EXPECT_EQ(rep.programs[3].scenario, "ports-grounded");

    ASSERT_EQ(rep.scenarios.size(), 2u);
    EXPECT_TRUE(rep.scenarios[0].ok);
    EXPECT_TRUE(rep.scenarios[1].ok);
    // Top-level aggregates mirror the first scenario.
    EXPECT_EQ(rep.maxPeakPowerW, rep.scenarios[0].maxPeakPowerW);
    EXPECT_EQ(rep.suiteEnvelope.powerW,
              rep.scenarios[0].suiteEnvelope.powerW);
    // Constraining can only tighten the suite maxima.
    EXPECT_LE(rep.scenarios[1].maxPeakPowerW,
              rep.scenarios[0].maxPeakPowerW * (1 + 1e-9));
    EXPECT_LE(rep.scenarios[1].maxPeakEnergyJ,
              rep.scenarios[0].maxPeakEnergyJ * (1 + 1e-9));
    EXPECT_TRUE(rep.scenarios[1].suiteEnvelope.present);

    // JSON without timings stays byte-identical across jobs.
    peak::BatchOptions par = opts;
    par.jobs = 4;
    peak::BatchReport rep4 = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, par);
    EXPECT_EQ(cli::toJson(rep, opts, /*include_timings=*/false),
              cli::toJson(rep4, par, /*include_timings=*/false));
    EXPECT_EQ(cli::toCsv(rep).substr(0, cli::toCsv(rep).find("wall")),
              cli::toCsv(rep4).substr(0,
                                      cli::toCsv(rep4).find("wall")));
}

TEST(Scenario, ModeJsonParsing)
{
    Scenario s = Scenario::fromJson(R"({
        "name": "duty",
        "modes": [{"name": "burst", "vdd": 1.0, "freq_hz": 100e6},
                  {"name": "sleep", "vdd": 0.6, "freq_hz": 8e6}],
        "mode_schedule": ["burst", 1, "sleep", 0],
        "assert": [{"mode": "sleep", "max_power_w": 1e-3,
                    "settle_cycles": 2}]
    })");
    ASSERT_EQ(s.modes.size(), 2u);
    EXPECT_EQ(s.modes[0].name, "burst");
    EXPECT_DOUBLE_EQ(s.modes[1].vdd, 0.6);
    // Names and indices resolve to the same schedule regardless of
    // key order in the file.
    EXPECT_EQ(s.modeSchedule, (std::vector<uint32_t>{0, 1, 1, 0}));
    ASSERT_EQ(s.assertions.size(), 1u);
    EXPECT_EQ(s.assertions[0].mode, "sleep");
    EXPECT_DOUBLE_EQ(s.assertions[0].maxPowerW, 1e-3);
    EXPECT_EQ(s.assertions[0].settleCycles, 2u);
    EXPECT_TRUE(s.hasModes());
    EXPECT_FALSE(s.isUnconstrained()); // modes change the numbers
    EXPECT_EQ(s.modePeriod(), 4u);
    EXPECT_EQ(s.modeAt(6).name, "sleep"); // wraps: 6 % 4 = 2
    ASSERT_EQ(s.phaseTclkS().size(), 4u);
    EXPECT_DOUBLE_EQ(s.phaseTclkS()[0], 1.0 / 100e6);
    EXPECT_DOUBLE_EQ(s.phaseTclkS()[2], 1.0 / 8e6);

    // The per-phase pricing the engine and concrete runs share:
    // (vdd / vdd_lib)^2 at each phase's clock, the reference point
    // without modes.
    CellLibrary lib = CellLibrary::tsmc65Like();
    ASSERT_EQ(lib.vdd(), 1.0);
    using Pricing = std::vector<std::pair<double, double>>;
    EXPECT_EQ(s.phasePricing(lib, 25e6),
              (Pricing{{1.0, 100e6}, {0.36, 8e6}, {0.36, 8e6}, {1.0, 100e6}}));
    EXPECT_EQ(Scenario().phasePricing(lib, 25e6), (Pricing{{1.0, 25e6}}));
}

TEST(Scenario, ModeJsonRejectsMalformedInputs)
{
    const char *mode_hdr = R"({"modes": [{"name": "a", "vdd": 1.0,
                                          "freq_hz": 1e6}],)";
    // A schedule with nothing to schedule.
    EXPECT_THROW(Scenario::fromJson(R"({"mode_schedule": [0]})"),
                 std::runtime_error);
    // Unknown mode names and out-of-range indices.
    EXPECT_THROW(Scenario::fromJson(std::string(mode_hdr) +
                                    R"("mode_schedule": ["b"]})"),
                 std::runtime_error);
    EXPECT_THROW(Scenario::fromJson(std::string(mode_hdr) +
                                    R"("mode_schedule": [1]})"),
                 std::runtime_error);
    // Empty schedules are a structural error, not "no schedule".
    EXPECT_THROW(Scenario::fromJson(std::string(mode_hdr) +
                                    R"("mode_schedule": []})"),
                 std::runtime_error);
    // Non-positive vdd / freq.
    EXPECT_THROW(Scenario::fromJson(
                     R"({"modes": [{"name": "a", "vdd": 0,
                                    "freq_hz": 1e6}]})"),
                 std::runtime_error);
    EXPECT_THROW(Scenario::fromJson(
                     R"({"modes": [{"name": "a", "vdd": 1.0,
                                    "freq_hz": -8e6}]})"),
                 std::runtime_error);
    // Duplicate mode names (two legal modes, colliding labels).
    EXPECT_THROW(Scenario::fromJson(
                     R"({"modes": [
                         {"name": "a", "vdd": 1.0, "freq_hz": 1e6},
                         {"name": "a", "vdd": 0.6, "freq_hz": 8e6}]})"),
                 std::runtime_error);
    // Duplicate object keys never silently last-write-wins.
    EXPECT_THROW(Scenario::fromJson(
                     R"({"modes": [{"name": "a", "vdd": 1.0,
                                    "freq_hz": 1e6}],
                         "modes": [{"name": "b", "vdd": 0.6,
                                    "freq_hz": 8e6}]})"),
                 std::runtime_error);
    // Incomplete mode objects.
    EXPECT_THROW(Scenario::fromJson(
                     R"({"modes": [{"name": "a", "vdd": 1.0}]})"),
                 std::runtime_error);
    // Assertions must name a declared mode with a positive ceiling.
    EXPECT_THROW(Scenario::fromJson(std::string(mode_hdr) +
                                    R"("assert": [{"mode": "nope",
                                        "max_power_w": 1e-3}]})"),
                 std::runtime_error);
    EXPECT_THROW(Scenario::fromJson(std::string(mode_hdr) +
                                    R"("assert": [{"mode": "a",
                                        "max_power_w": 0}]})"),
                 std::runtime_error);
}

TEST(Scenario, DedupPhaseMixesPortAndModePeriods)
{
    Scenario s = Scenario::preset("periodic-sensor"); // port period 8
    s.modes.push_back({"a", 1.0, 1e6});
    s.modes.push_back({"b", 0.8, 1e6});
    s.modeSchedule = {0, 1, 1}; // mode period 3
    // Mixed-radix: equal dedupPhase iff congruent mod both periods.
    EXPECT_EQ(s.dedupPhase(0), s.dedupPhase(24)); // lcm(8,3) = 24
    EXPECT_NE(s.dedupPhase(0), s.dedupPhase(8));  // same port phase
    EXPECT_NE(s.dedupPhase(0), s.dedupPhase(3));  // same mode phase
    std::vector<uint64_t> phases;
    for (uint64_t c = 0; c < 24; ++c)
        phases.push_back(s.dedupPhase(c));
    std::sort(phases.begin(), phases.end());
    EXPECT_EQ(std::unique(phases.begin(), phases.end()),
              phases.end()); // injective over one combined period
}

TEST(Scenario, ContentHashSeesModesButNotLabels)
{
    auto key = [](const Scenario &s) {
        uint64_t h = 1469598103934665603ull;
        s.hashInto(h);
        return h;
    };
    Scenario a = Scenario::preset("duty-cycled-dvfs");
    Scenario renamed = a;
    renamed.modes[0].name = "sprint";
    EXPECT_EQ(key(a), key(renamed)); // labels never split the cache

    Scenario asserted = a;
    asserted.assertions.push_back({"sleep", 1e-3, 2});
    EXPECT_EQ(key(a), key(asserted)); // post-processing only

    Scenario vddChanged = a;
    vddChanged.modes[1].vdd = 0.7;
    EXPECT_NE(key(a), key(vddChanged));
    Scenario freqChanged = a;
    freqChanged.modes[0].freqHz = 50e6;
    EXPECT_NE(key(a), key(freqChanged));
    Scenario reScheduled = a;
    reScheduled.modeSchedule[7] = 0;
    EXPECT_NE(key(a), key(reScheduled));

    // And the analysis cache key inherits the distinction.
    isa::Image img =
        bench430::benchmarkByName("mult").assembleImage();
    CellLibrary lib = CellLibrary::tsmc65Like();
    peak::Options u;
    peak::Options m;
    m.scenario = a;
    EXPECT_NE(peak::cacheKey(lib, img, u), peak::cacheKey(lib, img, m));
}

// A mode schedule re-prices cycles but never changes which executions
// exist, so lowering every operating point can only tighten the
// bounds -- and the mode-priced analysis must stay bit-identical
// across thread counts and snapshot modes (mode phases join the
// dedup keys).
TEST(Scenario, ModeScheduleDominanceAndDeterminism)
{
    msp::System sys(CellLibrary::tsmc65Like());
    isa::Image img = isa::assemble(portBranchSource());

    peak::Options base;
    base.recordEnvelope = true;
    base.scenario = Scenario::preset("duty-cycled-dvfs");
    peak::Report rb = peak::analyze(sys, img, base);
    ASSERT_TRUE(rb.ok) << rb.error;

    peak::Options lowered = base;
    for (scenario::OperatingMode &m : lowered.scenario.modes) {
        m.vdd *= 0.8;
        m.freqHz *= 0.5;
    }
    peak::Report rl = peak::analyze(sys, img, lowered);
    ASSERT_TRUE(rl.ok) << rl.error;
    EXPECT_LE(rl.peakPowerW, rb.peakPowerW);
    EXPECT_LE(rl.peakEnergyJ, rb.peakEnergyJ * (1 + 1e-6));
    ASSERT_EQ(rl.envelope.powerW.size(), rb.envelope.powerW.size());
    for (size_t c = 0; c < rl.envelope.powerW.size(); ++c)
        ASSERT_LE(rl.envelope.powerW[c], rb.envelope.powerW[c]) << c;

    peak::Options par = base;
    par.numThreads = 4;
    EXPECT_EQ(fuzz::reportDiff(rb, peak::analyze(sys, img, par)), "");
    peak::Options full = base;
    full.snapshotMode = sym::SnapshotMode::Full;
    EXPECT_EQ(fuzz::reportDiff(rb, peak::analyze(sys, img, full)), "");
    peak::Options sweep = base;
    sweep.evalMode = EvalMode::FullSweep;
    EXPECT_EQ(fuzz::reportDiff(rb, peak::analyze(sys, img, sweep)), "");
}

// The --modes report (JSON without timings) is byte-identical across
// batch worker counts, like every other deterministic artifact.
TEST(Scenario, ModeReportByteIdenticalAcrossJobs)
{
    auto suite = cli::resolvePrograms({"mult", "intAVG"});
    peak::BatchOptions opts;
    opts.analysis.recordEnvelope = true;
    opts.scenarios = {Scenario::preset("duty-cycled-dvfs")};
    opts.scenarios[0].assertions.push_back({"sleep", 1e-3, 2});
    peak::BatchReport r1 = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(r1.ok);
    peak::BatchOptions par = opts;
    par.jobs = 4;
    peak::BatchReport r4 = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, par);
    double vdd = CellLibrary::tsmc65Like().vdd();
    auto m1 = cli::buildModeReports(r1, opts.scenarios, vdd);
    auto m4 = cli::buildModeReports(r4, par.scenarios, vdd);
    EXPECT_EQ(cli::toModesJson(r1, m1), cli::toModesJson(r4, m4));
    EXPECT_EQ(cli::toModesCsv(r1, m1), cli::toModesCsv(r4, m4));
    EXPECT_EQ(cli::toJson(r1, opts, /*include_timings=*/false),
              cli::toJson(r4, par, /*include_timings=*/false));
}

TEST(Scenario, BatchCacheIsScenarioAware)
{
    fs::path dir = fs::temp_directory_path() /
                   ("ulpeak_scn_cache_" +
                    std::to_string(::getpid()));
    fs::remove_all(dir);
    auto suite = cli::resolvePrograms({"mult"});
    peak::BatchOptions opts;
    opts.cacheDir = dir.string();
    opts.scenarios = {Scenario::preset("unconstrained"),
                      Scenario::preset("ports-grounded")};

    peak::BatchReport cold = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.cacheMisses, 2u); // one entry per scenario

    peak::BatchReport warm = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    EXPECT_EQ(warm.cacheHits, 2u);
    for (size_t i = 0; i < cold.programs.size(); ++i) {
        EXPECT_EQ(warm.programs[i].peakPowerW,
                  cold.programs[i].peakPowerW);
        EXPECT_EQ(warm.programs[i].scenario,
                  cold.programs[i].scenario);
    }
    // The two scenarios produced distinct numbers, so a shared entry
    // would have been wrong -- prove they differ on this program.
    EXPECT_NE(cold.programs[0].peakPowerW,
              cold.programs[1].peakPowerW);
    fs::remove_all(dir);
}

} // namespace
} // namespace ulpeak
