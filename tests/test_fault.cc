/**
 * @file
 * Tests of the SEU fault-injection subsystem (src/fault): outcome
 * classification, injection semantics (X-bit no-ops, double flips,
 * reset-cycle flips), divergence-report anatomy under faults, the
 * packed-vs-scalar lane-identity contract, and campaign determinism
 * (jobs / cache, every row against its scalar reference) plus the
 * cache-key exclusion rules.
 *
 * Suites named *Long* are excluded from the quick ctest label and run
 * under `ctest -L long` (see CMakeLists.txt and docs/testing.md).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "bench430/benchmarks.hh"
#include "cli/fault_driver.hh"
#include "fault/campaign.hh"
#include "fault/fault.hh"
#include "fuzz/netlist_gen.hh"
#include "fuzz/program_gen.hh"
#include "fuzz/properties.hh"
#include "fuzz/rng.hh"
#include "power/analysis.hh"
#include "tests/cpu_test_util.hh"
#include "tests/fork_util.hh"
#include "util/disk_cache.hh"

namespace ulpeak {
namespace {

/** A small deterministic program: a loop with register traffic, a
 *  store and a load, so register flips have something to corrupt. */
isa::Image
loopImage()
{
    return isa::assemble(test::wrapProgram(R"(
        mov #6, r4
        mov #0, r5
f_loop:
        add r4, r5
        dec r4
        jnz f_loop
        mov r5, &0x0300
        mov &0x0300, r7
    )"));
}

/** The flop site whose gate name is @p name (e.g. "r5[0]"). */
fault::Site
siteByName(const Netlist &nl, const std::string &name)
{
    for (const fault::Site &s : fault::flopSites(nl)) {
        if (fault::siteName(nl, s) == name)
            return s;
    }
    ADD_FAILURE() << "no flop site named " << name;
    return {};
}

TEST(FaultClassify, MapsEveryDivergenceKind)
{
    using K = cosim::Divergence::Kind;
    cosim::Result r;
    r.ok = true;
    EXPECT_EQ(fault::classify(r), fault::Outcome::Masked);
    r.ok = false;
    const std::pair<K, fault::Outcome> table[] = {
        {K::GateTimeout, fault::Outcome::Hang},
        {K::GateX, fault::Outcome::Crash},
        {K::Pc, fault::Outcome::Sdc},
        {K::Register, fault::Outcome::Sdc},
        {K::MemWrite, fault::Outcome::Sdc},
        {K::FinalMemory, fault::Outcome::Sdc},
        {K::Cycles, fault::Outcome::Sdc},
        {K::Halt, fault::Outcome::Sdc},
        {K::IssTrap, fault::Outcome::Sdc},
    };
    for (auto [kind, outcome] : table) {
        r.divergence.kind = kind;
        EXPECT_EQ(fault::classify(r), outcome);
    }
}

TEST(FaultRun, ZeroInjectionsReproduceTheGoldenRun)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img = loopImage();
    cosim::Result golden = cosim::run(sys, img, {});
    ASSERT_TRUE(golden.ok) << golden.report();

    fault::RunOptions opts;
    fault::FaultResult r = fault::runFaulted(sys, img, {}, opts);
    EXPECT_EQ(r.outcome, fault::Outcome::Masked);
    EXPECT_FALSE(r.applied);
    EXPECT_EQ(r.kind, cosim::Divergence::Kind::None);
    EXPECT_EQ(r.gateCycles, golden.gateCycles);
    EXPECT_EQ(r.instructionsRetired, golden.instructionsRetired);
    EXPECT_TRUE(r.report.empty());
}

TEST(FaultRun, DoubleFlipOfTheSameBitIsAppliedButMasked)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img = loopImage();
    cosim::Result golden = cosim::run(sys, img, {});
    ASSERT_TRUE(golden.ok) << golden.report();
    fault::Site site = siteByName(sys.netlist(), "r5[0]");
    uint64_t cycle = golden.gateCycles / 2;

    std::vector<fault::Injection> faults{{site, cycle}, {site, cycle}};
    fault::FaultResult r =
        fault::runFaulted(sys, img, faults, fault::RunOptions{});
    EXPECT_TRUE(r.applied) << "both flips landed on a known bit";
    EXPECT_EQ(r.outcome, fault::Outcome::Masked)
        << "flip twice = identity; report:\n"
        << r.report;
}

TEST(FaultRun, FlippingAnXBitIsANoOp)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img = loopImage();

    // An uninitialized RAM word is X on the gate side: the flip must
    // refuse (X already subsumes both values) and the run stay golden.
    fault::Site site;
    site.kind = fault::SiteKind::Ram;
    site.addr = 0x0700;
    site.bit = 3;
    std::vector<fault::Injection> faults{
        {site, msp::System::kResetCycles + 4}};
    fault::FaultResult r =
        fault::runFaulted(sys, img, faults, fault::RunOptions{});
    EXPECT_FALSE(r.applied);
    EXPECT_EQ(r.outcome, fault::Outcome::Masked);
}

TEST(FaultRun, ResetCycleFlipsAreInjectableAndClassified)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img = loopImage();
    fault::Site site = siteByName(sys.netlist(), "r5[0]");

    // Cycle 2 lies inside the reset sequence; the flip must land (the
    // bit is driven, hence known) and the run still classify -- reset
    // usually scrubs it back to Masked, but any outcome is legal.
    std::vector<fault::Injection> faults{{site, 2}};
    fault::FaultResult scalarR =
        fault::runFaulted(sys, img, faults, fault::RunOptions{});
    std::array<std::vector<fault::Injection>,
               PackedSimulator::kLanes>
        lanes;
    lanes[0] = faults;
    auto packedR =
        fault::runFaultedPacked(sys, img, lanes, fault::RunOptions{}).rows;
    EXPECT_TRUE(scalarR.sameClassification(packedR[0]));
    EXPECT_EQ(packedR[1].outcome, fault::Outcome::Masked)
        << "fault-free lane";
}

TEST(FaultRun, RegisterFlipReportsExactDivergenceAnatomy)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img = loopImage();
    cosim::Result golden = cosim::run(sys, img, {});
    ASSERT_TRUE(golden.ok) << golden.report();

    // Flip the live accumulator bit 0 right before the final store:
    // the sum is off by one, so the store (or the register compare at
    // the next boundary) must diverge -- silent data corruption.
    fault::Site site = siteByName(sys.netlist(), "r5[0]");
    uint64_t cycle = golden.gateCycles - 30;
    std::vector<fault::Injection> faults{{site, cycle}};
    fault::FaultResult r =
        fault::runFaulted(sys, img, faults, fault::RunOptions{});
    ASSERT_TRUE(r.applied);
    ASSERT_EQ(r.outcome, fault::Outcome::Sdc) << r.report;
    EXPECT_NE(r.kind, cosim::Divergence::Kind::None);

    // First-divergent-cycle exactness: at or after the injection,
    // within the faulted run's own length.
    EXPECT_GE(r.divergenceCycle, cycle);
    EXPECT_LE(r.divergenceCycle, r.gateCycles);
    EXPECT_LE(r.instrIndex, r.instructionsRetired);

    // Report anatomy: named kind, first-at line carrying the exact
    // cycle, and a bounded disassembly window marking the faulting
    // instruction.
    EXPECT_NE(r.report.find("first at:"), std::string::npos);
    EXPECT_NE(r.report.find("gate cycle " +
                            std::to_string(r.divergenceCycle)),
              std::string::npos);
    EXPECT_NE(r.report.find("window:"), std::string::npos);
    EXPECT_NE(r.report.find("> 0x"), std::string::npos);
    size_t window = r.report.find("window:");
    unsigned rows = 0;
    for (size_t p = r.report.find("0x", window);
         p != std::string::npos && p + 6 < r.report.size();
         p = r.report.find("0x", p + 1)) {
        if (r.report[p + 6] == ':')
            ++rows; // "0xf8..:" address column rows only
    }
    EXPECT_GE(rows, 1u);
    EXPECT_LE(rows, 7u) << "disasm window is bounded:\n" << r.report;
}

TEST(FaultRun, PackedLanesMatchScalarRuns)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    msp::System &sys = test::sharedSystem();
    isa::Image img = loopImage();
    cosim::Result golden = cosim::run(sys, img, {});
    ASSERT_TRUE(golden.ok) << golden.report();

    std::vector<fault::Site> sites =
        fault::flopSites(sys.netlist());
    power::PowerContext ctx(sys.netlist(), 100e6);
    fault::RunOptions opts;
    opts.powerCtx = &ctx;

    // 64 distinct injections spread over sites and cycles (including
    // a fault-free lane and a double-flip lane).
    fuzz::Rng rng(2026);
    std::array<std::vector<fault::Injection>, kLanes> lanes;
    for (unsigned l = 1; l < kLanes; ++l) {
        fault::Injection inj;
        inj.site = sites[rng.below(unsigned(sites.size()))];
        inj.cycle = rng.below(unsigned(golden.gateCycles));
        lanes[l].push_back(inj);
        if (l == 2)
            lanes[l].push_back(inj); // double flip
    }

    auto packed = fault::runFaultedPacked(sys, img, lanes, opts).rows;
    for (unsigned l = 0; l < kLanes; ++l) {
        fault::FaultResult scalar =
            fault::runFaulted(sys, img, lanes[l], opts);
        EXPECT_TRUE(scalar.sameClassification(packed[l]))
            << "lane " << l << ": scalar "
            << fault::outcomeName(scalar.outcome) << " @"
            << scalar.divergenceCycle << " peak " << scalar.peakPowerW
            << ", packed " << fault::outcomeName(packed[l].outcome)
            << " @" << packed[l].divergenceCycle << " peak "
            << packed[l].peakPowerW;
        EXPECT_TRUE(packed[l].report.empty());
    }
}

// A flip of a live r15 bit is caught by the packed runner at the
// next instruction boundary, as the register compare it is.
TEST(FaultRun, PackedR15FlipIsARegisterDivergence)
{
    msp::System &sys = test::sharedSystem();
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov #0x1234, r15
        mov #8, r4
r_loop:
        dec r4
        jnz r_loop
    )"));
    cosim::Result golden = cosim::run(sys, img, {});
    ASSERT_TRUE(golden.ok) << golden.report();

    std::array<std::vector<fault::Injection>, PackedSimulator::kLanes>
        lanes;
    const uint64_t cycle = golden.gateCycles / 2; // inside the loop
    lanes[0].push_back({siteByName(sys.netlist(), "r15[3]"), cycle});
    auto packed =
        fault::runFaultedPacked(sys, img, lanes, fault::RunOptions{}).rows;
    EXPECT_TRUE(packed[0].applied);
    EXPECT_EQ(packed[0].outcome, fault::Outcome::Sdc);
    EXPECT_EQ(packed[0].kind, cosim::Divergence::Kind::Register);
    EXPECT_GT(packed[0].divergenceCycle, cycle);
    EXPECT_LE(packed[0].divergenceCycle, cycle + 8)
        << "caught at the next boundary";
    EXPECT_EQ(packed[1].outcome, fault::Outcome::Masked);
}

// A batch started from the golden checkpoint at cycle c equals the
// same batch run from reset, lane by lane, on tea8 with its `ulfault
// --seed 7` inputs and envelope: flips at c, at c + 1 and at the
// golden run's last cycle, a RAM-bit flip, X-bit no-ops (flop and
// RAM), a hang and a fault-free lane. A batch whose first injection
// lies inside reset starts from reset.
TEST(FaultRun, CheckpointedBatchMatchesFromReset)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions copts;
    copts.seed = 7;
    copts.withEnvelope = true;
    isa::Image img = bench430::benchmarkByName("tea8").assembleImage();
    cli::foldBenchmarkInputs("tea8", copts.seed, img, copts.portIn, false);

    // The campaign supplies an injection that hangs.
    fault::CampaignResult camp = fault::runCampaign(lib, img, copts);
    ASSERT_TRUE(camp.ok) << camp.error;
    const fault::InjectionResult *hang = nullptr;
    for (const fault::InjectionResult &ir : camp.injections)
        if (!hang && ir.r.outcome == fault::Outcome::Hang)
            hang = &ir;
    ASSERT_NE(hang, nullptr) << "tea8 at seed 7 has a hang row";

    msp::System sys(lib);
    fault::CampaignSetup setup(sys, img, copts);
    ASSERT_TRUE(setup.golden.ok);
    setup.analyzeEnvelope();
    ASSERT_TRUE(setup.envelope.present) << setup.envelopeError;
    const fault::RunOptions ropts = setup.runOptions();
    const uint64_t c = hang->cycle;
    const uint64_t last = setup.golden.gateCycles - 1;
    ASSERT_GE(c, msp::System::kResetCycles);
    ASSERT_LT(c + 2, last);

    const std::vector<fault::GoldenCheckpoint> cps =
        fault::goldenCheckpoints(sys, img, {c}, ropts);
    const fault::GoldenCheckpoint *start = fault::batchStart(cps, c);
    ASSERT_NE(start, nullptr);
    ASSERT_EQ(start->sim.cycle, c);
    EXPECT_EQ(fault::batchStart(cps, c + 1), start);

    // A known and an X flop, and a known and an X RAM word, at c.
    const std::vector<fault::Site> flops = fault::flopSites(sys.netlist());
    fault::Site knownFlop, xFlop;
    bool haveKnown = false, haveX = false;
    for (const fault::Site &f : flops) {
        const bool x = start->sim.val[f.gate] == V4::X;
        if (x && !haveX) {
            xFlop = f;
            haveX = true;
        } else if (!x && !haveKnown) {
            knownFlop = f;
            haveKnown = true;
        }
    }
    ASSERT_TRUE(haveKnown && haveX);
    Memory mem = sys.memory();
    mem.restore(start->sys.mem);
    fault::Site knownRam, xRam;
    knownRam.kind = xRam.kind = fault::SiteKind::Ram;
    knownRam.bit = 4;
    xRam.bit = 9;
    knownRam.addr = xRam.addr = 0;
    for (uint32_t a = mem.ramBase(); a < mem.ramBase() + mem.ramSize();
         a += 2) {
        const bool known = mem.read(a).isFullyKnown();
        if (known && !knownRam.addr)
            knownRam.addr = a;
        if (!known && !xRam.addr)
            xRam.addr = a;
    }
    ASSERT_TRUE(knownRam.addr && xRam.addr);

    std::array<std::vector<fault::Injection>, kLanes> lanes;
    lanes[0] = {{camp.sites[hang->siteIndex], c}};
    lanes[1] = {{knownFlop, c}};
    lanes[2] = {{xFlop, c}};
    lanes[3] = {{knownFlop, c + 1}};
    lanes[4] = {{knownFlop, last}};
    lanes[5] = {{knownRam, c + 1}};
    lanes[6] = {{xRam, c}};
    // lanes[7] stays fault-free: the golden run from the checkpoint.
    fuzz::Rng rng(35);
    for (unsigned l = 8; l < kLanes; ++l)
        lanes[l] = {{flops[rng.below(unsigned(flops.size()))],
                     c + rng.below(unsigned(last + 1 - c))}};
    lanes[kLanes - 1] = {{flops[rng.below(unsigned(flops.size()))], last}};

    const fault::PackedBatch fromCp =
        fault::runFaultedPacked(sys, img, lanes, ropts, start);
    const fault::PackedBatch fromReset =
        fault::runFaultedPacked(sys, img, lanes, ropts);
    unsigned escapes = 0;
    for (unsigned l = 0; l < kLanes; ++l) {
        SCOPED_TRACE("lane " + std::to_string(l));
        const fault::FaultResult &a = fromCp.rows[l];
        const fault::FaultResult &b = fromReset.rows[l];
        EXPECT_TRUE(a.sameClassification(b))
            << fault::outcomeName(a.outcome) << "@" << a.divergenceCycle
            << " vs " << fault::outcomeName(b.outcome) << "@"
            << b.divergenceCycle;
        EXPECT_EQ(a.peakPowerW, b.peakPowerW);
        EXPECT_EQ(a.peakCycle, b.peakCycle);
        EXPECT_EQ(a.traceCycles, b.traceCycles);
        EXPECT_EQ(a.envelopeEscape, b.envelopeEscape);
        EXPECT_EQ(a.escapeCycle, b.escapeCycle);
        escapes += a.envelopeEscape;
    }
    EXPECT_EQ(fromCp.rows[0].outcome, fault::Outcome::Hang);
    EXPECT_TRUE(fromCp.rows[1].applied);
    EXPECT_FALSE(fromCp.rows[2].applied) << "an X flop flips nothing";
    EXPECT_TRUE(fromCp.rows[5].applied);
    EXPECT_FALSE(fromCp.rows[6].applied) << "an X RAM bit flips nothing";
    EXPECT_EQ(fromCp.rows[7].outcome, fault::Outcome::Masked);
    EXPECT_EQ(fromCp.rows[7].gateCycles, setup.golden.gateCycles);
    EXPECT_GT(escapes, 0u) << "the escape fields are compared too";
    EXPECT_EQ(fromReset.sweeps - fromCp.sweeps, c - msp::System::kResetCycles)
        << "the checkpoint skips the golden prefix's sweeps";

    // A first injection inside reset has no checkpoint at or before
    // it: that batch takes the reset path, where the flip lands and
    // the lane is its scalar run.
    std::array<std::vector<fault::Injection>, kLanes> early;
    early[0] = {{knownFlop, 2}};
    EXPECT_EQ(fault::batchStart(cps, 2), nullptr);
    EXPECT_EQ(fault::batchStart(cps, c - 1), nullptr);
    EXPECT_THROW(fault::runFaultedPacked(sys, img, early, ropts, start),
                 std::invalid_argument);
    const fault::PackedBatch fromResetEarly = fault::runFaultedPacked(
        sys, img, early, ropts, fault::batchStart(cps, 2));
    EXPECT_TRUE(fromResetEarly.rows[0].sameClassification(
        fault::runFaulted(sys, img, early[0], ropts)));
}

// The packed runner folds the same fields cycle by cycle
// (fault::TraceFold); every case must fold to applyPowerTrace's row.
TEST(FaultPower, ApplyPowerTraceFindsFirstPeakAndEscapes)
{
    auto folded = [](const std::vector<float> &trace,
                     const peak::Envelope *env) {
        fault::TraceFold fold;
        for (float w : trace)
            fold.add(w, env);
        fault::FaultResult r;
        fold.applyTo(r);
        return r;
    };
    fault::FaultResult r;
    std::vector<float> trace{1.0f, 3.0f, 2.0f, 3.0f};
    fault::applyPowerTrace(r, trace, nullptr);
    EXPECT_EQ(r.traceCycles, 4u);
    EXPECT_EQ(r.peakPowerW, 3.0f);
    EXPECT_EQ(r.peakCycle, 1u) << "first argmax wins";
    EXPECT_FALSE(r.envelopeEscape);
    EXPECT_TRUE(folded(trace, nullptr).sameClassification(r));

    peak::Envelope env;
    env.present = true;
    env.powerW = {2.0f, 2.0f, 2.0f, 2.0f};
    fault::applyPowerTrace(r, trace, &env);
    EXPECT_TRUE(r.envelopeEscape);
    EXPECT_EQ(r.escapeCycle, 1u);
    EXPECT_TRUE(folded(trace, &env).sameClassification(r));

    env.powerW = {4.0f, 4.0f, 4.0f, 4.0f};
    fault::applyPowerTrace(r, trace, &env);
    EXPECT_FALSE(r.envelopeEscape);
    EXPECT_TRUE(folded(trace, &env).sameClassification(r));

    // A trace past the envelope's end escapes at its first unbounded
    // cycle.
    env.powerW = {4.0f, 4.0f};
    fault::applyPowerTrace(r, trace, &env);
    EXPECT_TRUE(r.envelopeEscape);
    EXPECT_EQ(r.escapeCycle, 2u);
    EXPECT_TRUE(folded(trace, &env).sameClassification(r));
}

TEST(FaultCampaign, RowsAreIdenticalAcrossJobsPackedAndCache)
{
    isa::Image img = loopImage();
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions opts;
    opts.seed = 11;
    opts.maxFlopSites = 10;
    opts.cyclesPerSite = 2;
    opts.ramSites = 2;

    fault::CampaignResult a = fault::runCampaign(lib, img, opts);
    ASSERT_TRUE(a.ok) << a.error;
    EXPECT_EQ(a.injections.size(), 24u);
    EXPECT_EQ(a.hangCycles, 4 * a.goldenCycles + 64)
        << "auto hang budget";
    EXPECT_EQ(a.masked + a.sdc + a.crash + a.hang,
              a.injections.size());

    // At the default and at 3 jobs, every packed row is what the scalar
    // runner reports for that injection alone.
    opts.jobs = 3;
    fault::CampaignResult b = fault::runCampaign(lib, img, opts);
    EXPECT_EQ(fuzz::scalarRowsDiff(lib, img, opts, {&a, &b}), "");

    // Cache round trip: cold store, warm hit, identical rows.
    // TempDir persists across test-binary runs, so evict this key's
    // entry first to make the first run genuinely cold.
    opts.cacheDir = ::testing::TempDir() + "ulfault-cache";
    char stale[600];
    std::snprintf(stale, sizeof stale, "%s/fault-%016llx.txt",
                  opts.cacheDir.c_str(),
                  (unsigned long long)fault::campaignCacheKey(lib, img,
                                                              opts));
    std::remove(stale);
    fault::CampaignResult cold = fault::runCampaign(lib, img, opts);
    fault::CampaignResult warm = fault::runCampaign(lib, img, opts);
    ASSERT_TRUE(cold.ok && warm.ok);
    EXPECT_FALSE(cold.cacheHit);
    EXPECT_TRUE(warm.cacheHit);
    ASSERT_EQ(warm.injections.size(), a.injections.size());
    for (size_t i = 0; i < a.injections.size(); ++i)
        EXPECT_TRUE(a.injections[i].r.sameClassification(
            warm.injections[i].r))
            << "row " << i << " differs after the cache round trip";
}

// Four processes fill one campaign cache directory at the same time.
// Afterwards a warm campaign hits and matches a --no-cache one byte for
// byte, and no temp file is left behind.
TEST(FaultCampaign, ForkedProcessesShareOneCacheDirectory)
{
    namespace fs = std::filesystem;
    isa::Image img = loopImage();
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions opts;
    opts.seed = 5;
    opts.maxFlopSites = 8;
    opts.ramSites = 2;
    fault::CampaignResult cold = fault::runCampaign(lib, img, opts);
    ASSERT_TRUE(cold.ok) << cold.error;
    const std::string reference =
        cli::toFaultJson(cold, opts, "loop", false);

    fs::path dir = fs::temp_directory_path() /
                   ("ulfault_fork_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    opts.cacheDir = dir.string();
    unsigned ok = test::forkAndRun(4, [&] {
        fault::CampaignResult r = fault::runCampaign(lib, img, opts);
        return r.ok && cli::toFaultJson(r, opts, "loop", false) == reference;
    });
    EXPECT_EQ(ok, 4u);

    fault::CampaignResult warm = fault::runCampaign(lib, img, opts);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(cli::toFaultJson(warm, opts, "loop", false), reference);
    for (const fs::directory_entry &e : fs::directory_iterator(dir))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << e.path();
    fs::remove_all(dir);
}

// A cache entry whose header parses but whose rows are rejected, or
// whose header repeats a key, is a miss that leaves nothing behind:
// the re-run reports, and stores, exactly what a --no-cache campaign
// reports.
TEST(FaultCampaign, RejectedCacheEntryLeavesNoFieldsBehind)
{
    namespace fs = std::filesystem;
    isa::Image img = loopImage();
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions opts;
    opts.seed = 3;
    opts.maxFlopSites = 8;
    opts.ramSites = 2;
    const std::string reference = cli::toFaultJson(
        fault::runCampaign(lib, img, opts), opts, "loop", false);

    fs::path dir = fs::temp_directory_path() /
                   ("ulfault_reject_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    opts.cacheDir = dir.string();
    ASSERT_TRUE(fault::runCampaign(lib, img, opts).ok);
    fs::path entry =
        util::DiskCache(opts.cacheDir, "fault-", "ulfault-cache-v1")
            .path(fault::campaignCacheKey(lib, img, opts));
    ASSERT_TRUE(fs::exists(entry)) << entry;
    std::ofstream(entry) << "ulfault-cache-v1\n"
                         << "golden_cycles 7\n"
                         << "hang_cycles 40\n"
                         << "envelope_cycles 99\n"
                         << "rows 1\n";

    fault::CampaignResult rerun = fault::runCampaign(lib, img, opts);
    EXPECT_FALSE(rerun.cacheHit);
    EXPECT_EQ(cli::toFaultJson(rerun, opts, "loop", false), reference);
    fault::CampaignResult warm = fault::runCampaign(lib, img, opts);
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(cli::toFaultJson(warm, opts, "loop", false), reference);

    // A valid entry with a header key repeated (a second, different
    // hang_cycles line before the rows) is malformed too.
    std::stringstream text;
    text << std::ifstream(entry).rdbuf();
    std::string body = text.str();
    size_t rows = body.find("\nrows ");
    ASSERT_NE(rows, std::string::npos) << body;
    body.insert(rows + 1, "hang_cycles " +
                              std::to_string(warm.hangCycles + 1) + "\n");
    std::ofstream(entry) << body;
    fault::CampaignResult repeated = fault::runCampaign(lib, img, opts);
    EXPECT_FALSE(repeated.cacheHit);
    EXPECT_EQ(cli::toFaultJson(repeated, opts, "loop", false), reference);
    fs::remove_all(dir);
}

// An unusable --cache-dir (a regular file) is a usage error that names
// the flag and the path, not a campaign error.
TEST(FaultCli, UnusableCacheDirIsAUsageError)
{
    std::string file = ::testing::TempDir() + "ulfault-not-a-dir";
    std::ofstream(file) << "x";
    const char *argv[] = {"ulfault", "mult", "--max-sites", "2",
                          "--quiet", "--cache-dir", file.c_str()};
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli::runFaultCli(7, argv), 2);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--cache-dir " + file + ": "), std::string::npos)
        << err;

    fault::CampaignOptions opts;
    opts.maxFlopSites = 2;
    opts.cacheDir = file;
    EXPECT_THROW(fault::runCampaign(CellLibrary::tsmc65Like(),
                                    loopImage(), opts),
                 util::DiskCacheError);
    std::remove(file.c_str());
}

TEST(FaultCampaign, CacheKeyExcludesExecutionStrategyOnly)
{
    isa::Image img = loopImage();
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions opts;
    opts.maxFlopSites = 10;
    uint64_t base = fault::campaignCacheKey(lib, img, opts);

    // The determinism contract: jobs and evalMode cannot change any
    // row, so they must not change the key.
    fault::CampaignOptions o = opts;
    o.jobs = 8;
    EXPECT_EQ(fault::campaignCacheKey(lib, img, o), base);
    o = opts;
    o.evalMode = EvalMode::FullSweep;
    EXPECT_EQ(fault::campaignCacheKey(lib, img, o), base);
    // The rows of the packed campaign are what the full-sweep scalar
    // runner reports for each of them.
    fault::CampaignResult packed = fault::runCampaign(lib, img, opts);
    ASSERT_TRUE(packed.ok) << packed.error;
    EXPECT_EQ(fuzz::scalarRowsDiff(lib, img, o, {&packed}), "");

    // Everything result-affecting must.
    o = opts;
    o.seed = 2;
    EXPECT_NE(fault::campaignCacheKey(lib, img, o), base);
    o = opts;
    o.cyclesPerSite = 3;
    EXPECT_NE(fault::campaignCacheKey(lib, img, o), base);
    o = opts;
    o.maxFlopSites = 11;
    EXPECT_NE(fault::campaignCacheKey(lib, img, o), base);
    o = opts;
    o.ramSites = 1;
    EXPECT_NE(fault::campaignCacheKey(lib, img, o), base);
    o = opts;
    o.portIn = 1;
    EXPECT_NE(fault::campaignCacheKey(lib, img, o), base);
    o = opts;
    o.withEnvelope = true;
    EXPECT_NE(fault::campaignCacheKey(lib, img, o), base);

    isa::Image img2 = img;
    img2.segments.front().words.back() ^= 1;
    EXPECT_NE(fault::campaignCacheKey(lib, img2, opts), base);
}

TEST(FaultCampaign, RefusesADivergingGoldenRun)
{
    // Reading an uninitialized RAM word is X on the gate side and 0
    // in the ISS: the unfaulted run itself diverges, and classifying
    // faults on top of that would be meaningless.
    isa::Image img = isa::assemble(test::wrapProgram(R"(
        mov &0x0400, r4
        mov r4, &0x0300
    )"));
    fault::CampaignOptions opts;
    opts.maxFlopSites = 4;
    fault::CampaignResult r =
        fault::runCampaign(CellLibrary::tsmc65Like(), img, opts);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("golden run diverges"), std::string::npos)
        << r.error;
    EXPECT_TRUE(r.injections.empty());
}

TEST(FaultCampaign, SiteAndCycleDerivationIsSeedStable)
{
    msp::System &sys = test::sharedSystem();
    fault::CampaignOptions opts;
    opts.seed = 5;
    opts.maxFlopSites = 8;
    opts.ramSites = 3;
    std::vector<fault::Site> a =
        fault::campaignSites(sys.netlist(), sys, opts);
    std::vector<fault::Site> b =
        fault::campaignSites(sys.netlist(), sys, opts);
    ASSERT_EQ(a.size(), 11u);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    for (size_t i = 8; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, fault::SiteKind::Ram);
        EXPECT_GE(a[i].addr, isa::SystemMap::kRamBase);
    }

    std::vector<uint64_t> c1 =
        fault::siteInjectionCycles(opts.seed, 3, 4, 500);
    std::vector<uint64_t> c2 =
        fault::siteInjectionCycles(opts.seed, 3, 4, 500);
    ASSERT_EQ(c1.size(), 4u);
    EXPECT_EQ(c1, c2);
    for (uint64_t c : c1)
        EXPECT_LT(c, 500u);
    EXPECT_NE(c1, fault::siteInjectionCycles(opts.seed, 4, 4, 500));
}

/** Long tier: the fuzz properties at depth (docs/testing.md). */
// Control characters in a campaign error come out JSON-escaped, so
// the report stays valid JSON.
TEST(FaultCampaign, JsonEscapesControlCharactersInErrors)
{
    fault::CampaignResult res;
    res.ok = false;
    res.error = "golden run\rdiverged\x01";
    std::string j = cli::toFaultJson(res, fault::CampaignOptions(),
                                     "mult", false);
    EXPECT_NE(j.find("\"golden run\\rdiverged\\u0001\""),
              std::string::npos)
        << j;
    for (char c : j)
        EXPECT_TRUE(c == '\n' || static_cast<unsigned char>(c) >= 0x20)
            << "raw control byte " << int(c);
}

TEST(FaultFuzzLong, FaultedPackedLaneIdentityOnRandomNetlists)
{
    fuzz::NetlistGenOptions gen;
    for (uint64_t seed = 100; seed < 112; ++seed) {
        fuzz::PropertyResult r =
            fuzz::faultedPackedEquivalenceCheck(seed, gen, 48);
        EXPECT_TRUE(r.ok) << r.detail;
    }
}

TEST(FaultFuzzLong, CampaignDeterminismOnRandomPrograms)
{
    fuzz::ProgramGenOptions gen;
    gen.instructions = 20;
    for (uint64_t seed = 0; seed < 4; ++seed) {
        fuzz::Rng rng(fuzz::Rng::deriveStream(seed, 77));
        fuzz::GeneratedProgram prog = fuzz::generateProgram(rng, gen);
        SCOPED_TRACE(prog.source);
        fuzz::PropertyResult r = fuzz::faultCampaignDeterminismCheck(
            isa::assemble(prog.source), rng.next(), 3);
        EXPECT_TRUE(r.ok) << r.detail;
    }
}

} // namespace
} // namespace ulpeak
