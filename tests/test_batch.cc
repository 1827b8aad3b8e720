/**
 * @file
 * Tests of the batch driver (peak::analyzeBatch + the cli layer):
 * suite determinism under program-level parallelism (jobs=1 and
 * jobs=N must produce byte-identical JSON modulo timings, and match
 * serial single-program peak::analyze bit for bit), disk-cache
 * hit/miss behavior including corrupted entries, cache-key exclusion
 * rules, error propagation when one program of a suite fails, and the
 * CLI surface (argument parsing, program resolution, CSV shape).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>

#include <unistd.h>

#include "bench430/benchmarks.hh"
#include "cli/driver.hh"
#include "cli/fault_driver.hh"
#include "fault/campaign.hh"
#include "fuzz/properties.hh"
#include "peak/batch.hh"
#include "tests/cpu_test_util.hh"
#include "tests/fork_util.hh"
#include "util/disk_cache.hh"
#include "util/worker_pool.hh"

namespace ulpeak {
namespace {

namespace fs = std::filesystem;

std::vector<peak::BatchProgram>
smallSuite()
{
    // The three fastest bench430 programs keep the suite tests quick.
    return cli::resolvePrograms({"mult", "tHold", "intAVG"});
}

/** A busy-wait loop on port input: rejected as an unbounded
 *  input-dependent loop when the loop bound is 0. */
isa::Image
unboundedLoopImage()
{
    return isa::assemble(test::wrapProgram(R"(
bw_wait:
        mov &0x0020, r4
        and #1, r4
        jnz bw_wait
    )"));
}

/** RAII temp directory for cache tests. */
struct TempDir {
    fs::path path;
    TempDir()
    {
        path = fs::temp_directory_path() /
               ("ulpeak_batch_test_" +
                std::to_string(::getpid()) + "_" +
                std::to_string(counter()++));
        fs::remove_all(path);
    }
    ~TempDir() { fs::remove_all(path); }
    static unsigned &counter()
    {
        static unsigned c = 0;
        return c;
    }
};

TEST(Batch, MatchesSerialSingleProgramAnalyze)
{
    auto suite = smallSuite();
    peak::BatchOptions opts; // jobs=1, no cache
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(rep.ok);
    ASSERT_EQ(rep.programs.size(), suite.size());

    msp::System &sys = test::sharedSystem();
    for (size_t i = 0; i < suite.size(); ++i) {
        peak::Report direct =
            peak::analyze(sys, suite[i].image, opts.analysis);
        ASSERT_TRUE(direct.ok) << suite[i].name;
        const peak::ProgramResult &r = rep.programs[i];
        EXPECT_EQ(r.name, suite[i].name);
        // Bit-identical, not approximately equal: the batch driver
        // must not perturb the per-program numbers in any way.
        EXPECT_EQ(r.peakPowerW, direct.peakPowerW) << r.name;
        EXPECT_EQ(r.peakEnergyJ, direct.peakEnergyJ) << r.name;
        EXPECT_EQ(r.npeJPerCycle, direct.npeJPerCycle) << r.name;
        EXPECT_EQ(r.maxPathCycles, direct.maxPathCycles) << r.name;
        EXPECT_EQ(r.totalCycles, direct.totalCycles) << r.name;
        EXPECT_EQ(r.pathsExplored, direct.pathsExplored) << r.name;
        EXPECT_EQ(r.dedupMerges, direct.dedupMerges) << r.name;
    }
}

TEST(Batch, DeterministicAcrossWorkerCounts)
{
    auto suite = smallSuite();
    peak::BatchOptions serial;
    serial.jobs = 1;
    peak::BatchOptions parallel;
    parallel.jobs = 4;

    peak::BatchReport a = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, serial);
    peak::BatchReport b = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, parallel);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);

    // Identical JSON modulo timings: the serializer drops wall-time
    // and cache/worker provenance when include_timings is false, and
    // everything that remains must match byte for byte.
    std::string ja = cli::toJson(a, serial, /*include_timings=*/false);
    std::string jb = cli::toJson(b, parallel,
                                 /*include_timings=*/false);
    EXPECT_EQ(ja, jb);

    EXPECT_EQ(a.maxPeakPowerW, b.maxPeakPowerW);
    EXPECT_EQ(a.maxPeakPowerProgram, b.maxPeakPowerProgram);
    EXPECT_EQ(a.maxPeakEnergyJ, b.maxPeakEnergyJ);
    EXPECT_EQ(a.maxNpeJPerCycle, b.maxNpeJPerCycle);
}

// The CLI default -- no --jobs/--threads, so the CPU budget splits
// the host -- against one job of one thread: the reports (envelopes
// and the per-mode report included) are byte-identical, and the run
// block says how the budget was resolved.
TEST(Batch, DefaultCpuBudgetMatchesSerial)
{
    auto run = [](std::vector<const char *> extra, std::string &out) {
        std::vector<const char *> argv = {
            "ulpeak", "mult,tHold,intAVG", "--no-cache", "--envelope",
            "--modes=json", "--scenario", "unconstrained,duty-cycled-dvfs"};
        argv.insert(argv.end(), extra.begin(), extra.end());
        cli::CliOptions cli;
        std::string err;
        EXPECT_TRUE(cli::parseArgs(int(argv.size()), argv.data(), cli, err))
            << err;
        peak::BatchOptions opts = cli::toBatchOptions(cli);
        std::vector<peak::BatchProgram> suite =
            cli::resolvePrograms(cli.programSpecs);
        const CellLibrary lib = CellLibrary::tsmc65Like();
        peak::BatchReport rep = peak::analyzeBatch(lib, suite, opts);
        EXPECT_TRUE(rep.ok);
        out = cli::toJson(rep, opts, /*include_timings=*/false) +
              cli::toModesJson(rep, cli::buildModeReports(
                                        rep, opts.scenarios, lib.vdd()));
        std::string timed = cli::toJson(rep, opts, true);
        for (std::string field :
             {"\"jobs\": " + std::to_string(rep.jobs),
              "\"threads\": " + std::to_string(rep.threads),
              "\"host_cpus\": " + std::to_string(rep.hostCpus)})
            EXPECT_NE(timed.find(field), std::string::npos) << field;
        return rep;
    };
    std::string budgeted, serial;
    peak::BatchReport a = run({}, budgeted);
    peak::BatchReport b = run({"--jobs", "1", "--threads", "1"}, serial);
    EXPECT_EQ(budgeted, serial);

    EXPECT_EQ(a.hostCpus, util::hostCpus());
    // One budget item per analysis group: a program's scenarios share
    // one exploration.
    EXPECT_EQ(a.jobs, util::cpuBudget(a.programs.size() / 2, 0, 0,
                                      a.hostCpus).jobs);
    EXPECT_LE(a.jobs * a.threads, a.hostCpus);
    EXPECT_EQ(b.jobs, 1u);
    EXPECT_EQ(b.threads, 1u);
}

TEST(Batch, SuiteAggregatesAndSizing)
{
    auto suite = smallSuite();
    peak::BatchOptions opts;
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(rep.ok);

    double maxP = 0, maxE = 0;
    for (const auto &r : rep.programs) {
        maxP = std::max(maxP, r.peakPowerW);
        maxE = std::max(maxE, r.peakEnergyJ);
    }
    EXPECT_EQ(rep.maxPeakPowerW, maxP);
    EXPECT_EQ(rep.maxPeakEnergyJ, maxE);
    EXPECT_FALSE(rep.maxPeakPowerProgram.empty());

    // The supply table is sized from the suite maxima.
    ASSERT_EQ(rep.supply.harvesters.size(),
              sizing::harvesterTypes().size());
    ASSERT_EQ(rep.supply.batteries.size(),
              sizing::batteryTypes().size());
    EXPECT_EQ(rep.supply.peakPowerW, maxP);
    EXPECT_EQ(rep.supply.harvesters[0].areaCm2,
              sizing::harvesterAreaCm2(maxP,
                                       sizing::harvesterTypes()[0]));
}

TEST(Batch, CacheHitsReproduceColdRunExactly)
{
    TempDir dir;
    auto suite = smallSuite();
    peak::BatchOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir.path.string();

    peak::BatchReport cold = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(cold.ok);
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_EQ(cold.cacheMisses, unsigned(suite.size()));
    for (const auto &r : cold.programs)
        EXPECT_FALSE(r.cached);

    peak::BatchReport warm = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.cacheHits, unsigned(suite.size()));
    EXPECT_EQ(warm.cacheMisses, 0u);
    for (size_t i = 0; i < suite.size(); ++i) {
        EXPECT_TRUE(warm.programs[i].cached);
        // Hexfloat round-trip: bit-identical to the cold run.
        EXPECT_EQ(warm.programs[i].peakPowerW,
                  cold.programs[i].peakPowerW);
        EXPECT_EQ(warm.programs[i].peakEnergyJ,
                  cold.programs[i].peakEnergyJ);
        EXPECT_EQ(warm.programs[i].npeJPerCycle,
                  cold.programs[i].npeJPerCycle);
        EXPECT_EQ(warm.programs[i].totalCycles,
                  cold.programs[i].totalCycles);
    }
    EXPECT_EQ(cli::toJson(warm, opts, false),
              cli::toJson(cold, opts, false));
}

TEST(Batch, CorruptedCacheEntryIsAMiss)
{
    TempDir dir;
    auto suite = cli::resolvePrograms({"intAVG"});
    peak::BatchOptions opts;
    opts.cacheDir = dir.path.string();

    peak::BatchReport cold = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(cold.ok);

    // Truncate every cache entry; the next run must detect the
    // damage, recompute, and rewrite.
    for (const auto &e : fs::directory_iterator(dir.path))
        std::ofstream(e.path()) << "ulpeak-cache-v1\n";

    peak::BatchReport rerun = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(rerun.ok);
    EXPECT_EQ(rerun.cacheHits, 0u);
    EXPECT_EQ(rerun.cacheMisses, 1u);
    EXPECT_EQ(rerun.programs[0].peakPowerW,
              cold.programs[0].peakPowerW);

    peak::BatchReport warm = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    EXPECT_EQ(warm.cacheHits, 1u);
}

// Regression (bugfix): cache entries now carry a format-version
// header. An entry written by a pre-envelope binary (v1 format, no
// envelope payload) must be a miss -- not deserialize into a report
// missing its envelope -- even if it lands at the right path.
TEST(Batch, StalePreEnvelopeCacheEntryIsAMiss)
{
    TempDir dir;
    auto suite = cli::resolvePrograms({"intAVG"});
    peak::BatchOptions opts;
    opts.cacheDir = dir.path.string();
    opts.analysis.recordEnvelope = true;

    peak::BatchReport cold = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(cold.ok);
    ASSERT_TRUE(cold.programs[0].envelope.present);

    // Rewrite every entry as a complete, well-formed *v1* entry (the
    // old magic, scalar fields only): the version check alone must
    // reject it.
    for (const auto &e : fs::directory_iterator(dir.path))
        std::ofstream(e.path())
            << "ulpeak-cache-v1\n"
            << "peak_power_w_bits 3f50624dd2f1a9fc\n"
            << "peak_energy_j_bits 3f50624dd2f1a9fc\n"
            << "npe_j_per_cycle_bits 3f50624dd2f1a9fc\n"
            << "max_path_cycles 1\n"
            << "total_cycles 1\n"
            << "paths_explored 1\n"
            << "dedup_merges 0\n";

    peak::BatchReport rerun = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(rerun.ok);
    EXPECT_EQ(rerun.cacheHits, 0u);
    EXPECT_EQ(rerun.cacheMisses, 1u);
    EXPECT_EQ(rerun.programs[0].peakPowerW,
              cold.programs[0].peakPowerW);
    EXPECT_EQ(rerun.programs[0].envelope.powerW,
              cold.programs[0].envelope.powerW);
}

// Regression (v2 -> v3 bump): a v2 entry was implicitly
// "unconstrained" -- the scenario joined the key and the header in
// v3, so a complete, well-formed v2 entry landing at a v3 path (hand
// copy, key collision) must be a miss even though every field it
// carries parses. Same pattern as the v1 -> v2 test above.
TEST(Batch, StaleV2CacheEntryIsAMiss)
{
    TempDir dir;
    auto suite = cli::resolvePrograms({"intAVG"});
    peak::BatchOptions opts;
    opts.cacheDir = dir.path.string();

    peak::BatchReport cold = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(cold.ok);

    for (const auto &e : fs::directory_iterator(dir.path))
        std::ofstream(e.path())
            << "ulpeak-cache-v2\n"
            << "peak_power_w_bits 3f50624dd2f1a9fc\n"
            << "peak_energy_j_bits 3f50624dd2f1a9fc\n"
            << "npe_j_per_cycle_bits 3f50624dd2f1a9fc\n"
            << "max_path_cycles 1\n"
            << "total_cycles 1\n"
            << "paths_explored 1\n"
            << "dedup_merges 0\n";

    peak::BatchReport rerun = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(rerun.ok);
    EXPECT_EQ(rerun.cacheHits, 0u);
    EXPECT_EQ(rerun.cacheMisses, 1u);
    EXPECT_EQ(rerun.programs[0].peakPowerW,
              cold.programs[0].peakPowerW);

    peak::BatchReport warm = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    EXPECT_EQ(warm.cacheHits, 1u);
}

// A corrupted version header (truncated magic, trailing garbage,
// binary junk) must never satisfy a lookup -- only the exact
// current-format magic line does.
TEST(Batch, CorruptedVersionHeaderIsAMiss)
{
    TempDir dir;
    auto suite = cli::resolvePrograms({"intAVG"});
    peak::BatchOptions opts;
    opts.cacheDir = dir.path.string();

    peak::BatchReport cold = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(cold.ok);

    const char *badHeaders[] = {
        "ulpeak-cache-v",          // truncated
        "ulpeak-cache-v33",        // future/garbled version
        "ulpeak-cache-v3 extra",   // trailing junk on the magic line
        "ULPEAK-CACHE-V3",         // wrong case
        "\x7f\x45\x4c\x46ulpeak",  // binary junk
    };
    for (const char *magic : badHeaders) {
        std::string body;
        {
            // Keep a valid v3 *payload* under the bad header so the
            // test really exercises the header check alone.
            std::vector<fs::path> entries;
            for (const auto &e : fs::directory_iterator(dir.path))
                entries.push_back(e.path());
            ASSERT_EQ(entries.size(), 1u);
            std::ifstream in(entries[0]);
            std::string line;
            std::getline(in, line); // drop the (valid) magic
            std::stringstream rest;
            rest << in.rdbuf();
            body = rest.str();
            std::ofstream(entries[0]) << magic << "\n" << body;
        }
        peak::BatchReport rerun = peak::analyzeBatch(
            CellLibrary::tsmc65Like(), suite, opts);
        ASSERT_TRUE(rerun.ok);
        EXPECT_EQ(rerun.cacheHits, 0u) << "header: " << magic;
        EXPECT_EQ(rerun.cacheMisses, 1u) << "header: " << magic;
        EXPECT_EQ(rerun.programs[0].peakPowerW,
                  cold.programs[0].peakPowerW);
    }
}

// A v2 entry stored *without* the envelope payload (same binary,
// envelope recording off) must never satisfy an envelope-expecting
// lookup -- the two configurations use distinct keys, and the loader
// additionally rejects payload-free entries when an envelope is
// expected.
TEST(Batch, EnvelopeRunsDoNotShareEntriesWithScalarRuns)
{
    TempDir dir;
    auto suite = cli::resolvePrograms({"intAVG"});
    peak::BatchOptions scalar;
    scalar.cacheDir = dir.path.string();
    peak::BatchReport cold = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, scalar);
    ASSERT_TRUE(cold.ok);

    peak::BatchOptions withEnv = scalar;
    withEnv.analysis.recordEnvelope = true;
    peak::BatchReport env = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, withEnv);
    ASSERT_TRUE(env.ok);
    EXPECT_EQ(env.cacheHits, 0u); // distinct key: no cross-hit
    ASSERT_TRUE(env.programs[0].envelope.present);

    // Both configurations now hit their own entries.
    EXPECT_EQ(peak::analyzeBatch(CellLibrary::tsmc65Like(), suite,
                                 scalar)
                  .cacheHits,
              1u);
    peak::BatchReport warm = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, withEnv);
    EXPECT_EQ(warm.cacheHits, 1u);
    ASSERT_TRUE(warm.programs[0].envelope.present);
    // Bit-exact envelope round-trip, window curves rebuilt.
    EXPECT_EQ(warm.programs[0].envelope.powerW,
              env.programs[0].envelope.powerW);
    EXPECT_EQ(warm.programs[0].envelope.windowEnergyJ,
              env.programs[0].envelope.windowEnergyJ);
    EXPECT_EQ(warm.programs[0].envelope.peakWindowEnergyJ,
              env.programs[0].envelope.peakWindowEnergyJ);
}

TEST(Batch, EnvelopeJsonAndCsvDeterministicAcrossWorkerCounts)
{
    auto suite = smallSuite();
    peak::BatchOptions serial;
    serial.analysis.recordEnvelope = true;
    serial.jobs = 1;
    peak::BatchOptions parallel = serial;
    parallel.jobs = 4;
    parallel.analysis.numThreads = 2;

    peak::BatchReport a = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, serial);
    peak::BatchReport b = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, parallel);
    ASSERT_TRUE(a.ok);
    ASSERT_TRUE(b.ok);
    ASSERT_TRUE(a.suiteEnvelope.present);

    EXPECT_EQ(cli::toJson(a, serial, /*include_timings=*/false),
              cli::toJson(b, parallel, /*include_timings=*/false));
    EXPECT_EQ(cli::toEnvelopeCsv(a), cli::toEnvelopeCsv(b));
    // And the envelope actually made it into both serializations.
    std::string json = cli::toJson(a, serial, false);
    EXPECT_NE(json.find("\"suite_envelope\""), std::string::npos);
    EXPECT_NE(json.find("\"envelope_sizing\""), std::string::npos);
    EXPECT_NE(cli::toEnvelopeCsv(a).find("__suite__"),
              std::string::npos);
}

TEST(Cli, ParseEnvelopeArgs)
{
    const char *argv[] = {"ulpeak", "mult", "--envelope=csv",
                          "--windows", "1,8,64"};
    cli::CliOptions o;
    std::string err;
    ASSERT_TRUE(cli::parseArgs(5, argv, o, err)) << err;
    EXPECT_TRUE(o.envelope);
    EXPECT_EQ(o.envelopeFormat, "csv");
    ASSERT_EQ(o.windows, (std::vector<unsigned>{1, 8, 64}));
    peak::BatchOptions b = cli::toBatchOptions(o);
    EXPECT_TRUE(b.analysis.recordEnvelope);
    EXPECT_EQ(b.analysis.envelopeWindows, o.windows);

    const char *plain[] = {"ulpeak", "mult", "--envelope"};
    cli::CliOptions o2;
    ASSERT_TRUE(cli::parseArgs(3, plain, o2, err)) << err;
    EXPECT_TRUE(o2.envelope);
    EXPECT_EQ(o2.envelopeFormat, "json");
    // Default window set applies when --windows is absent.
    EXPECT_EQ(cli::toBatchOptions(o2).analysis.envelopeWindows,
              peak::defaultEnvelopeWindows());

    const char *bad[] = {"ulpeak", "mult", "--envelope=xml"};
    cli::CliOptions o3;
    EXPECT_FALSE(cli::parseArgs(3, bad, o3, err));
    EXPECT_NE(err.find("--envelope"), std::string::npos);

    const char *badwin[] = {"ulpeak", "mult", "--windows", "0,4"};
    cli::CliOptions o4;
    EXPECT_FALSE(cli::parseArgs(4, badwin, o4, err));
    EXPECT_NE(err.find("--windows"), std::string::npos);
}

TEST(Batch, CacheKeyExclusionRules)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    isa::Image img = cli::resolvePrograms({"mult"})[0].image;
    peak::Options base;
    uint64_t k0 = peak::cacheKey(lib, img, base);

    // Scheduling and kernel choices cannot affect results, so they
    // must not fragment the cache.
    peak::Options threads = base;
    threads.numThreads = 8;
    EXPECT_EQ(peak::cacheKey(lib, img, threads), k0);
    peak::Options mode = base;
    mode.evalMode = EvalMode::FullSweep;
    EXPECT_EQ(peak::cacheKey(lib, img, mode), k0);

    // Result-affecting knobs must.
    peak::Options freq = base;
    freq.freqHz = 8e6;
    EXPECT_NE(peak::cacheKey(lib, img, freq), k0);
    peak::Options bound = base;
    bound.inputDependentLoopBound = 4;
    EXPECT_NE(peak::cacheKey(lib, img, bound), k0);

    // Envelope recording changes what an entry must contain, so it
    // (and the window set) participates in the key.
    peak::Options env = base;
    env.recordEnvelope = true;
    uint64_t kEnv = peak::cacheKey(lib, img, env);
    EXPECT_NE(kEnv, k0);
    peak::Options envWin = env;
    envWin.envelopeWindows = {1, 8, 64};
    EXPECT_NE(peak::cacheKey(lib, img, envWin), kEnv);
    // ...but the window set is irrelevant while envelopes are off
    // (curves are never cached).
    peak::Options winOff = base;
    winOff.envelopeWindows = {1, 8, 64};
    EXPECT_EQ(peak::cacheKey(lib, img, winOff), k0);

    // And so must the image itself, and the cell library (by
    // content, so recalibrating energies invalidates the cache).
    isa::Image other = cli::resolvePrograms({"tHold"})[0].image;
    EXPECT_NE(peak::cacheKey(lib, other, base), k0);
    EXPECT_NE(peak::cacheKey(CellLibrary::f1610Like(), img, base), k0);
}

// Existing cache files stay addressable: the keys of one fixed image
// and option set (a scenario with every hashed field, envelope on; a
// fault campaign with envelope) are pinned to the values the content
// hash has always produced.
TEST(Batch, CacheKeysPinned)
{
    CellLibrary lib = CellLibrary::tsmc65Like();
    isa::Image img = bench430::benchmarkByName("mult").assembleImage();

    peak::Options o;
    o.recordEnvelope = true;
    o.scenario.port = {0x00ff, 0x0012};
    o.scenario.portSchedule = {{0xf000, 0x1000}, {0x0f00, 0x0000}};
    o.scenario.ramInit = {{0x0200, {1, 2, 3}}};
    o.scenario.regInit = {{5, 0x1234}};
    o.scenario.modes = {{"lo", 0.8, 8e6}, {"hi", 1.2, 100e6}};
    o.scenario.modeSchedule = {0, 1, 1};
    EXPECT_EQ(peak::cacheKey(lib, img, o), 0x843981af8473b2e2ull);
    EXPECT_EQ(peak::cacheKey(lib, img, peak::Options()),
              0xd85d35e0f8b1df1bull);

    fault::CampaignOptions f;
    f.seed = 7;
    f.cyclesPerSite = 2;
    f.maxFlopSites = 16;
    f.ramSites = 4;
    f.withEnvelope = true;
    EXPECT_EQ(fault::campaignCacheKey(lib, img, f), 0xfe2ddf84509c5cbbull);
}

/** Everything a batch row reports and caches, field by field. */
void
expectSameRow(const peak::ProgramResult &a, const peak::ProgramResult &b)
{
    SCOPED_TRACE(a.name + " / " + a.scenario);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.scenario, b.scenario);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.peakPowerW, b.peakPowerW);
    EXPECT_EQ(a.peakEnergyJ, b.peakEnergyJ);
    EXPECT_EQ(a.npeJPerCycle, b.npeJPerCycle);
    EXPECT_EQ(a.maxPathCycles, b.maxPathCycles);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.pathsExplored, b.pathsExplored);
    EXPECT_EQ(a.dedupMerges, b.dedupMerges);
    EXPECT_EQ(a.envelope.powerW, b.envelope.powerW);
    EXPECT_EQ(a.envelope.peakWindowEnergyJ, b.envelope.peakWindowEnergyJ);
}

/** Every file of cache directory @p dir by name, with its bytes. */
std::map<std::string, std::string>
cacheFiles(const fs::path &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &e : fs::directory_iterator(dir)) {
        std::ifstream in(e.path(), std::ios::binary);
        files[e.path().filename().string()] =
            std::string(std::istreambuf_iterator<char>(in), {});
    }
    return files;
}

// The scenarios of one program run as one analysis group. Every row,
// every cache file and a budget failure are the same as when each
// scenario runs on its own.
TEST(Batch, GroupedMatchesUngrouped)
{
    const CellLibrary lib = CellLibrary::tsmc65Like();
    std::vector<scenario::Scenario> presets;
    for (const std::string &name : scenario::Scenario::presetNames())
        presets.push_back(scenario::Scenario::preset(name));
    ASSERT_EQ(presets.size(), 5u);
    auto suite = cli::resolvePrograms({"mult", "binSearch", "PI"});

    // Grouped: the 5-preset matrix in one batch; ungrouped: a batch
    // per preset.
    auto runBoth = [&](peak::BatchOptions opts, const fs::path &grouped,
                       const fs::path &single) {
        opts.scenarios = presets;
        opts.cacheDir = grouped.string();
        peak::BatchReport all = peak::analyzeBatch(lib, suite, opts);
        EXPECT_EQ(all.programs.size(), presets.size() * suite.size());
        opts.cacheDir = single.string();
        for (size_t s = 0; s < presets.size(); ++s) {
            opts.scenarios = {presets[s]};
            peak::BatchReport one = peak::analyzeBatch(lib, suite, opts);
            for (size_t p = 0; p < suite.size(); ++p)
                expectSameRow(all.programs[s * suite.size() + p],
                              one.programs[p]);
        }
        return all;
    };

    peak::BatchOptions opts;
    opts.analysis.recordEnvelope = true;
    TempDir grouped, single;
    peak::BatchReport all = runBoth(opts, grouped.path, single.path);
    EXPECT_TRUE(all.ok);
    EXPECT_EQ(cacheFiles(grouped.path), cacheFiles(single.path));
    EXPECT_EQ(cacheFiles(grouped.path).size(), all.programs.size());

    // The full reports, trees included, against each scenario alone.
    msp::System sys(lib);
    for (const peak::BatchProgram &prog : suite) {
        std::vector<peak::Report> group =
            peak::analyzeGroup(sys, prog.image, opts.analysis, presets);
        ASSERT_EQ(group.size(), presets.size());
        for (size_t s = 0; s < presets.size(); ++s) {
            peak::Options alone = opts.analysis;
            alone.scenario = presets[s];
            EXPECT_EQ(fuzz::reportDiff(
                          group[s], peak::analyze(sys, prog.image, alone)),
                      "")
                << prog.name << " / " << presets[s].name;
        }
    }

    // PI under duty-cycled-dvfs needs more cycles than the others: at
    // this budget it alone fails, with the ungrouped error and counts.
    opts.analysis.maxTotalCycles = 8000;
    suite = cli::resolvePrograms({"PI"});
    TempDir grouped2, single2;
    all = runBoth(opts, grouped2.path, single2.path);
    for (const peak::ProgramResult &r : all.programs) {
        bool dvfs = r.scenario == "duty-cycled-dvfs";
        EXPECT_EQ(r.ok, !dvfs) << r.scenario;
        if (dvfs)
            EXPECT_EQ(r.error, "symbolic cycle budget exhausted");
    }
    EXPECT_EQ(cacheFiles(grouped2.path), cacheFiles(single2.path));
}

TEST(Batch, OneFailingProgramDoesNotPoisonTheSuite)
{
    auto suite = cli::resolvePrograms({"mult"});
    suite.push_back({"busywait", unboundedLoopImage()});
    suite.insert(suite.begin() + 1,
                 cli::resolvePrograms({"intAVG"})[0]);

    peak::BatchOptions opts;
    opts.jobs = 2;
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);

    EXPECT_FALSE(rep.ok);
    EXPECT_TRUE(rep.programs[0].ok);
    EXPECT_TRUE(rep.programs[1].ok);
    EXPECT_FALSE(rep.programs[2].ok);
    EXPECT_NE(rep.programs[2].error.find("loop"), std::string::npos)
        << rep.programs[2].error;
    // Aggregates still cover the successful programs.
    EXPECT_GT(rep.maxPeakPowerW, 0.0);
    // The failed program appears in the JSON with its error.
    std::string json = cli::toJson(rep, opts, false);
    EXPECT_NE(json.find("\"ok\": false"), std::string::npos);
    EXPECT_NE(json.find("busywait"), std::string::npos);
}

TEST(Batch, FailFastSkipsUnclaimedPrograms)
{
    std::vector<peak::BatchProgram> suite;
    suite.push_back({"busywait", unboundedLoopImage()});
    auto rest = smallSuite();
    suite.insert(suite.end(), rest.begin(), rest.end());

    peak::BatchOptions opts;
    opts.jobs = 1; // deterministic claim order
    opts.failFast = true;
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);

    EXPECT_FALSE(rep.ok);
    EXPECT_FALSE(rep.programs[0].ok);
    for (size_t i = 1; i < rep.programs.size(); ++i) {
        EXPECT_FALSE(rep.programs[i].ok);
        EXPECT_NE(rep.programs[i].error.find("skipped"),
                  std::string::npos);
    }
}

// analyzeBatch claims its groups costliest first, yet the rows and
// the JSON keep the input order, byte for byte, at every worker count.
TEST(Batch, ClaimOrderKeepsRowsAndBytes)
{
    auto suite = cli::resolvePrograms({"intAVG", "mult", "tHold", "PI"});
    std::vector<uint64_t> costs;
    for (const peak::BatchProgram &p : suite)
        costs.push_back(peak::estimateCost(p.image, scenario::Scenario{}));
    // The suite is in ascending estimate order, so claiming by the
    // estimate reverses it.
    EXPECT_EQ(util::claimOrder(costs), (std::vector<size_t>{3, 2, 1, 0}));

    std::string reference;
    for (unsigned jobs : {1u, 2u, 4u}) {
        peak::BatchOptions opts;
        opts.jobs = jobs;
        peak::BatchReport rep = peak::analyzeBatch(
            CellLibrary::tsmc65Like(), suite, opts);
        ASSERT_TRUE(rep.ok) << jobs;
        ASSERT_EQ(rep.programs.size(), suite.size());
        for (size_t i = 0; i < suite.size(); ++i)
            EXPECT_EQ(rep.programs[i].name, suite[i].name) << jobs;
        std::string json = cli::toJson(rep, opts, /*include_timings=*/false);
        if (reference.empty())
            reference = json;
        EXPECT_EQ(json, reference) << "jobs " << jobs;
    }
}

// The cost estimate is finite on images the analysis rejects: one that
// never halts and an input-dependent loop run to the cap, an
// unsupported opcode ends its path at the cycles it reached. The
// estimate only orders the claims, so each row keeps the error text
// of its analysis.
TEST(Batch, CostEstimateIsCappedAndKeepsAnalysisErrors)
{
    isa::Image spin = isa::assemble(test::wrapProgram(R"(
spin:
        add #1, r5
        jmp spin
    )"));
    isa::Image trap = isa::assemble(test::wrapProgram(R"(
        mov #3, r4
        .word 0x0000
    )"));
    const scenario::Scenario unconstrained;
    EXPECT_EQ(peak::estimateCost(spin, unconstrained),
              peak::kCostEstimateCap);
    EXPECT_EQ(peak::estimateCost(unboundedLoopImage(), unconstrained),
              peak::kCostEstimateCap);
    uint64_t trapCost = peak::estimateCost(trap, unconstrained);
    EXPECT_GT(trapCost, 0u);
    EXPECT_LT(trapCost, peak::kCostEstimateCap);

    std::vector<peak::BatchProgram> suite = cli::resolvePrograms({"mult"});
    suite.push_back({"spin", spin});
    suite.push_back({"trap", trap});
    suite.push_back({"busywait", unboundedLoopImage()});
    peak::BatchOptions opts;
    opts.jobs = 2;
    opts.analysis.maxTotalCycles = 5000; // spin fails fast
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    EXPECT_TRUE(rep.programs[0].ok) << rep.programs[0].error;
    EXPECT_EQ(rep.programs[1].error, "symbolic cycle budget exhausted");
    EXPECT_NE(rep.programs[2].error.find("invalid instruction"),
              std::string::npos)
        << rep.programs[2].error;
    EXPECT_NE(rep.programs[3].error.find("input-dependent loop"),
              std::string::npos)
        << rep.programs[3].error;
}

// Four processes fill one cache directory at the same time. Afterwards
// a warm run is served entirely from the cache and matches a --no-cache
// run byte for byte, and no temp file is left behind.
TEST(Batch, ForkedProcessesShareOneCacheDirectory)
{
    TempDir dir;
    const CellLibrary &lib = CellLibrary::tsmc65Like();
    auto suite = cli::resolvePrograms({"mult", "tHold", "intAVG", "ConvEn"});
    peak::BatchOptions opts;
    opts.analysis.recordEnvelope = true; // multi-write entries
    const std::string reference =
        cli::toJson(peak::analyzeBatch(lib, suite, opts), opts, false);

    opts.cacheDir = dir.path.string();
    unsigned ok = test::forkAndRun(4, [&] {
        peak::BatchReport rep = peak::analyzeBatch(lib, suite, opts);
        return rep.ok && cli::toJson(rep, opts, false) == reference;
    });
    EXPECT_EQ(ok, 4u);

    peak::BatchReport warm = peak::analyzeBatch(lib, suite, opts);
    EXPECT_EQ(warm.cacheHits, suite.size());
    EXPECT_EQ(cli::toJson(warm, opts, false), reference);
    for (const fs::directory_entry &e : fs::directory_iterator(dir.path))
        EXPECT_EQ(e.path().filename().string().find(".tmp."),
                  std::string::npos)
            << e.path();
}

// An unusable --cache-dir (a regular file) is a usage error that names
// the flag and the path; it used to abort on an uncaught
// filesystem_error.
TEST(Cli, UnusableCacheDirIsAUsageError)
{
    TempDir dir;
    fs::create_directories(dir.path);
    std::string file = (dir.path / "regular-file").string();
    std::ofstream(file) << "x";
    const char *argv[] = {"ulpeak", "mult", "--quiet", "--cache-dir",
                          file.c_str()};
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(cli::runCli(5, argv), 2);
    std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("--cache-dir " + file + ": "), std::string::npos)
        << err;

    peak::BatchOptions opts;
    opts.cacheDir = file;
    EXPECT_THROW(peak::analyzeBatch(CellLibrary::tsmc65Like(),
                                    smallSuite(), opts),
                 util::DiskCacheError);
}

TEST(Cli, ParseArgs)
{
    const char *argv[] = {"ulpeak", "--programs", "mult,FFT",
                          "--jobs", "4", "--threads", "2", "--json",
                          "out.json", "--no-cache", "--quiet",
                          "tea8"};
    cli::CliOptions o;
    std::string err;
    ASSERT_TRUE(cli::parseArgs(12, argv, o, err)) << err;
    ASSERT_EQ(o.programSpecs.size(), 3u);
    EXPECT_EQ(o.programSpecs[0], "mult");
    EXPECT_EQ(o.programSpecs[1], "FFT");
    EXPECT_EQ(o.programSpecs[2], "tea8");
    EXPECT_EQ(o.jobs, 4u);
    EXPECT_EQ(o.threads, 2u);
    EXPECT_EQ(o.jsonPath, "out.json");
    EXPECT_TRUE(o.noCache);
    EXPECT_TRUE(o.quiet);

    const char *bad[] = {"ulpeak", "--jobs", "many"};
    cli::CliOptions o2;
    EXPECT_FALSE(cli::parseArgs(3, bad, o2, err));
    EXPECT_NE(err.find("--jobs"), std::string::npos);

    // Negative counts must be usage errors, not strtoull wraparound.
    const char *neg[] = {"ulpeak", "--threads", "-1", "mult"};
    cli::CliOptions o2b;
    EXPECT_FALSE(cli::parseArgs(4, neg, o2b, err));
    EXPECT_NE(err.find("--threads"), std::string::npos);

    const char *none[] = {"ulpeak"};
    cli::CliOptions o3;
    EXPECT_FALSE(cli::parseArgs(1, none, o3, err));
}

// --freq goes through parsePositiveDouble in both drivers: trailing
// garbage, non-positive and non-finite values are usage errors, not
// atof's silent truncation (atof("8e6x") == 8e6 used to run a whole
// campaign at a typo'd operating point).
TEST(Cli, FreqParsingRejectsTrailingGarbage)
{
    std::string err;
    for (const char *v : {"8e6x", "0", "-1e6", "inf", "nan", ""}) {
        const char *argv[] = {"ulpeak", "--freq", v, "mult"};
        cli::CliOptions o;
        EXPECT_FALSE(cli::parseArgs(4, argv, o, err)) << v;
        EXPECT_NE(err.find("--freq"), std::string::npos) << v;

        const char *fargv[] = {"ulfault", "mult", "--freq", v};
        cli::FaultCliOptions fo;
        EXPECT_FALSE(cli::parseFaultArgs(4, fargv, fo, err)) << v;
        EXPECT_NE(err.find("--freq"), std::string::npos) << v;
    }
    const char *good[] = {"ulpeak", "--freq", "8e6", "mult"};
    cli::CliOptions o;
    ASSERT_TRUE(cli::parseArgs(4, good, o, err)) << err;
    EXPECT_DOUBLE_EQ(o.freqHz, 8e6);
    const char *fgood[] = {"ulfault", "mult", "--freq", "8e6"};
    cli::FaultCliOptions fo;
    ASSERT_TRUE(cli::parseFaultArgs(4, fgood, fo, err)) << err;
    EXPECT_DOUBLE_EQ(fo.freqHz, 8e6);
}

TEST(Cli, ParseModesArgs)
{
    std::string err;
    const char *argv[] = {"ulpeak", "--modes", "--no-timings", "mult"};
    cli::CliOptions o;
    ASSERT_TRUE(cli::parseArgs(4, argv, o, err)) << err;
    EXPECT_TRUE(o.modes);
    EXPECT_EQ(o.modesFormat, "table");
    EXPECT_TRUE(o.noTimings);
    // --modes implies envelope recording in the analysis options.
    EXPECT_TRUE(cli::toBatchOptions(o).analysis.recordEnvelope);

    const char *jsonv[] = {"ulpeak", "--modes=json", "mult"};
    cli::CliOptions oj;
    ASSERT_TRUE(cli::parseArgs(3, jsonv, oj, err)) << err;
    EXPECT_EQ(oj.modesFormat, "json");

    const char *bad[] = {"ulpeak", "--modes=xml", "mult"};
    cli::CliOptions ob;
    EXPECT_FALSE(cli::parseArgs(3, bad, ob, err));
    EXPECT_NE(err.find("--modes"), std::string::npos);
}

TEST(Cli, ResolveProgramsAllAndErrors)
{
    auto all = cli::resolvePrograms({"all"});
    EXPECT_EQ(all.size(), bench430::allBenchmarkNames().size());
    EXPECT_EQ(all.size(), 14u);

    EXPECT_THROW(cli::resolvePrograms({"nosuchprog"}),
                 std::runtime_error);
    EXPECT_THROW(cli::resolvePrograms({"/no/such/file.s"}),
                 std::runtime_error);
}

TEST(Cli, ResolveProgramsFromAsmFile)
{
    TempDir dir;
    fs::create_directories(dir.path);
    fs::path asmfile = dir.path / "standalone.s";
    std::ofstream(asmfile) << test::wrapProgram(R"(
        mov #5, r4
        add #3, r4
    )");
    auto suite = cli::resolvePrograms({asmfile.string()});
    ASSERT_EQ(suite.size(), 1u);
    EXPECT_EQ(suite[0].name, "standalone");

    peak::BatchOptions opts;
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    ASSERT_TRUE(rep.ok) << rep.programs[0].error;
    EXPECT_GT(rep.programs[0].peakPowerW, 0.0);
}

TEST(Cli, CsvShape)
{
    auto suite = cli::resolvePrograms({"intAVG"});
    peak::BatchOptions opts;
    peak::BatchReport rep = peak::analyzeBatch(
        CellLibrary::tsmc65Like(), suite, opts);
    std::string csv = cli::toCsv(rep);
    // Header + one row.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 2);
    EXPECT_NE(csv.find("name,scenario,ok,cached"), std::string::npos);
    EXPECT_NE(csv.find("\"intAVG\",\"unconstrained\",1,0"),
              std::string::npos);
}

} // namespace
} // namespace ulpeak
