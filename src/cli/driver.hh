/**
 * @file
 * The `ulpeak` command-line driver: batch peak-power/energy analysis
 * of application suites from the shell, built on peak::analyzeBatch.
 *
 * Programs are resolved from three spellings, freely mixed:
 *  - `all` -- every program of the bench430 registry
 *    (bench430::allBenchmarkNames());
 *  - a registry name (`mult`, `FFT`, ...), comma-separated lists
 *    allowed;
 *  - a path to an MSP430 assembly file (anything containing a '/' or
 *    ending in .s/.asm), assembled with isa::assemble.
 *
 * With --scenario the suite is swept across deployment scenarios
 * (preset names or scenario .json files; src/scenario): every
 * program is analyzed once per scenario and the reports carry the
 * matrix plus per-scenario suite maxima and tightening ratios.
 *
 * Output: a human-readable table on stdout plus machine-readable
 * JSON (--json) and CSV (--csv) suite reports. The JSON carries
 * per-(program, scenario) requirements, suite aggregates (the
 * supply-sizing maxima) and the sizing::sizeSuiteSupply component
 * table. Timing and
 * cache-provenance fields are isolated so that reports from runs with
 * different worker counts or cache states are comparable: serializing
 * with @p include_timings = false must produce byte-identical JSON
 * for any (jobs, numThreads, cache) combination
 * (tests/test_batch.cc pins this).
 *
 * Usage summary: see usage(), or run `ulpeak --help`.
 */

#ifndef ULPEAK_CLI_DRIVER_HH
#define ULPEAK_CLI_DRIVER_HH

#include <string>
#include <vector>

#include "cli/options.hh"
#include "peak/batch.hh"
#include "peak/modes.hh"

namespace ulpeak {
namespace cli {

/** Parsed command line of the `ulpeak` tool; each field's flag and
 *  help text are its row of peakOptions. */
struct CliOptions {
    std::vector<std::string> programSpecs; ///< names / "all" / paths
    /** Caps on the CPU budget's split (0: uncapped, every CPU of the
     *  host; util::cpuBudget). */
    unsigned jobs = 0;
    unsigned threads = 0;
    double freqHz = 100e6;
    EvalMode evalMode = EvalMode::EventDriven;
    unsigned loopBound = 0;
    uint64_t maxTotalCycles = 3000000;
    /** --static-prune and --packed-explore never change a reported
     *  number (fuzz properties 9 and 3), so like --eval-mode they are
     *  excluded from the result cache key. */
    bool staticPrune = false;
    bool packedExplore = false;
    std::string jsonPath; ///< "" = no JSON output
    std::string csvPath;  ///< "" = no CSV output
    bool envelope = false;
    std::string envelopeFormat = "json"; ///< json | csv
    /** --modes: per-operating-mode report (peak::buildModeReport);
     *  implies envelope recording. Assertion failures are findings,
     *  never a nonzero exit. */
    bool modes = false;
    std::string modesFormat = "table"; ///< table | json | csv
    bool noTimings = false; ///< toJson's include_timings = false
    std::vector<unsigned> windows; ///< empty = the envelope default
    /** Preset names (scenario::Scenario::presetNames()) or scenario
     *  JSON paths; empty = unconstrained only. */
    std::vector<std::string> scenarioSpecs;
    std::string cacheDir = ".ulpeak-cache";
    bool noCache = false;
    bool failFast = false;
    bool quiet = false;
    bool help = false;
};

/** The option table of `ulpeak`, bound to @p out (cli/options.hh). */
std::vector<Option> peakOptions(CliOptions &out);

/** The --help text. */
std::string usage();

/** Parse @p argv into @p out; on bad usage returns false and sets
 *  @p err (no exit/abort so tests can drive it). */
bool parseArgs(int argc, const char *const *argv, CliOptions &out,
               std::string &err);

/** Resolve program specs into assembled suite entries; throws
 *  std::runtime_error on unknown names, unreadable files or assembly
 *  errors (message names the offending spec). */
std::vector<peak::BatchProgram>
resolvePrograms(const std::vector<std::string> &specs);

/** Map a parsed command line onto batch-analysis options; resolves
 *  --scenario specs (throws std::runtime_error on unknown presets or
 *  unreadable/malformed scenario files, naming the offending spec). */
peak::BatchOptions toBatchOptions(const CliOptions &cli);

/** Serialize a suite report as JSON. With @p include_timings = false
 *  all wall-time and cache-provenance fields are omitted, making the
 *  output deterministic across worker counts and cache states. */
std::string toJson(const peak::BatchReport &rep,
                   const peak::BatchOptions &opts,
                   bool include_timings = true);

/** One-row-per-program CSV (header included). */
std::string toCsv(const peak::BatchReport &rep);

/** Per-cycle envelope rows: program name (or "__suite__" for a
 *  composed per-scenario suite envelope), scenario, cycle, envelope
 *  power, and one windowed peak-energy column per window.
 *  Deterministic: byte-identical across --jobs / --threads / cache
 *  states. */
std::string toEnvelopeCsv(const peak::BatchReport &rep);

/** Per-(program, scenario) operating-mode reports
 *  (peak::buildModeReport over each row's envelope), parallel to
 *  rep.programs; rows without a mode schedule or envelope get a
 *  non-present report. @p scens must be the scenario list the batch
 *  ran (BatchOptions::scenarios, or the single analysis scenario);
 *  @p lib_vdd the analysis library's nominal rail. */
std::vector<peak::ModeReport>
buildModeReports(const peak::BatchReport &rep,
                 const std::vector<scenario::Scenario> &scens,
                 double lib_vdd);

/** Standalone JSON document of the --modes report. Deterministic:
 *  carries no timing or cache-provenance fields, so it is
 *  byte-identical across --jobs / --threads / kernels / snapshot
 *  modes / cache states. */
std::string toModesJson(const peak::BatchReport &rep,
                        const std::vector<peak::ModeReport> &reports);

/** CSV form of the --modes report: one row per mode slice,
 *  transition, assertion verdict and finding (kind column).
 *  Deterministic like toModesJson. */
std::string toModesCsv(const peak::BatchReport &rep,
                       const std::vector<peak::ModeReport> &reports);

/** The complete driver behind tools/ulpeak_main.cc: parse, resolve,
 *  analyze, emit. Returns the process exit code (0 = whole suite
 *  analyzed successfully, 1 = any failure, 2 = usage error). */
int runCli(int argc, const char *const *argv);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_DRIVER_HH
