/**
 * @file
 * The `ulfault` command-line driver: deterministic SEU fault-injection
 * campaigns from the shell, built on fault::runCampaign.
 *
 * A campaign takes one program (same spellings as `ulpeak`: a
 * bench430 registry name or an assembly-file path), sweeps bit-flips
 * over the netlist's flops (plus optional random RAM bits) times
 * random injection cycles of the golden execution, and classifies
 * every faulted run against the golden ISS as masked / SDC / crash /
 * hang. Registry benchmarks keep their inputs in uninitialized RAM
 * (X on the gate side, which the lockstep would flag), so the driver
 * folds one deterministic concrete input set -- derived from the
 * campaign seed via Benchmark::makeInput -- into the image before the
 * campaign; the input thereby participates in the cache key through
 * the image contents. With --envelope the X-based per-cycle peak-power envelope is
 * analyzed first and faulted runs exceeding it are flagged as
 * *escapes* -- reported findings (the envelope guarantee quantifies
 * over inputs, not particle strikes), never exit-code failures.
 *
 * Output: a per-site vulnerability table on stdout plus
 * machine-readable JSON (--json) and CSV (--csv). Timing and
 * cache-provenance fields are isolated exactly like `ulpeak`'s:
 * serializing with @p include_timings = false produces byte-identical
 * JSON for any (--jobs, cache state) combination -- the campaign
 * determinism contract, pinned by tests/test_fault.cc and the CI
 * smoke.
 *
 * `--replay SITE@CYCLE` re-runs a single injection through the scalar
 * runner, from the campaign's own setup (fault::CampaignSetup: golden
 * gate, hang budget, envelope), and prints the full divergence report
 * (first divergent cycle, state diff, disassembled window) -- the
 * reproduction recipe for any row of a campaign report.
 */

#ifndef ULPEAK_CLI_FAULT_DRIVER_HH
#define ULPEAK_CLI_FAULT_DRIVER_HH

#include <string>

#include "cli/options.hh"
#include "fault/campaign.hh"

namespace ulpeak {
namespace cli {

/** Parsed command line of the `ulfault` tool. */
struct FaultCliOptions {
    std::string programSpec;   ///< registry name or .s path
    uint64_t seed = 1;         ///< --seed
    unsigned jobs = 0;         ///< --jobs: cap on campaign workers (0: none)
    unsigned cyclesPerSite = 1; ///< --cycles-per-site
    size_t maxSites = 0;       ///< --max-sites (0 = every flop)
    size_t ramSites = 0;       ///< --ram-sites
    uint64_t hangCycles = 0;   ///< --hang-cycles (0 = auto)
    uint16_t port = 0;         ///< --port
    bool portSet = false;      ///< --port was given explicitly
    double freqHz = 100e6;     ///< --freq
    bool envelope = false;     ///< --envelope: escape detection
    unsigned top = 20;         ///< --top N: table rows
    std::string jsonPath;      ///< --json FILE
    std::string csvPath;       ///< --csv FILE
    bool noTimings = false;    ///< --no-timings: deterministic JSON
    std::string cacheDir = ".ulpeak-cache"; ///< --cache-dir
    bool noCache = false;      ///< --no-cache
    bool replay = false;       ///< --replay SITE@CYCLE given
    uint32_t replaySite = 0;
    uint64_t replayCycle = 0;
    bool quiet = false;        ///< --quiet: suppress the table
    bool help = false;         ///< --help
};

/**
 * Fold one deterministic concrete input set into @p image when
 * @p name is a bench430 registry benchmark: their inputs live in an
 * uninitialized RAM window, which reads X on the gate side and would
 * (rightly) diverge the golden lockstep. The set derives from the
 * campaign seed, so the whole campaign -- cache key included, via the
 * image contents -- is reproducible from (program, seed) alone. When
 * the benchmark reads the input port and @p port_set is false, the
 * generated port word is adopted into @p port too.
 */
void foldBenchmarkInputs(const std::string &name, uint64_t seed,
                         isa::Image &image, uint16_t &port, bool port_set);

/** The option table of `ulfault`, bound to @p out (cli/options.hh). */
std::vector<Option> faultOptions(FaultCliOptions &out);

std::string faultUsage();

/** Parse @p argv; on bad usage returns false and sets @p err. */
bool parseFaultArgs(int argc, const char *const *argv,
                    FaultCliOptions &out, std::string &err);

/** Map a parsed command line onto campaign options. */
fault::CampaignOptions toCampaignOptions(const FaultCliOptions &cli);

/** Serialize a campaign report as JSON. With @p include_timings =
 *  false the wall-time and cache-provenance fields are omitted: the
 *  output is byte-identical across --jobs and cache states. */
std::string toFaultJson(const fault::CampaignResult &res,
                        const fault::CampaignOptions &opts,
                        const std::string &program,
                        bool include_timings = true);

/** One-row-per-injection CSV (header included; deterministic). */
std::string toFaultCsv(const fault::CampaignResult &res);

/** The complete driver behind tools/ulfault_main.cc. Exit codes:
 *  0 = campaign ran (escapes are findings, not failures),
 *  1 = campaign error (golden divergence, bad program),
 *  2 = usage error, including an unusable --cache-dir. */
int runFaultCli(int argc, const char *const *argv);

} // namespace cli
} // namespace ulpeak

#endif // ULPEAK_CLI_FAULT_DRIVER_HH
