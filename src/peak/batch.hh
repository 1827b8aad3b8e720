/**
 * @file
 * Batch multi-program peak analysis: the suite-level counterpart of
 * peak::analyze. A deployment flow rarely asks "what does *this*
 * application require?" in isolation -- it sizes one supply for a
 * whole suite of applications, so the interesting number is the
 * maximum guaranteed peak power / peak energy across the suite.
 * analyzeBatch() runs peak::analyze over every program of a suite,
 * sharded across a program-level worker pool, and aggregates the
 * per-program requirements into that supply-sizing number (routed
 * through sizing::sizeSuiteSupply).
 *
 * Two levels of parallelism compose: program-level jobs shard whole
 * programs across workers (each analysis runs on its own msp::System
 * over the library's one shared netlist), while exploration threads
 * parallelize the execution-tree exploration *inside* one analysis.
 * Both draw from one CPU budget, every CPU of the host
 * (util::cpuBudget); BatchOptions::jobs and Options::numThreads only
 * cap the split, and BatchReport says how it was resolved. Both
 * levels are scheduling-independent, so every (jobs, threads)
 * combination produces bit-identical per-program numbers --
 * tests/test_batch.cc locksteps jobs=1 against jobs=N and against
 * the default budget.
 *
 * A suite can be analyzed under several deployment scenarios at
 * once (BatchOptions::scenarios): analyzeBatch then runs the full
 * scenario x program matrix -- BatchReport::programs holds one
 * ProgramResult per (scenario, program) pair in scenario-major
 * order, and BatchReport::scenarios carries per-scenario suite
 * aggregates (maxima, envelope, supply sizing), so one invocation
 * reports how much each added constraint tightens the suite's
 * requirements. The top-level aggregates always describe the first
 * scenario, which keeps single-scenario callers unchanged. The
 * scenarios of one program run as one analysis group
 * (peak::analyzeGroup): one exploration, one program-level work item,
 * whose analyses share the simulator lanes; every row is the one its
 * scenario gets alone.
 *
 * Results are cached on disk (BatchOptions::cacheDir) keyed by the
 * FNV-1a hash of (cache format version, cell library contents, image
 * contents, result-affecting analysis options, scenario contents).
 * Options that provably cannot change the numbers -- numThreads
 * (scheduling-independent exploration), evalMode (bit-identical
 * kernels), snapshotMode (bit-identical fork representations), and
 * the recordActiveSets/recordModuleTrace trace flags (never cached)
 * -- are excluded from the key, so re-runs under a different thread
 * count or kernel still hit. recordEnvelope and envelopeWindows *do*
 * participate: they change what a cached entry must contain; the
 * scenario participates by content hash because it changes every
 * number. Entries carry a format-version header (v2 added the
 * envelope fields, v3 the scenario-aware key, v4 operating-mode
 * schedules in the scenario hash), so stale entries from an older
 * binary are treated as misses instead of deserializing into
 * garbage reports. Cached doubles (and envelope floats)
 * round-trip through their bit patterns, so a warm run reproduces
 * the cold run bit for bit.
 *
 * Quickstart:
 * @code
 *   std::vector<peak::BatchProgram> suite;
 *   for (const auto &b : bench430::allBenchmarks())
 *       suite.push_back({b.name, b.assembleImage()});
 *   peak::BatchOptions opts; // every CPU, split automatically
 *   opts.cacheDir = ".ulpeak-cache";
 *   peak::BatchReport rep =
 *       peak::analyzeBatch(CellLibrary::tsmc65Like(), suite, opts);
 *   // rep.maxPeakPowerW is the suite's supply-sizing number;
 *   // rep.supply has per-harvester/battery component sizes.
 * @endcode
 */

#ifndef ULPEAK_PEAK_BATCH_HH
#define ULPEAK_PEAK_BATCH_HH

#include <functional>
#include <string>
#include <vector>

#include "peak/peak_analysis.hh"
#include "sizing/sizing.hh"

namespace ulpeak {
namespace peak {

/** One suite entry: a named, already-assembled application image. */
struct BatchProgram {
    std::string name;
    isa::Image image;
};

struct BatchOptions {
    /** Per-program analysis options (shared by the whole suite). */
    Options analysis;
    /**
     * Deployment scenarios to sweep the suite across. Empty (the
     * default) analyzes under analysis.scenario alone; otherwise
     * every program is analyzed once per listed scenario
     * (analysis.scenario is ignored) and the report carries the
     * full matrix plus per-scenario aggregates.
     */
    std::vector<scenario::Scenario> scenarios;
    /** Cap on program-level workers (0: uncapped, the CPU budget
     *  decides; 1: serial on the calling thread). analysis.numThreads
     *  caps the exploration threads of each analysis the same way,
     *  with 0 uncapped; see the file comment. */
    unsigned jobs = 0;
    /** Disk cache directory; "" disables caching. Created on demand
     *  (analyzeBatch throws util::DiskCacheError when it cannot be);
     *  entries are one small text file per (image, options, library)
     *  key, written atomically (util::DiskCache), so concurrent batch
     *  runs, threads or processes, may safely share a directory. */
    std::string cacheDir;
    /** Stop claiming further analysis groups after the first failure.
     *  The rows of unclaimed groups are reported as skipped (ok =
     *  false). Groups are claimed costliest first (estimateCost), so
     *  at one job the skipped groups are those estimated cheaper than
     *  the failing one. The default analyzes every program and
     *  reports all failures. */
    bool failFast = false;
};

/** Per-program results: the summary of peak::Report (its bulky
 *  traces are dropped, which is the point of a cached suite), plus
 *  the per-cycle envelope when Options::recordEnvelope asked for it
 *  (the envelope is the profile being sized against, so the batch
 *  layer carries and caches it). @ref error is the analysis error or
 *  the skip reason. The cache stores the bounds, totalCycles,
 *  pathsExplored and dedupMerges; the other statistics are run
 *  provenance like wallSeconds: zero on cache hits, excluded from
 *  determinism comparisons, and the row's share of its group's run
 *  (see sym::AnalysisSummary). */
struct ProgramResult : sym::AnalysisSummary {
    std::string name;
    /** Scenario this row was analyzed under (its Scenario::name). */
    std::string scenario;
    bool cached = false; ///< served from the disk cache

    /** Peak power envelope + windowed peak-energy curves, when
     *  Options::recordEnvelope. The cache stores only the power
     *  trace; window curves are rebuilt deterministically on load. */
    Envelope envelope;

    /** Wall time of the row's cache lookup when it hit, else of its
     *  analysis group's run (shared by the group's rows). */
    double wallSeconds = 0.0;
};

/** Per-scenario suite aggregates (one entry per analyzed scenario,
 *  in BatchOptions::scenarios order). */
struct ScenarioSummary {
    std::string scenario;
    std::string summary; ///< Scenario::summary() for reports
    bool ok = false;     ///< every program of this scenario analyzed

    double maxPeakPowerW = 0.0;
    std::string maxPeakPowerProgram;
    double maxPeakEnergyJ = 0.0;
    std::string maxPeakEnergyProgram;
    double maxNpeJPerCycle = 0.0;
    std::string maxNpeProgram;

    sizing::SuiteSupply supply;
    Envelope suiteEnvelope;
    sizing::EnvelopeSupply envelopeSupply;
};

/** Suite-level report: per-(scenario, program) results in
 *  scenario-major input order plus the aggregates a deployment flow
 *  consumes. */
struct BatchReport {
    bool ok = false; ///< every program analyzed successfully
    /** One row per (scenario, program), scenario-major: with S
     *  scenarios and P programs, row s*P + p is program p under
     *  scenario s. Single-scenario runs look exactly like before. */
    std::vector<ProgramResult> programs;
    /** Per-scenario aggregates; size 1 when no scenario sweep was
     *  requested. scenarios[0] equals the top-level aggregate
     *  fields below. */
    std::vector<ScenarioSummary> scenarios;

    /// @name Suite aggregates (over successful programs of the
    /// *first* scenario -- see scenarios[] for the rest)
    /// @{
    double maxPeakPowerW = 0.0; ///< the paper's supply-sizing number
    std::string maxPeakPowerProgram;
    double maxPeakEnergyJ = 0.0;
    std::string maxPeakEnergyProgram;
    double maxNpeJPerCycle = 0.0;
    std::string maxNpeProgram;
    /// @}

    /** Harvester/battery sizes covering the suite maxima
     *  (sizing::sizeSuiteSupply; empty when no program succeeded). */
    sizing::SuiteSupply supply;

    /** Elementwise max-composition of the per-program envelopes: the
     *  per-cycle profile a shared supply must cover for every program
     *  and every input (present only when envelopes were recorded). */
    Envelope suiteEnvelope;
    /** Envelope-driven harvester + decap sizes
     *  (sizing::sizeEnvelopeSupply over suiteEnvelope). */
    sizing::EnvelopeSupply envelopeSupply;

    unsigned cacheHits = 0;
    unsigned cacheMisses = 0;
    double wallSeconds = 0.0; ///< whole-suite wall time
    /// @name The resolved CPU budget (run provenance, like wallSeconds)
    /// @{
    unsigned jobs = 0;     ///< program-level workers
    unsigned threads = 0;  ///< exploration threads per analysis
    unsigned hostCpus = 0; ///< the budget: util::hostCpus()
    /// @}
};

/** The content hash behind both result caches (this one and
 *  fault::campaignCacheKey): @p magic, @p lib by content (a calibration
 *  edit must invalidate every entry), whatever @p hash_options adds,
 *  then @p image's (address, word) pairs. */
uint64_t contentKey(const char *magic, const CellLibrary &lib,
                    const isa::Image &image,
                    const std::function<void(uint64_t &)> &hash_options);

/**
 * Cache key for one (library, image, options) combination -- exposed
 * so tests can pin the exclusion rules (numThreads/evalMode/record*
 * do not participate; see the file comment).
 */
uint64_t cacheKey(const CellLibrary &lib, const isa::Image &image,
                  const Options &opts);

/** The most ISS cycles one analysis's cost estimate runs; see
 *  estimateCost. */
constexpr uint64_t kCostEstimateCap = 4096;

/**
 * A deterministic estimate of the cycles Algorithm 1 explores when it
 * analyzes @p image under @p scen, read from the image and the
 * scenario alone (no earlier run). The golden ISS runs the image with
 * the ports and undefined inputs at 0, and a taint shadow marks what
 * the engine leaves X (isa::Iss). Where a conditional jump depends on
 * taint, the estimate forks like the engine, runs both successors,
 * and merges a successor whose state (taint standing in for X) a path
 * has already reached. A successor that repeats a state of its own
 * path is an input-dependent loop, which has no bound of its own, and
 * an image that does not halt never stops: both run to the cap.
 * The result is the cycles all paths ran, at most kCostEstimateCap;
 * a path that stops on an unsupported opcode counts the cycles it
 * reached. analyzeBatch claims its groups costliest first by it.
 */
uint64_t estimateCost(const isa::Image &image,
                      const scenario::Scenario &scen);

/**
 * Analyze every program of @p programs against a system elaborated
 * from @p lib. Per-program failures (including thrown exceptions) are
 * captured in the corresponding ProgramResult; the call itself only
 * throws on an unusable cache directory (util::DiskCacheError).
 */
BatchReport analyzeBatch(const CellLibrary &lib,
                         const std::vector<BatchProgram> &programs,
                         const BatchOptions &opts);

} // namespace peak
} // namespace ulpeak

#endif // ULPEAK_PEAK_BATCH_HH
