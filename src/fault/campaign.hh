/**
 * @file
 * Deterministic SEU fault-injection campaigns: sweep injection sites
 * (every flop of the netlist, plus optional random RAM bits) times
 * injection cycles over one application, classify every faulted run
 * against the golden ISS, and aggregate a per-site vulnerability
 * table.
 *
 * Determinism contract (the campaign analogue of the batch layer's):
 * the per-injection classification rows are bit-identical across
 * CampaignOptions::jobs (atomic-claim worker pool over a pre-sized
 * result vector) and across EvalMode, and each row is what the scalar
 * runner reports for that one injection (the packed runner's
 * lane-identity invariant) -- so neither option participates in the
 * disk-cache key, and `ulfault`'s JSON/CSV output (timings excluded)
 * is byte-identical across --jobs and cache states. Site lists and
 * injection cycles derive from fuzz::Rng streams of the campaign seed,
 * never from iteration order or scheduling.
 *
 * The campaign first runs the *unfaulted* golden execution: it must
 * lockstep cleanly (otherwise the campaign refuses to run -- fault
 * classification atop a diverging bedrock would be meaningless), and
 * its cycle count defines both the injection-cycle space and the
 * default hang budget. With CampaignOptions::withEnvelope the X-based
 * per-cycle envelope is analyzed once and every faulted run's power
 * trace is compared against it: a faulted run exceeding the envelope
 * is an *escape* -- a reported finding, not an error (the envelope's
 * guarantee quantifies over inputs, not over particle strikes).
 */

#ifndef ULPEAK_FAULT_CAMPAIGN_HH
#define ULPEAK_FAULT_CAMPAIGN_HH

#include <string>
#include <vector>

#include "fault/fault.hh"
#include "peak/peak_analysis.hh"

namespace ulpeak {
namespace fault {

struct CampaignOptions {
    uint64_t seed = 1;
    /** Cap on worker threads (0: uncapped, one per CPU of the host;
     *  1: serial on the calling thread). */
    unsigned jobs = 0;
    /** Injection cycles drawn per site. */
    unsigned cyclesPerSite = 1;
    /** Cap on flop sites (0 = every flop); capped lists subsample the
     *  seqGates order evenly, so the selection is size-stable. */
    size_t maxFlopSites = 0;
    /** Random RAM-bit sites appended after the flop sites. */
    size_t ramSites = 0;
    uint16_t portIn = 0;
    /** Kernel of the golden run, the envelope analysis and scalar
     *  row runs (classification-invariant by contract). */
    EvalMode evalMode = EvalMode::EventDriven;
    /** Budget of the golden (unfaulted) run. */
    uint64_t goldenMaxCycles = 60000;
    /** Hang budget of faulted runs; 0 = 4 * golden cycles + 64. */
    uint64_t hangCycles = 0;
    double freqHz = 100e6;
    /** Analyze the X-based envelope and flag escapes. */
    bool withEnvelope = false;
    /** Envelope analysis options (only freqHz-consistent,
     *  result-affecting fields participate in the cache key). */
    peak::Options analysis;
    /** Disk cache directory; "" disables caching. Created on demand
     *  (runCampaign throws util::DiskCacheError when it cannot be);
     *  shared safely by concurrent campaigns (util::DiskCache). */
    std::string cacheDir;
};

/** One classified injection: row of the campaign table. */
struct InjectionResult {
    uint32_t siteIndex = 0; ///< into CampaignResult::sites
    uint64_t cycle = 0;     ///< injection cycle
    FaultResult r;          ///< report field always empty here
};

/** Per-site aggregate over its injections. */
struct SiteSummary {
    uint32_t siteIndex = 0;
    uint64_t masked = 0, sdc = 0, crash = 0, hang = 0;
    uint64_t notApplied = 0; ///< flips that hit X state (no-ops)
    uint64_t escapes = 0;    ///< envelope escapes (withEnvelope)
    float maxPeakPowerW = 0.0f;
};

struct CampaignResult {
    bool ok = false;
    std::string error; ///< golden-run divergence, bad options, ...

    uint64_t goldenCycles = 0;
    uint64_t goldenInstructions = 0;
    uint64_t hangCycles = 0; ///< resolved faulted-run budget

    bool envelopePresent = false;
    std::string envelopeError; ///< analysis failed; escapes skipped
    uint64_t envelopeCycles = 0;
    double envelopePeakW = 0.0;

    std::vector<Site> sites;
    std::vector<std::string> siteNames;
    /** Site-major: row s * cyclesPerSite + c is site s's c-th cycle. */
    std::vector<InjectionResult> injections;
    std::vector<SiteSummary> summaries;

    /// @name Totals over every injection
    /// @{
    uint64_t masked = 0, sdc = 0, crash = 0, hang = 0;
    uint64_t notApplied = 0;
    uint64_t escapes = 0;
    /// @}

    bool cacheHit = false;
    double wallSeconds = 0.0;
    /// @name Packed-runner cost (0 on a cache hit)
    /// @{
    uint64_t packedSweeps = 0; ///< PackedBatch::sweeps, summed
    uint64_t laneCycles = 0;   ///< PackedBatch::laneCycles, summed
    /// @}
};

/**
 * The campaign's site list and per-site injection cycles for
 * @p golden_cycles total golden cycles -- exposed so tests and replay
 * can re-derive any row's (site, cycle) from the seed alone.
 */
std::vector<Site> campaignSites(const Netlist &nl,
                                const msp::System &sys,
                                const CampaignOptions &opts);
std::vector<uint64_t> siteInjectionCycles(uint64_t seed,
                                          uint32_t site_index,
                                          unsigned cycles_per_site,
                                          uint64_t golden_cycles);

/** Cache key over (library, image, result-affecting options);
 *  jobs and evalMode are excluded by the determinism
 *  contract. Exposed so tests can pin the exclusion rules. */
uint64_t campaignCacheKey(const CellLibrary &lib,
                          const isa::Image &image,
                          const CampaignOptions &opts);

/**
 * What every faulted run of one campaign shares: the golden
 * (unfaulted) lockstep run that gates the campaign, the resolved hang
 * budget and, with withEnvelope, the envelope that flags escapes.
 * runCampaign, `ulfault --replay` and the tests' scalar reference all
 * start here. Holds references to its arguments.
 */
struct CampaignSetup {
    /** Run the golden lockstep on @p sys and resolve the budget. */
    CampaignSetup(msp::System &sys, const isa::Image &image,
                  const CampaignOptions &opts);

    /** With opts.withEnvelope, analyze the envelope (a failure lands
     *  in envelopeError; runs then skip the escape check). */
    void analyzeEnvelope();

    RunOptions runOptions() const;

    /** The scalar run of one row, report included. */
    FaultResult runRow(const Site &site, uint64_t cycle);

    msp::System &sys;
    const isa::Image &image;
    const CampaignOptions &opts;
    power::PowerContext ctx; ///< shared by every run
    cosim::Result golden;    ///< the campaign runs only when ok
    uint64_t hangCycles = 0; ///< opts.hangCycles or 4 * golden + 64
    peak::Envelope envelope;
    std::string envelopeError;
};

/** Run the campaign of @p opts for @p image on @p lib's system. */
CampaignResult runCampaign(const CellLibrary &lib,
                           const isa::Image &image,
                           const CampaignOptions &opts);

} // namespace fault
} // namespace ulpeak

#endif // ULPEAK_FAULT_CAMPAIGN_HH
