#include "fault/campaign.hh"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <istream>
#include <memory>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <string_view>

#include "fuzz/rng.hh"
#include "peak/batch.hh"
#include "util/content_hash.hh"
#include "util/disk_cache.hh"
#include "util/worker_pool.hh"

namespace ulpeak {
namespace fault {
namespace {

using Clock = std::chrono::steady_clock;
using util::doubleBits;
using util::floatBits;
using util::fromBits;
using util::hashDouble;
using util::hashU64;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// @name Disk cache entries (util::DiskCache)
/// @{
constexpr const char *kCacheMagic = "ulfault-cache-v1";

/** One row per injection, fixed field order; every numeric field is
 *  decimal except the hex-bit-pattern peak power (exact float
 *  round-trip, so a warm run reproduces the cold run bit for bit). */
void
writeEntry(std::ostream &out, const CampaignResult &res)
{
    out << "golden_cycles " << res.goldenCycles << "\n"
        << "golden_instructions " << res.goldenInstructions << "\n"
        << "hang_cycles " << res.hangCycles << "\n"
        << "envelope_present " << (res.envelopePresent ? 1 : 0) << "\n"
        << "envelope_cycles " << res.envelopeCycles << "\n"
        << "envelope_peak_w_bits " << doubleBits(res.envelopePeakW)
        << "\n"
        << "rows " << res.injections.size() << "\n";
    for (const InjectionResult &ir : res.injections) {
        const FaultResult &r = ir.r;
        out << "row " << ir.siteIndex << " " << ir.cycle << " "
            << unsigned(r.outcome) << " " << (r.applied ? 1 : 0) << " "
            << unsigned(r.kind) << " " << r.divergenceCycle << " "
            << r.instrIndex << " " << r.pc << " " << r.gateCycles << " "
            << r.instructionsRetired << " " << floatBits(r.peakPowerW)
            << " " << r.peakCycle << " " << r.traceCycles << " "
            << (r.envelopeEscape ? 1 : 0) << " " << r.escapeCycle
            << "\n";
    }
}

/** Parse the campaign body into @p out; false on corruption (re-run,
 *  @p out untouched), a repeated header key included, as in the batch
 *  reader. The row (site, cycle) pairs must match the
 *  freshly derived task list -- a key collision can never smuggle in
 *  rows of a different campaign shape. */
bool
readEntry(std::istream &in, CampaignResult &out)
{
    CampaignResult res = out;
    std::string k;
    uint64_t rows = UINT64_MAX;
    std::string peakBits;
    std::set<std::string> seen; // a repeated header key is malformed
    while (in >> k) {
        if (!seen.insert(k).second)
            return false;
        if (k == "golden_cycles") {
            if (!(in >> res.goldenCycles))
                return false;
        } else if (k == "golden_instructions") {
            if (!(in >> res.goldenInstructions))
                return false;
        } else if (k == "hang_cycles") {
            if (!(in >> res.hangCycles))
                return false;
        } else if (k == "envelope_present") {
            if (!(in >> res.envelopePresent))
                return false;
        } else if (k == "envelope_cycles") {
            if (!(in >> res.envelopeCycles))
                return false;
        } else if (k == "envelope_peak_w_bits") {
            if (!(in >> peakBits) ||
                !fromBits(peakBits.data(), peakBits.size(),
                          res.envelopePeakW))
                return false;
        } else if (k == "rows") {
            if (!(in >> rows))
                return false;
            break;
        } else {
            return false;
        }
    }
    if (rows != res.injections.size())
        return false;
    for (InjectionResult &ir : res.injections) {
        uint32_t site;
        uint64_t cycle;
        unsigned outcome, applied, kind, escape;
        std::string pBits;
        FaultResult &r = ir.r;
        if (!(in >> k >> site >> cycle >> outcome >> applied >> kind >>
              r.divergenceCycle >> r.instrIndex >> r.pc >>
              r.gateCycles >> r.instructionsRetired >> pBits >>
              r.peakCycle >> r.traceCycles >> escape >> r.escapeCycle))
            return false;
        if (k != "row" || site != ir.siteIndex || cycle != ir.cycle)
            return false;
        if (outcome > unsigned(Outcome::Hang) ||
            std::string_view(cosim::divergenceKindName(
                cosim::Divergence::Kind(kind))) == "?")
            return false;
        r.outcome = Outcome(outcome);
        r.applied = applied != 0;
        r.kind = cosim::Divergence::Kind(kind);
        r.envelopeEscape = escape != 0;
        if (!fromBits(pBits.data(), pBits.size(), r.peakPowerW))
            return false;
    }
    out = std::move(res);
    return true;
}
/// @}

void
aggregate(CampaignResult &res)
{
    res.summaries.assign(res.sites.size(), SiteSummary{});
    for (size_t s = 0; s < res.sites.size(); ++s)
        res.summaries[s].siteIndex = uint32_t(s);
    for (const InjectionResult &ir : res.injections) {
        SiteSummary &sum = res.summaries[ir.siteIndex];
        switch (ir.r.outcome) {
          case Outcome::Masked: ++sum.masked; ++res.masked; break;
          case Outcome::Sdc: ++sum.sdc; ++res.sdc; break;
          case Outcome::Crash: ++sum.crash; ++res.crash; break;
          case Outcome::Hang: ++sum.hang; ++res.hang; break;
        }
        if (!ir.r.applied) {
            ++sum.notApplied;
            ++res.notApplied;
        }
        if (ir.r.envelopeEscape) {
            ++sum.escapes;
            ++res.escapes;
        }
        if (ir.r.peakPowerW > sum.maxPeakPowerW)
            sum.maxPeakPowerW = ir.r.peakPowerW;
    }
}

} // namespace

std::vector<Site>
campaignSites(const Netlist &nl, const msp::System &sys,
              const CampaignOptions &opts)
{
    std::vector<Site> sites = flopSites(nl);
    if (opts.maxFlopSites && sites.size() > opts.maxFlopSites) {
        // Even subsample of the seqGates order: stable under the cap,
        // spread across the whole flop population (every module).
        std::vector<Site> picked;
        picked.reserve(opts.maxFlopSites);
        for (size_t j = 0; j < opts.maxFlopSites; ++j)
            picked.push_back(sites[j * sites.size() /
                                   opts.maxFlopSites]);
        sites.swap(picked);
    }
    const Memory &mem = sys.memory();
    fuzz::Rng rng(fuzz::Rng::deriveStream(opts.seed, 2ull << 40));
    for (size_t j = 0; j < opts.ramSites; ++j) {
        Site s;
        s.kind = SiteKind::Ram;
        s.addr = mem.ramBase() +
                 2 * rng.below(uint32_t(mem.ramSize() / 2));
        s.bit = uint8_t(rng.below(16));
        sites.push_back(s);
    }
    return sites;
}

std::vector<uint64_t>
siteInjectionCycles(uint64_t seed, uint32_t site_index,
                    unsigned cycles_per_site, uint64_t golden_cycles)
{
    fuzz::Rng rng(
        fuzz::Rng::deriveStream(seed, (1ull << 40) + site_index));
    std::vector<uint64_t> cycles(cycles_per_site);
    for (uint64_t &c : cycles)
        c = rng.below(uint32_t(golden_cycles));
    return cycles;
}

uint64_t
campaignCacheKey(const CellLibrary &lib, const isa::Image &image,
                 const CampaignOptions &opts)
{
    return peak::contentKey(kCacheMagic, lib, image, [&opts](uint64_t &h) {
        // Result-affecting campaign options. jobs and evalMode are
        // excluded: the determinism contract makes them
        // classification-invariant (and the tests lockstep them).
        hashU64(h, opts.seed);
        hashU64(h, opts.cyclesPerSite);
        hashU64(h, opts.maxFlopSites);
        hashU64(h, opts.ramSites);
        hashU64(h, opts.portIn);
        hashU64(h, opts.goldenMaxCycles);
        hashU64(h, opts.hangCycles);
        hashDouble(h, opts.freqHz);
        hashU64(h, opts.withEnvelope ? 1 : 0);
        if (opts.withEnvelope) {
            hashDouble(h, opts.analysis.freqHz);
            hashU64(h, opts.analysis.maxTotalCycles);
            hashU64(h, opts.analysis.inputDependentLoopBound);
            opts.analysis.scenario.hashInto(h);
        }
    });
}

CampaignSetup::CampaignSetup(msp::System &system, const isa::Image &img,
                             const CampaignOptions &options)
    : sys(system), image(img), opts(options),
      ctx(system.netlist(), options.freqHz)
{
    cosim::Options gopts;
    gopts.maxCycles = opts.goldenMaxCycles;
    gopts.portIn = opts.portIn;
    gopts.evalMode = opts.evalMode;
    golden = cosim::run(sys, image, gopts);
    hangCycles =
        opts.hangCycles ? opts.hangCycles : 4 * golden.gateCycles + 64;
}

void
CampaignSetup::analyzeEnvelope()
{
    if (!opts.withEnvelope)
        return;
    peak::Options aopts = opts.analysis;
    aopts.freqHz = opts.freqHz;
    aopts.evalMode = opts.evalMode;
    aopts.recordEnvelope = true;
    peak::Report rep = peak::analyze(sys, image, aopts);
    if (rep.ok && rep.envelope.present)
        envelope = std::move(rep.envelope);
    else
        envelopeError =
            rep.error.empty() ? "envelope not recorded" : rep.error;
}

RunOptions
CampaignSetup::runOptions() const
{
    RunOptions ropts;
    ropts.maxCycles = hangCycles;
    ropts.portIn = opts.portIn;
    ropts.evalMode = opts.evalMode;
    ropts.powerCtx = &ctx;
    ropts.envelope = envelope.present ? &envelope : nullptr;
    return ropts;
}

FaultResult
CampaignSetup::runRow(const Site &site, uint64_t cycle)
{
    return runFaulted(sys, image, {{site, cycle}}, runOptions());
}

CampaignResult
runCampaign(const CellLibrary &lib, const isa::Image &image,
            const CampaignOptions &opts)
{
    Clock::time_point t0 = Clock::now();
    CampaignResult res;
    if (opts.cyclesPerSite == 0) {
        res.error = "cyclesPerSite must be nonzero";
        return res;
    }

    msp::System sys(lib);
    res.sites = campaignSites(sys.netlist(), sys, opts);
    res.siteNames.reserve(res.sites.size());
    for (const Site &s : res.sites)
        res.siteNames.push_back(siteName(sys.netlist(), s));
    if (res.sites.empty()) {
        res.error = "no injection sites";
        return res;
    }

    util::DiskCache cache(opts.cacheDir, "fault-", kCacheMagic);
    cache.open();
    const uint64_t key =
        cache.enabled() ? campaignCacheKey(lib, image, opts) : 0;

    CampaignSetup setup(sys, image, opts);
    if (!setup.golden.ok) {
        res.error = "golden run diverges (" +
                    std::string(cosim::divergenceKindName(
                        setup.golden.divergence.kind)) +
                    "); campaign refused";
        return res;
    }
    res.goldenCycles = setup.golden.gateCycles;
    res.goldenInstructions = setup.golden.instructionsRetired;
    res.hangCycles = setup.hangCycles;

    // Task list: site-major (site, cycle) rows, derived from the seed
    // alone -- identical for every jobs/evalMode combination.
    res.injections.resize(res.sites.size() * opts.cyclesPerSite);
    for (size_t s = 0; s < res.sites.size(); ++s) {
        std::vector<uint64_t> cycles = siteInjectionCycles(
            opts.seed, uint32_t(s), opts.cyclesPerSite,
            res.goldenCycles);
        for (unsigned c = 0; c < opts.cyclesPerSite; ++c) {
            InjectionResult &ir =
                res.injections[s * opts.cyclesPerSite + c];
            ir.siteIndex = uint32_t(s);
            ir.cycle = cycles[c];
        }
    }

    if (cache.load(key, [&](std::istream &in) {
            return readEntry(in, res);
        })) {
        res.cacheHit = true;
        res.ok = true;
        aggregate(res);
        res.wallSeconds = secondsSince(t0);
        return res;
    }

    setup.analyzeEnvelope();
    res.envelopePresent = setup.envelope.present;
    res.envelopeError = setup.envelopeError;
    if (res.envelopePresent) {
        res.envelopeCycles = setup.envelope.cycles();
        res.envelopePeakW = setup.envelope.peakPowerW();
    }

    // 64 rows per packed run, cut from the tasks sorted by injection
    // cycle (ties by task index); each run starts from the golden
    // checkpoint at its first injection, or from reset when that lies
    // inside reset, and writes its rows back to their task indices.
    constexpr size_t kLanes = PackedSimulator::kLanes;
    const RunOptions ropts = setup.runOptions();
    const size_t nTasks = res.injections.size();
    const size_t nGroups = (nTasks + kLanes - 1) / kLanes;
    std::vector<uint32_t> order(nTasks);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                         return res.injections[a].cycle <
                                res.injections[b].cycle;
                     });
    std::vector<uint64_t> starts;
    for (size_t g = 0; g < nGroups; ++g) {
        const uint64_t c = res.injections[order[g * kLanes]].cycle;
        if (c >= msp::System::kResetCycles &&
            (starts.empty() || starts.back() != c))
            starts.push_back(c);
    }
    const std::vector<GoldenCheckpoint> checkpoints =
        goldenCheckpoints(sys, image, starts, ropts);

    // Each worker builds its own System (its own memory over the
    // shared netlist) on its first group.
    const unsigned jobs =
        util::cpuBudget(nGroups, opts.jobs, 1, util::hostCpus()).jobs;
    std::vector<std::unique_ptr<msp::System>> systems(jobs);
    std::vector<std::pair<uint64_t, uint64_t>> costs(nGroups);

    util::parallelFor(nGroups, jobs, [&](unsigned w, size_t g) {
        if (!systems[w])
            systems[w] = std::make_unique<msp::System>(lib);
        const size_t base = g * kLanes;
        const size_t count = std::min(kLanes, nTasks - base);
        std::array<std::vector<Injection>, kLanes> faults;
        for (size_t i = 0; i < count; ++i) {
            const InjectionResult &ir = res.injections[order[base + i]];
            faults[i].push_back({res.sites[ir.siteIndex], ir.cycle});
        }
        PackedBatch out = runFaultedPacked(
            *systems[w], image, faults, ropts,
            batchStart(checkpoints, faults[0][0].cycle));
        for (size_t i = 0; i < count; ++i)
            res.injections[order[base + i]].r = std::move(out.rows[i]);
        costs[g] = {out.sweeps, out.laneCycles};
        return true;
    });
    for (const auto &[sweeps, laneCycles] : costs) {
        res.packedSweeps += sweeps;
        res.laneCycles += laneCycles;
    }

    res.ok = true;
    aggregate(res);
    if (res.envelopeError.empty())
        cache.store(key,
                    [&](std::ostream &out) { writeEntry(out, res); });
    res.wallSeconds = secondsSince(t0);
    return res;
}

} // namespace fault
} // namespace ulpeak
