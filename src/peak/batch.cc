#include "peak/batch.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <istream>
#include <memory>
#include <ostream>
#include <unordered_set>

#include "isa/iss.hh"
#include "msp/cpu.hh"
#include "util/content_hash.hh"
#include "util/disk_cache.hh"
#include "util/worker_pool.hh"

namespace ulpeak {
namespace peak {
namespace {

using Clock = std::chrono::steady_clock;
using util::doubleBits;
using util::floatBits;
using util::fromBits;
using util::hashDouble;
using util::hashString;
using util::hashU64;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// @name Disk cache entries (util::DiskCache)
/// @{
// Format-version header. v2 added the envelope fields; v3 made the
// deployment scenario part of the key (a v2 entry was implicitly
// "unconstrained", so letting it satisfy a constrained lookup -- or
// the other way around -- would serve numbers from the wrong
// environment); v4 added operating-mode (DVFS) schedules to the
// scenario hash -- a v3 binary knows nothing about modes, so its
// entries must never satisfy a mode-scheduled lookup even if the
// rest of the scenario hashes equal. The version participates both
// in the cache key (stale files are simply never addressed) and in
// DiskCache's magic-line check (a key collision or a hand-copied
// entry from an older binary is rejected as a miss instead of
// deserializing into a garbage report).
constexpr const char *kCacheMagic = "ulpeak-cache-v4";

/** Parse a cached result body into @p out; false on a malformed /
 *  truncated entry (treated as a miss and overwritten, @p out
 *  untouched). When @p expect_envelope, an entry without the envelope
 *  payload is a miss; window curves are rebuilt by the caller. */
bool
readEntry(std::istream &in, ProgramResult &out, bool expect_envelope)
{
    ProgramResult r = out;
    bool ok = true;
    auto parseU64 = [&ok](const std::string &s) -> uint64_t {
        char *end = nullptr;
        uint64_t v = std::strtoull(s.c_str(), &end, 10);
        if (s.empty() || !end || *end != '\0')
            ok = false;
        return v;
    };
    unsigned seen = 0; // bitmask: each field must appear exactly once
    auto mark = [&](unsigned bit) {
        if (seen & (1u << bit))
            ok = false;
        seen |= 1u << bit;
    };
    uint64_t envCycles = 0;
    std::string envBits;
    std::string k, v;
    while (in >> k >> v) {
        if (k == "peak_power_w_bits") {
            ok &= fromBits(v.data(), v.size(), r.peakPowerW);
            mark(0);
        } else if (k == "peak_energy_j_bits") {
            ok &= fromBits(v.data(), v.size(), r.peakEnergyJ);
            mark(1);
        } else if (k == "npe_j_per_cycle_bits") {
            ok &= fromBits(v.data(), v.size(), r.npeJPerCycle);
            mark(2);
        } else if (k == "max_path_cycles") {
            r.maxPathCycles = parseU64(v);
            mark(3);
        } else if (k == "total_cycles") {
            r.totalCycles = parseU64(v);
            mark(4);
        } else if (k == "paths_explored") {
            r.pathsExplored = uint32_t(parseU64(v));
            mark(5);
        } else if (k == "dedup_merges") {
            r.dedupMerges = uint32_t(parseU64(v));
            mark(6);
        } else if (k == "envelope_cycles") {
            envCycles = parseU64(v);
            mark(7);
        } else if (k == "envelope_w_bits") {
            envBits = v;
            mark(8);
        }
        // Unknown keys are ignored (forward compatibility).
    }
    unsigned required = expect_envelope
                            ? (envCycles ? 0x1ffu : 0xffu)
                            : 0x7fu;
    if (!ok || seen != required)
        return false;
    if (expect_envelope) {
        // 8 hex digits per cycle, concatenated (divided, not
        // multiplied: envCycles comes from the file).
        if (envBits.size() % 8 || envBits.size() / 8 != envCycles)
            return false;
        r.envelope.present = true;
        r.envelope.powerW.resize(size_t(envCycles));
        for (size_t c = 0; c < envCycles; ++c)
            if (!fromBits(envBits.data() + 8 * c, 8, r.envelope.powerW[c]))
                return false;
    }
    r.ok = true;
    out = std::move(r);
    return true;
}

/** The body of a successful result's cache entry. */
void
writeEntry(std::ostream &out, const ProgramResult &r)
{
    out << "peak_power_w_bits " << doubleBits(r.peakPowerW) << "\n"
        << "peak_energy_j_bits " << doubleBits(r.peakEnergyJ) << "\n"
        << "npe_j_per_cycle_bits " << doubleBits(r.npeJPerCycle) << "\n"
        << "max_path_cycles " << r.maxPathCycles << "\n"
        << "total_cycles " << r.totalCycles << "\n"
        << "paths_explored " << r.pathsExplored << "\n"
        << "dedup_merges " << r.dedupMerges << "\n";
    if (r.envelope.present) {
        out << "envelope_cycles " << r.envelope.powerW.size() << "\n";
        if (!r.envelope.powerW.empty()) {
            out << "envelope_w_bits ";
            for (float f : r.envelope.powerW)
                out << floatBits(f);
            out << "\n";
        }
    }
}
/// @}

/** A path of the cost estimate, and the states of its forks so far. */
struct EstimatePath {
    isa::Iss iss;
    std::vector<uint64_t> trail;
};

} // namespace

uint64_t
estimateCost(const isa::Image &image, const scenario::Scenario &scen)
{
    auto root = std::make_unique<EstimatePath>();
    isa::Iss &iss = root->iss;
    try {
        iss.loadImage(image);
    } catch (const std::out_of_range &) {
        return 0; // the analysis rejects the image as fast
    }
    for (const auto &[addr, words] : scen.ramInit)
        for (size_t k = 0; k < words.size(); ++k)
            iss.writeMem(uint32_t(addr + 2 * k), words[k]);
    iss.reset();
    for (const auto &[reg, value] : scen.regInit)
        iss.setReg(reg, value);
    bool portFree = scen.port.pinned != 0xffff;
    if (!scen.portSchedule.empty()) {
        portFree = false;
        for (const scenario::PortPattern &p : scen.portSchedule)
            portFree |= p.pinned != 0xffff;
    }
    iss.setPortTainted(portFree);

    uint64_t cycles = 0;
    std::unordered_set<uint64_t> seen;
    // Paths are held by pointer: an Iss carries 2 KB of RAM, copied
    // once per fork and never on a move.
    std::vector<std::unique_ptr<EstimatePath>> pending;
    pending.push_back(std::move(root));
    while (!pending.empty()) {
        std::unique_ptr<EstimatePath> owned = std::move(pending.back());
        pending.pop_back();
        EstimatePath &path = *owned;
        for (bool running = true; running;) {
            if (cycles >= kCostEstimateCap)
                return kCostEstimateCap;
            uint64_t c0 = path.iss.cycles();
            running = path.iss.step();
            cycles += path.iss.cycles() - c0;
            if (!running || path.iss.forkTarget() < 0)
                continue;
            auto other = std::make_unique<EstimatePath>(path);
            other->iss.setReg(isa::kPc, uint16_t(path.iss.forkTarget()));
            uint64_t key = path.iss.maskedStateKey();
            uint64_t otherKey = other->iss.maskedStateKey();
            for (uint64_t k : {key, otherKey})
                if (std::find(path.trail.begin(), path.trail.end(), k) !=
                    path.trail.end())
                    return kCostEstimateCap; // an input-dependent loop
            if (seen.insert(otherKey).second) {
                other->trail.push_back(otherKey);
                pending.push_back(std::move(other));
            }
            running = seen.insert(key).second;
            path.trail.push_back(key);
        }
    }
    return std::min(cycles, kCostEstimateCap);
}

uint64_t
contentKey(const char *magic, const CellLibrary &lib,
           const isa::Image &image,
           const std::function<void(uint64_t &)> &hash_options)
{
    uint64_t h = util::kFnvOffset;
    hashString(h, magic);
    hashString(h, lib.name());
    hashDouble(h, lib.vdd());
    hashDouble(h, lib.wireCapPerFanoutF());
    for (size_t k = 0; k < kNumCellKinds; ++k) {
        const CellParams &p = lib.params(CellKind(k));
        hashDouble(h, p.inputCapF);
        hashDouble(h, p.riseEnergyJ);
        hashDouble(h, p.fallEnergyJ);
        hashDouble(h, p.leakageW);
        hashDouble(h, p.areaUm2);
        hashDouble(h, p.clkPinEnergyJ);
    }
    hash_options(h);
    auto words = image.flatten();
    hashU64(h, words.size());
    for (const auto &[addr, word] : words) {
        hashU64(h, addr);
        hashU64(h, word);
    }
    return h;
}

uint64_t
cacheKey(const CellLibrary &lib, const isa::Image &image,
         const Options &opts)
{
    return contentKey(kCacheMagic, lib, image, [&opts](uint64_t &h) {
        // Result-affecting options only; numThreads, evalMode,
        // snapshotMode, staticPrune and packedExplore are excluded on
        // purpose (scheduling-independent exploration, bit-identical
        // kernels, fork representations, prune masks and the packed
        // frontier), as are recordActiveSets and recordModuleTrace
        // (never cached). recordEnvelope and the window set
        // participate: they change what a cached entry must contain.
        // The scenario participates by content (not name): it
        // changes every number.
        hashDouble(h, opts.freqHz);
        hashU64(h, opts.maxTotalCycles);
        hashU64(h, opts.inputDependentLoopBound);
        opts.scenario.hashInto(h);
        hashU64(h, opts.recordEnvelope ? 1 : 0);
        if (opts.recordEnvelope) {
            hashU64(h, opts.envelopeWindows.size());
            for (unsigned w : opts.envelopeWindows)
                hashU64(h, w);
        }
    });
}

BatchReport
analyzeBatch(const CellLibrary &lib,
             const std::vector<BatchProgram> &programs,
             const BatchOptions &opts)
{
    Clock::time_point suite0 = Clock::now();

    BatchReport rep;
    // The work list is the scenario x program matrix, scenario-major
    // (a single implicit scenario reproduces the old flat suite).
    std::vector<scenario::Scenario> scens = opts.scenarios;
    if (scens.empty())
        scens.push_back(opts.analysis.scenario);
    const size_t nProg = programs.size();
    const size_t nItems = scens.size() * nProg;

    rep.programs.resize(nItems);
    rep.hostCpus = util::hostCpus();
    for (size_t s = 0; s < scens.size(); ++s)
        for (size_t p = 0; p < nProg; ++p) {
            rep.programs[s * nProg + p].name = programs[p].name;
            rep.programs[s * nProg + p].scenario = scens[s].name;
        }
    auto optionsOf = [&](size_t item) {
        Options o = opts.analysis;
        o.scenario = scens[item / nProg];
        return o;
    };

    util::DiskCache cache(opts.cacheDir, "", kCacheMagic);
    cache.open();

    // Cache lookups first, over the whole matrix.
    std::vector<uint64_t> keys(nItems, 0);
    std::vector<uint8_t> hit(nItems, 0);
    std::atomic<unsigned> hits{0}, misses{0};
    if (cache.enabled()) {
        util::parallelFor(
            nItems,
            util::cpuBudget(nItems, opts.jobs, opts.analysis.numThreads,
                            rep.hostCpus)
                .jobs,
            [&](unsigned, size_t i) {
                const Options aopts = optionsOf(i);
                ProgramResult &r = rep.programs[i];
                Clock::time_point t0 = Clock::now();
                keys[i] = cacheKey(lib, programs[i % nProg].image, aopts);
                if (!cache.load(keys[i], [&](std::istream &in) {
                        return readEntry(in, r, aopts.recordEnvelope);
                    })) {
                    ++misses;
                    return true;
                }
                if (r.envelope.present) {
                    // Window curves are derived data: rebuild them
                    // from the cached trace exactly as the cold path
                    // built them.
                    r.envelope.windows = aopts.envelopeWindows;
                    if (aopts.scenario.hasModes())
                        buildWindowCurves(r.envelope,
                                          aopts.scenario.phaseTclkS());
                    else
                        buildWindowCurves(r.envelope,
                                          1.0 / aopts.freqHz);
                }
                r.cached = true;
                hit[i] = 1;
                ++hits;
                r.wallSeconds = secondsSince(t0);
                return true;
            });
    }

    // The misses in analysis groups: the scenarios of one image share
    // one exploration (peak::analyzeGroup), so their paths share the
    // simulator lanes; every other option is the suite's. Groups
    // follow the programs' input order.
    std::vector<std::vector<size_t>> groups;
    {
        std::vector<std::vector<std::pair<uint32_t, uint16_t>>> images;
        std::vector<size_t> groupOfImage;
        for (size_t p = 0; p < nProg; ++p) {
            auto words = programs[p].image.flatten();
            size_t img = size_t(
                std::find(images.begin(), images.end(), words) -
                images.begin());
            if (img == images.size()) {
                images.push_back(std::move(words));
                groupOfImage.push_back(SIZE_MAX);
            }
            for (size_t s = 0; s < scens.size(); ++s) {
                size_t i = s * nProg + p;
                if (hit[i])
                    continue;
                if (groupOfImage[img] == SIZE_MAX) {
                    groupOfImage[img] = groups.size();
                    groups.emplace_back();
                }
                groups[groupOfImage[img]].push_back(i);
            }
        }
    }

    // Each group is one item of the CPU budget.
    const util::CpuBudget budget =
        util::cpuBudget(groups.empty() ? nItems : groups.size(), opts.jobs,
                        opts.analysis.numThreads, rep.hostCpus);
    rep.jobs = budget.jobs;
    rep.threads = budget.threads;
    Options gopts = opts.analysis;
    gopts.numThreads = budget.threads;

    // Costliest groups first, so the pool does not end on a long
    // analysis claimed last. Rows are written by item index, so the
    // claim order moves only the wall time.
    std::vector<uint64_t> cost(groups.size(), 0);
    for (size_t g = 0; g < groups.size(); ++g)
        for (size_t i : groups[g])
            cost[g] += estimateCost(programs[i % nProg].image,
                                    scens[i / nProg]);
    const std::vector<size_t> order = util::claimOrder(cost);

    util::parallelFor(groups.size(), budget.jobs, [&](unsigned, size_t k) {
        const std::vector<size_t> &items = groups[order[k]];
        Clock::time_point t0 = Clock::now();
        std::vector<scenario::Scenario> groupScens;
        for (size_t i : items)
            groupScens.push_back(scens[i / nProg]);
        std::vector<Report> full;
        std::string error;
        try {
            // A System of its own memory over the library's shared
            // netlist costs a memory image, not an elaboration.
            msp::System sys(lib);
            full = analyzeGroup(sys, programs[items.front() % nProg].image,
                                gopts, groupScens);
        } catch (const std::exception &e) {
            error = e.what();
        }
        bool ok = true;
        for (size_t k = 0; k < items.size(); ++k) {
            ProgramResult &r = rep.programs[items[k]];
            if (full.empty()) {
                r.ok = false;
                r.error = error;
            } else {
                r.envelope = std::move(full[k].envelope);
                static_cast<sym::AnalysisSummary &>(r) = std::move(full[k]);
            }
            if (r.ok)
                cache.store(keys[items[k]],
                            [&](std::ostream &out) { writeEntry(out, r); });
            ok &= r.ok;
        }
        // One exploration ran the whole group: its rows share its time.
        for (size_t i : items)
            rep.programs[i].wallSeconds = secondsSince(t0);
        return ok || !opts.failFast;
    });

    rep.cacheHits = hits.load();
    rep.cacheMisses = misses.load();

    rep.ok = nItems > 0;
    for (ProgramResult &r : rep.programs) {
        if (!r.ok) {
            rep.ok = false;
            if (r.error.empty())
                r.error = "skipped (fail-fast after earlier failure)";
        }
    }

    // Per-scenario aggregates; the top-level fields mirror the first
    // scenario so single-scenario callers see the familiar report.
    rep.scenarios.resize(scens.size());
    for (size_t s = 0; s < scens.size(); ++s) {
        ScenarioSummary &sum = rep.scenarios[s];
        sum.scenario = scens[s].name;
        sum.summary = scens[s].summary();
        sum.ok = nProg > 0;
        bool anyOk = false;
        for (size_t p = 0; p < nProg; ++p) {
            const ProgramResult &r = rep.programs[s * nProg + p];
            if (!r.ok) {
                sum.ok = false;
                continue;
            }
            anyOk = true;
            if (r.peakPowerW > sum.maxPeakPowerW) {
                sum.maxPeakPowerW = r.peakPowerW;
                sum.maxPeakPowerProgram = r.name;
            }
            if (r.peakEnergyJ > sum.maxPeakEnergyJ) {
                sum.maxPeakEnergyJ = r.peakEnergyJ;
                sum.maxPeakEnergyProgram = r.name;
            }
            if (r.npeJPerCycle > sum.maxNpeJPerCycle) {
                sum.maxNpeJPerCycle = r.npeJPerCycle;
                sum.maxNpeProgram = r.name;
            }
        }
        if (anyOk)
            sum.supply = sizing::sizeSuiteSupply(sum.maxPeakPowerW,
                                                 sum.maxPeakEnergyJ);

        // Suite envelope: elementwise max of the scenario's
        // per-program envelopes, composed in input order (max is
        // order-independent, so any order would produce the same
        // bytes), then sized.
        if (opts.analysis.recordEnvelope && anyOk) {
            double tclk = 1.0 / opts.analysis.freqHz;
            // Under a mode schedule the cycles run at per-phase
            // clocks: the curves use the exact per-phase periods,
            // and the sizing's sustained-rate conversion uses the
            // schedule-mean period (energy per cycle over seconds
            // per cycle, averaged over one period).
            std::vector<double> phaseTclk;
            if (scens[s].hasModes()) {
                phaseTclk = scens[s].phaseTclkS();
                double acc = 0.0;
                for (double t : phaseTclk)
                    acc += t;
                tclk = acc / double(phaseTclk.size());
            }
            sum.suiteEnvelope.windows =
                opts.analysis.envelopeWindows;
            for (size_t p = 0; p < nProg; ++p) {
                const ProgramResult &r = rep.programs[s * nProg + p];
                if (r.ok)
                    maxComposeEnvelope(sum.suiteEnvelope, r.envelope);
            }
            if (sum.suiteEnvelope.present) {
                if (phaseTclk.empty())
                    buildWindowCurves(sum.suiteEnvelope, tclk);
                else
                    buildWindowCurves(sum.suiteEnvelope, phaseTclk);
                sum.envelopeSupply = sizing::sizeEnvelopeSupply(
                    sum.suiteEnvelope.windows,
                    sum.suiteEnvelope.peakWindowEnergyJ,
                    sum.suiteEnvelope.peakPowerW(), tclk, lib.vdd());
            }
        }
    }
    if (!rep.scenarios.empty()) {
        const ScenarioSummary &first = rep.scenarios.front();
        rep.maxPeakPowerW = first.maxPeakPowerW;
        rep.maxPeakPowerProgram = first.maxPeakPowerProgram;
        rep.maxPeakEnergyJ = first.maxPeakEnergyJ;
        rep.maxPeakEnergyProgram = first.maxPeakEnergyProgram;
        rep.maxNpeJPerCycle = first.maxNpeJPerCycle;
        rep.maxNpeProgram = first.maxNpeProgram;
        rep.supply = first.supply;
        rep.suiteEnvelope = first.suiteEnvelope;
        rep.envelopeSupply = first.envelopeSupply;
    }
    rep.wallSeconds = secondsSince(suite0);
    return rep;
}

} // namespace peak
} // namespace ulpeak
