#include "fuzz/properties.hh"

#include <array>
#include <cstdio>
#include <sstream>

#include "fault/campaign.hh"
#include "lint/lint.hh"
#include "peak/peak_analysis.hh"
#include "peak/validation.hh"
#include "power/analysis.hh"
#include "power/packed_run.hh"
#include "sim/packed_simulator.hh"
#include "sym/testing.hh"

namespace ulpeak {
namespace fuzz {

namespace {

/** What one side of a lockstep shows after a cycle: its complete
 *  state (values, activity bitset, load history), its full-state hash
 *  in the scalar format, and the cycle's energies. */
struct CycleState {
    Simulator::Snapshot state;
    uint64_t hash;
    double actualJ;
    double boundJ;
    std::vector<double> moduleJ;
};

CycleState
cycleState(const Simulator &s)
{
    return {s.snapshot(), s.hashFullState(), s.actualEnergyJ(),
            s.boundEnergyJ(), s.moduleBoundEnergyJ()};
}

/** Lane @p lane of @p p, aged and hashed as the scalar @p ref. */
CycleState
cycleState(const PackedSimulator &p, unsigned lane, const Simulator &ref)
{
    Simulator::Snapshot s = p.extractLaneState(lane, ref.cycle());
    uint64_t hash = ref.hashSnapshotState(s);
    return {std::move(s), hash, p.actualEnergyJ(lane), p.boundEnergyJ(lane),
            p.moduleBoundEnergyLaneJ(lane)};
}

/**
 * The state comparator of properties 2, 6 and 7: "" when @p a and
 * @p b agree on every gate's value and activity, the activity bitset,
 * the actual, bound and per-module energies and the full-state hash;
 * else the first difference, the sides named @p la and @p lb.
 */
std::string
stateDiff(const CycleState &a, const char *la, const CycleState &b,
          const char *lb)
{
    const std::vector<V4> &va = a.state.val, &vb = b.state.val;
    const uint64_t *aa = a.state.activeLast.data();
    const uint64_t *ab = b.state.activeLast.data();
    auto gateDiff = [&](GateId g, const char *what, char x, char y) {
        return " gate " + std::to_string(g) + ": " + what + " " + la +
               "=" + x + " " + lb + "=" + y + "\n";
    };
    for (GateId g = 0; g < GateId(va.size()); ++g) {
        if (va[g] != vb[g])
            return gateDiff(g, "value", v4Char(va[g]), v4Char(vb[g]));
        if (testBit(aa, g) != testBit(ab, g))
            return gateDiff(g, "activity", "01"[testBit(aa, g)],
                            "01"[testBit(ab, g)]);
    }
    if (a.state.activeLast != b.state.activeLast)
        return ": activity bitsets differ\n";
    if (a.actualJ != b.actualJ || a.boundJ != b.boundJ) {
        std::ostringstream os;
        os << ": energy " << la << "=(" << a.actualJ << ", " << a.boundJ
           << ") " << lb << "=(" << b.actualJ << ", " << b.boundJ
           << ")\n";
        return os.str();
    }
    if (a.moduleJ != b.moduleJ)
        return ": per-module energies differ\n";
    if (a.hash != b.hash)
        return ": full-state hashes differ\n";
    return "";
}

/**
 * Properties 6 and 7, netlist items: one PackedSimulator against 64
 * scalar Simulators on a random netlist from @p seed, each lane with
 * its own input schedule and, when @p seu, its own SEU flips (lane 0
 * stays fault-free as the in-item control), all derived so any lane
 * reproduces from (seed, lane) alone. Scalar lanes alternate EvalMode
 * so both kernels anchor the comparison. After every cycle each lane
 * must pass stateDiff against its scalar run, and each flip must be
 * applied (or be an X-bit no-op) alike through both injection APIs.
 */
PropertyResult
laneLockstep(uint64_t seed, const NetlistGenOptions &opts,
             unsigned cycles, bool seu)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    RandomNetlist rn = buildRandomNetlist(nl, rng, opts);
    unsigned nin = unsigned(rn.inputs.size());
    const std::vector<GateId> &seq = nl.seqGates();

    struct Flip {
        GateId gate;
        unsigned cycle;
    };
    std::array<std::vector<std::vector<V4>>, kLanes> sched;
    std::array<std::vector<Flip>, kLanes> flips;
    for (unsigned l = 0; l < kLanes; ++l) {
        Rng lrng(Rng::deriveStream(seed, l));
        sched[l] =
            makeInputSchedule(lrng, nin, cycles, opts.inputXPercent);
        if (!seu || l == 0 || seq.empty())
            continue;
        unsigned n = 1 + lrng.below(3);
        for (unsigned f = 0; f < n; ++f)
            flips[l].push_back({seq[lrng.below(unsigned(seq.size()))],
                                lrng.below(cycles)});
    }

    PackedSimulator psim(nl);
    std::vector<Simulator> sims;
    sims.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l)
        sims.emplace_back(nl, (l % 2) ? EvalMode::FullSweep
                                      : EvalMode::EventDriven);

    for (unsigned c = 0; c < cycles; ++c) {
        std::array<std::vector<bool>, kLanes> appP, appS;
        psim.step([&](PackedSimulator &s) {
            for (unsigned i = 0; i < nin; ++i) {
                V64 v;
                for (unsigned l = 0; l < kLanes; ++l)
                    v.setLane(l, sched[l][c][i]);
                s.setInput(rn.inputs[i], v);
            }
            for (unsigned l = 0; l < kLanes; ++l)
                for (const Flip &f : flips[l])
                    if (f.cycle == c)
                        appP[l].push_back(
                            s.injectSeuFlip(f.gate, 1ull << l) != 0);
        });
        for (unsigned l = 0; l < kLanes; ++l) {
            Simulator &sim = sims[l];
            sim.step([&](Simulator &s) {
                for (unsigned i = 0; i < nin; ++i)
                    s.setInput(rn.inputs[i], sched[l][c][i]);
                for (const Flip &f : flips[l])
                    if (f.cycle == c)
                        appS[l].push_back(s.injectSeuFlip(f.gate));
            });
            std::string diff =
                appP[l] != appS[l]
                    ? ": applied-flip decisions differ\n"
                    : stateDiff(cycleState(psim, l, sim), "packed",
                                cycleState(sim), "scalar");
            if (!diff.empty())
                return {false, "seed " + std::to_string(seed) +
                                   ": cycle " + std::to_string(c) +
                                   " lane " + std::to_string(l) + diff};
        }
    }
    return {};
}

/**
 * @p n port words, one per simulator cycle: a fresh random word each,
 * under @p scn's pin pattern from the end of reset on. runConcrete
 * indexes its schedule by absolute simulator cycle, so the first
 * kResetCycles words cover reset (values free: the run drives reset
 * itself) and word kResetCycles + c realizes the pattern of post-reset
 * cycle c.
 */
std::vector<uint16_t>
portWords(Rng &rng, size_t n, const scenario::Scenario &scn = {})
{
    std::vector<uint16_t> words(n);
    for (size_t a = 0; a < n; ++a) {
        uint16_t w = rng.word();
        if (a >= msp::System::kResetCycles) {
            const scenario::PortPattern &p =
                scn.patternAt(uint64_t(a) - msp::System::kResetCycles);
            w = uint16_t((w & ~p.pinned) | p.value);
        }
        words[a] = w;
    }
    return words;
}

/**
 * The envelope-bound check of properties 4, 5, 6 and 8: "" when the
 * concrete run @p run halted within @p max_cycles and its trace lies
 * under @p env at every cycle (validateTraceBound's length-aware
 * semantics: outliving the envelope is a violation, halting earlier
 * is not); else why not, with the envelope value at the first
 * violation.
 */
std::string
envelopeEscape(const std::string &run, const std::vector<float> &env,
               bool halted, const std::vector<float> &trace,
               uint64_t max_cycles)
{
    std::ostringstream os;
    if (!halted) {
        os << run << " still live after " << max_cycles
           << " cycles (envelope covers " << env.size() << ")\n";
        return os.str();
    }
    peak::TraceValidation v = peak::validateTraceBound(env, trace);
    if (v.bounds)
        return "";
    const size_t at = size_t(v.firstViolationCycle);
    os << run << ": envelope violated at " << v.violations << " of "
       << trace.size() << " cycles, first at cycle " << at << " (";
    if (at < env.size())
        os << "env=" << env[at] << " W, ";
    else
        os << "beyond the " << env.size() << "-cycle envelope, ";
    os << "concrete=" << trace[at] << " W, max excess "
       << v.maxViolationW << " W)\n";
    return os.str();
}

/**
 * The concrete side of properties 4, 5 and 8: @p runs runs of
 * @p image obeying @p scn -- @p words port words from portWords, its
 * RAM init and its operating-mode pricing -- each of which must pass
 * envelopeEscape against @p env within @p max_cycles. "" when all do.
 */
std::string
concreteEscape(msp::System &sys, const isa::Image &image, Rng &rng,
               const scenario::Scenario &scn, double freq_hz,
               const std::vector<float> &env, unsigned runs,
               size_t words, uint64_t max_cycles, const std::string &what)
{
    power::PowerContext ctx(sys.netlist(), freq_hz);
    for (unsigned run = 0; run < runs; ++run) {
        power::ConcreteRunOptions ropts;
        ropts.maxCycles = max_cycles;
        ropts.portSchedule = portWords(rng, words, scn);
        if (scn.hasModes())
            ropts.modeSchedule = scn.phasePricing(sys.lib(), freq_hz);
        power::ConcreteRunResult c =
            power::runConcrete(sys, image, ctx, ropts, scn.ramInit);
        std::string esc =
            envelopeEscape(what + " " + std::to_string(run), env,
                           c.halted, c.traceW, max_cycles);
        if (!esc.empty())
            return esc;
    }
    return "";
}

/**
 * The dominance check of properties 5 and 8: "" when @p tight lies at
 * or under @p loose -- peak power and peak energy within the relative
 * @p slack, the envelope pointwise within @p env_slack and no longer
 * (exactly as long when @p equal_length) -- else the first excess,
 * the reports named @p tn and @p ln.
 */
std::string
dominanceDiff(const peak::Report &tight, const char *tn,
              const peak::Report &loose, const char *ln, double slack,
              double env_slack, bool equal_length)
{
    std::ostringstream os;
    auto exceeds = [&](const std::string &what, double t, double l,
                       double s) {
        if (t <= l * s)
            return false;
        os << what << ": " << tn << " " << t << " > " << ln << " " << l
           << "\n";
        return true;
    };
    if (exceeds("peakPowerW", tight.peakPowerW, loose.peakPowerW,
                slack) ||
        exceeds("peakEnergyJ", tight.peakEnergyJ, loose.peakEnergyJ,
                slack))
        return os.str();
    const std::vector<float> &et = tight.envelope.powerW;
    const std::vector<float> &el = loose.envelope.powerW;
    if (equal_length ? et.size() != el.size() : et.size() > el.size()) {
        os << tn << " envelope lasts " << et.size() << " cycles, " << ln
           << " " << el.size()
           << (equal_length ? " (identical trees expected)\n" : "\n");
        return os.str();
    }
    for (size_t c = 0; c < et.size(); ++c)
        if (exceeds("envelope cycle " + std::to_string(c), et[c], el[c],
                    env_slack))
            break;
    return os.str();
}

} // namespace

PropertyResult
kernelEquivalenceCheck(uint64_t seed, const NetlistGenOptions &opts,
                       unsigned cycles)
{
    Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    RandomNetlist rn = buildRandomNetlist(nl, rng, opts);
    auto sched = makeInputSchedule(rng, unsigned(rn.inputs.size()),
                                   cycles, opts.inputXPercent);

    Simulator full(nl, EvalMode::FullSweep);
    Simulator event(nl, EvalMode::EventDriven);
    Simulator forked(nl, EvalMode::EventDriven);

    // Fork point for the snapshot/restore transparency check.
    unsigned forkAt = cycles / 2;
    Simulator::Snapshot snap;

    auto fail = [&](const std::string &detail) {
        return PropertyResult{false,
                              "seed " + std::to_string(seed) + ": " + detail};
    };
    for (unsigned c = 0; c < cycles; ++c) {
        auto drive = [&](Simulator &s) {
            for (size_t i = 0; i < rn.inputs.size(); ++i)
                s.setInput(rn.inputs[i], sched[c][i]);
        };
        full.step(drive);
        event.step(drive);
        CycleState e = cycleState(event);
        std::string diff =
            stateDiff(cycleState(full), "FullSweep", e, "EventDriven");
        if (!diff.empty())
            return fail("cycle " + std::to_string(full.cycle()) + diff);
        if (c == forkAt)
            snap = std::move(e.state);
    }

    // Replay the suffix from the snapshot on a third simulator: the
    // continuation must be indistinguishable from the original run.
    forked.restore(snap);
    for (unsigned c = forkAt + 1; c < cycles; ++c) {
        forked.step([&](Simulator &s) {
            for (size_t i = 0; i < rn.inputs.size(); ++i)
                s.setInput(rn.inputs[i], sched[c][i]);
        });
    }
    if (cycles > forkAt + 1 &&
        forked.hashFullState() != event.hashFullState())
        return fail("snapshot/restore replay diverged from the "
                    "straight-line run\n");
    return {};
}

std::string
reportDiff(const peak::Report &a, const peak::Report &b,
           ReportScope scope)
{
    std::ostringstream os;
    if (a.ok != b.ok) {
        os << "ok: a=" << a.ok << " (\"" << a.error << "\") b=" << b.ok
           << " (\"" << b.error << "\")\n";
        return os.str();
    }
    if (a.error != b.error)
        os << "error: a=\"" << a.error << "\" b=\"" << b.error << "\"\n";
    if (!a.ok)
        return os.str();

    char buf[128];
    auto num = [&](const std::string &name, double va, double vb) {
        if (va == vb)
            return;
        std::snprintf(buf, sizeof buf, ": a=%.17g b=%.17g\n", va, vb);
        os << name << buf;
    };
    // First differing entry of two sequences, plus both lengths.
    auto seq = [&](const std::string &name, const auto &va,
                   const auto &vb) {
        if (va == vb)
            return;
        size_t i = 0;
        while (i < va.size() && i < vb.size() && va[i] == vb[i])
            ++i;
        os << name << ": first difference at [" << i << "]";
        if (i < va.size() && i < vb.size()) {
            std::snprintf(buf, sizeof buf, " a=%.17g b=%.17g",
                          double(va[i]), double(vb[i]));
            os << buf;
        }
        os << " (lengths " << va.size() << " / " << vb.size() << ")\n";
    };

    num("peakPowerW", a.peakPowerW, b.peakPowerW);
    num("peakEnergyJ", a.peakEnergyJ, b.peakEnergyJ);
    num("npeJPerCycle", a.npeJPerCycle, b.npeJPerCycle);
    num("maxPathCycles", double(a.maxPathCycles),
        double(b.maxPathCycles));
    const peak::Envelope &ea = a.envelope, &eb = b.envelope;
    num("envelope.present", ea.present, eb.present);
    seq("envelope.powerW", ea.powerW, eb.powerW);
    seq("envelope.windows", ea.windows, eb.windows);
    seq("envelope.peakWindowEnergyJ", ea.peakWindowEnergyJ,
        eb.peakWindowEnergyJ);
    num("envelope.windowEnergyJ.size", double(ea.windowEnergyJ.size()),
        double(eb.windowEnergyJ.size()));
    for (size_t w = 0;
         w < ea.windowEnergyJ.size() && w < eb.windowEnergyJ.size(); ++w)
        seq("envelope.windowEnergyJ[" + std::to_string(w) + "]",
            ea.windowEnergyJ[w], eb.windowEnergyJ[w]);
    seq("everActive", a.everActive, b.everActive);
    if (scope == ReportScope::Bounds)
        return os.str();

    num("totalCycles", double(a.totalCycles), double(b.totalCycles));
    num("pathsExplored", a.pathsExplored, b.pathsExplored);
    num("dedupMerges", a.dedupMerges, b.dedupMerges);
    seq("flatTraceW", a.flatTraceW, b.flatTraceW);
    seq("peakActive", a.peakActive, b.peakActive);
    // Snapshot bytes depend on the snapshot form, and on the lanes: a
    // lane fork captures only for the children that leave them.
    if (a.snapshotMode == b.snapshotMode && !a.packedSweeps &&
        !b.packedSweeps) {
        num("snapshotBytesCopied", double(a.snapshotBytesCopied),
            double(b.snapshotBytesCopied));
        num("snapshotBytesFull", double(a.snapshotBytesFull),
            double(b.snapshotBytesFull));
    }
    return os.str();
}

InvarianceDraw
drawInvariance(Rng &rng, unsigned threads)
{
    // The shared context. The reference keeps the Options defaults
    // for the four knobs: 1 thread, EventDriven, Delta, and its
    // frontier is forced scalar when it runs.
    InvarianceDraw d;
    peak::Options &ref = d.reference;
    ref.recordEnvelope = true;
    ref.recordActiveSets = true;
    auto randomKind = [&rng] {
        unsigned kind = rng.below(3);
        return kind == 1   ? randomScenario(rng)
               : kind == 2 ? randomModeScenario(rng)
                           : scenario::Scenario();
    };
    ref.scenario = randomKind();
    ref.staticPrune = rng.chance(25);

    // One of the 16 knob points, one bit per axis; point 0 is the
    // production default (automatic frontier).
    d.variant = ref;
    unsigned point = rng.below(16);
    if (point & 1)
        d.variant.numThreads = threads;
    if (point & 2)
        d.variant.evalMode = EvalMode::FullSweep;
    if (point & 4)
        d.variant.snapshotMode = sym::SnapshotMode::Full;
    if (point & 8)
        d.variant.packedExplore = true;
    if (rng.chance(50)) {
        d.group.resize(2 + rng.below(4));
        d.groupIndex = rng.below(uint32_t(d.group.size()));
        for (size_t k = 0; k < d.group.size(); ++k)
            d.group[k] = k == d.groupIndex ? ref.scenario : randomKind();
    }
    return d;
}

PropertyResult
configInvarianceCheck(msp::System &sys, const isa::Image &image,
                      Rng &rng, unsigned threads)
{
    PropertyResult res;
    InvarianceDraw d = drawInvariance(rng, threads);
    peak::Report ref;
    {
        sym::testing::ScopedFrontier scalar(
            sym::testing::Frontier::Scalar);
        ref = peak::analyze(sys, image, d.reference);
    }
    peak::Report var =
        d.group.empty()
            ? peak::analyze(sys, image, d.variant)
            : std::move(peak::analyzeGroup(sys, image, d.variant,
                                           d.group)[d.groupIndex]);
    std::string diff = reportDiff(ref, var);
    // Lanes before workers: a thief only takes from a deque holding
    // more than one lane batch, which a tree of at most that many
    // paths plus its root never fills.
    if (var.steals && var.pathsExplored <= PackedSimulator::kLanes + 1)
        diff += "steals: " + std::to_string(var.steals) +
                " from a frontier of at most one lane batch (" +
                std::to_string(var.pathsExplored) + " paths)\n";
    if (!diff.empty()) {
        const peak::Options &v = d.variant;
        std::ostringstream os;
        os << "scenario " << v.scenario.summary()
           << (v.staticPrune ? ", staticPrune" : "")
           << "; a = reference, b = " << v.numThreads << " thread(s), "
           << (v.evalMode == EvalMode::FullSweep ? "FullSweep"
                                                 : "EventDriven")
           << ", "
           << (v.snapshotMode == sym::SnapshotMode::Full ? "Full"
                                                         : "Delta")
           << " snapshots, "
           << (v.packedExplore ? "packed" : "automatic")
           << " frontier";
        if (!d.group.empty()) {
            os << ", entry " << d.groupIndex << " of a group of";
            for (const scenario::Scenario &g : d.group)
                os << " [" << g.summary() << "]";
        }
        os << ":\n" << diff;
        res.ok = false;
        res.detail = os.str();
    }
    return res;
}

PropertyResult
envelopeBoundCheck(msp::System &sys, const isa::Image &image,
                   Rng &rng, unsigned concrete_runs)
{
    peak::Options opts;
    opts.recordEnvelope = true;
    peak::Report x = peak::analyze(sys, image, opts);
    if (!x.ok)
        return {}; // rejected programs have nothing to bound
    // A fresh random port word every cycle: each concrete run is one
    // input assignment of the all-X symbolic port. The run has room to
    // *outlive* the envelope rather than stop at exactly its length.
    const std::vector<float> &env = x.envelope.powerW;
    std::string esc =
        concreteEscape(sys, image, rng, {}, opts.freqHz, env,
                       concrete_runs, 64, env.size() + 256, "concrete run");
    return {esc.empty(), esc};
}

PropertyResult
packedKernelEquivalenceCheck(uint64_t seed,
                             const NetlistGenOptions &opts,
                             unsigned cycles)
{
    return laneLockstep(seed, opts, cycles, false);
}

PropertyResult
packedEnvelopeBatchCheck(msp::System &sys, const isa::Image &image,
                         Rng &rng, unsigned verify_lanes)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    peak::Options opts;
    opts.recordEnvelope = true;
    peak::Report x = peak::analyze(sys, image, opts);
    if (!x.ok)
        return {}; // rejected programs have nothing to bound
    const std::vector<float> &env = x.envelope.powerW;

    power::PowerContext ctx(sys.netlist(), opts.freqHz);
    power::PackedRunOptions popts;
    popts.maxCycles = env.size() + 256;
    for (unsigned l = 0; l < kLanes; ++l)
        popts.portSchedules[l] = portWords(rng, 64);
    power::PackedRunResult pr =
        power::runConcretePacked(sys, image, ctx, popts);
    for (unsigned l = 0; l < kLanes; ++l) {
        const power::PackedLaneResult &lane = pr.lanes[l];
        std::string esc =
            envelopeEscape("packed lane " + std::to_string(l), env,
                           lane.halted, lane.traceW, popts.maxCycles);
        if (!esc.empty())
            return {false, esc};
    }

    // Lane-identity spot check: re-run a few lanes on the scalar
    // path; trace floats must match exactly, not approximately.
    for (unsigned i = 0; i < verify_lanes; ++i) {
        unsigned l = (i * kLanes) / (verify_lanes ? verify_lanes : 1);
        power::ConcreteRunOptions copts;
        copts.maxCycles = popts.maxCycles;
        copts.portSchedule = popts.portSchedules[l];
        power::ConcreteRunResult c =
            power::runConcrete(sys, image, ctx, copts);
        const power::PackedLaneResult &lane = pr.lanes[l];
        if (c.halted != lane.halted || c.traceW != lane.traceW ||
            c.totalEnergyJ != lane.totalEnergyJ) {
            std::ostringstream os;
            os << "lane " << l
               << " diverges from its scalar run (halted "
               << lane.halted << " vs " << c.halted << ", "
               << lane.traceW.size() << " vs " << c.traceW.size()
               << " trace cycles)\n";
            return {false, os.str()};
        }
    }
    return {};
}

PropertyResult
faultedPackedEquivalenceCheck(uint64_t seed,
                              const NetlistGenOptions &opts,
                              unsigned cycles)
{
    return laneLockstep(seed, opts, cycles, true);
}

std::string
scalarRowsDiff(const CellLibrary &lib, const isa::Image &image,
               const fault::CampaignOptions &opts,
               std::initializer_list<const fault::CampaignResult *> campaigns)
{
    std::ostringstream os;
    msp::System sys(lib);
    fault::CampaignSetup setup(sys, image, opts);
    std::vector<fault::InjectionResult> ref; // built on first use
    for (const fault::CampaignResult *c : campaigns) {
        if (c->ok != setup.golden.ok) {
            os << "campaign ok=" << c->ok << " (" << c->error
               << "), scalar golden run ok=" << setup.golden.ok << "\n";
            return os.str();
        }
        if (!c->ok)
            continue; // refused, as the golden run says it must be
        if (ref.empty()) {
            setup.analyzeEnvelope();
            std::vector<fault::Site> sites =
                fault::campaignSites(sys.netlist(), sys, opts);
            for (uint32_t s = 0; s < sites.size(); ++s)
                for (uint64_t cycle : fault::siteInjectionCycles(
                         opts.seed, s, opts.cyclesPerSite,
                         setup.golden.gateCycles))
                    ref.push_back({s, cycle, setup.runRow(sites[s], cycle)});
        }
        auto field = [&](const char *name, uint64_t got, uint64_t want) {
            if (got != want)
                os << name << ": campaign " << got << ", scalar " << want
                   << "\n";
        };
        field("golden cycles", c->goldenCycles, setup.golden.gateCycles);
        field("golden instructions", c->goldenInstructions,
              setup.golden.instructionsRetired);
        field("hang cycles", c->hangCycles, setup.hangCycles);
        field("envelope present", c->envelopePresent,
              setup.envelope.present);
        field("rows", c->injections.size(), ref.size());
        if (!os.str().empty())
            return os.str();
        for (size_t i = 0; i < ref.size(); ++i) {
            const fault::InjectionResult &got = c->injections[i];
            const fault::InjectionResult &want = ref[i];
            if (got.siteIndex != want.siteIndex ||
                got.cycle != want.cycle ||
                !got.r.sameClassification(want.r)) {
                os << "row " << i << ": campaign site " << got.siteIndex
                   << "@" << got.cycle << " "
                   << fault::outcomeName(got.r.outcome) << "/"
                   << cosim::divergenceKindName(got.r.kind) << "@"
                   << got.r.divergenceCycle << ", scalar site "
                   << want.siteIndex << "@" << want.cycle << " "
                   << fault::outcomeName(want.r.outcome) << "/"
                   << cosim::divergenceKindName(want.r.kind) << "@"
                   << want.r.divergenceCycle << "\n"
                   << want.r.report;
                return os.str();
            }
        }
    }
    return "";
}

PropertyResult
faultCampaignDeterminismCheck(const isa::Image &image, uint64_t seed,
                              unsigned threads)
{
    PropertyResult res;
    CellLibrary lib = CellLibrary::tsmc65Like();
    fault::CampaignOptions opts;
    opts.seed = seed;
    opts.cyclesPerSite = 1;
    opts.maxFlopSites = 24;
    opts.ramSites = 2;
    opts.goldenMaxCycles = 20000;
    // No cacheDir: the disk cache would trivialize the comparison.

    opts.jobs = 1;
    fault::CampaignResult serial = runCampaign(lib, image, opts);
    opts.jobs = threads;
    fault::CampaignResult parallel = runCampaign(lib, image, opts);
    std::string diff =
        scalarRowsDiff(lib, image, opts, {&serial, &parallel});
    if (!diff.empty()) {
        res.ok = false;
        res.detail = diff;
    }
    return res;
}

scenario::Scenario
randomScenario(Rng &rng)
{
    scenario::Scenario s;
    s.name = "fuzz-scenario";
    auto pattern = [&rng]() {
        scenario::PortPattern p;
        p.pinned = rng.word();
        p.value = uint16_t(rng.word() & p.pinned);
        return p;
    };
    if (rng.chance(40)) {
        // A repeating schedule: exercises the schedule-phase dedup
        // keys (the same simulator state is NOT interchangeable at
        // two different points of the period).
        unsigned period = 2 + rng.below(6);
        for (unsigned i = 0; i < period; ++i)
            s.portSchedule.push_back(pattern());
    } else {
        s.port = pattern();
    }
    return s;
}

PropertyResult
scenarioDominanceCheck(msp::System &sys, const isa::Image &image,
                       Rng &rng, unsigned concrete_runs)
{
    scenario::Scenario scn = randomScenario(rng);
    peak::Options opts;
    opts.recordEnvelope = true;
    std::vector<peak::Report> twins =
        peak::analyzeGroup(sys, image, opts, {scenario::Scenario(), scn});
    const peak::Report &unc = twins[0], &con = twins[1];
    // Rejected programs have nothing to dominate. A scheduled scenario
    // multiplies distinct states (phase joins the dedup key), so its
    // budget exhaustion is a legitimate outcome, not a violation.
    if (!unc.ok || !con.ok)
        return {};

    // Bound dominance. Exact arithmetic guarantees <=; the analyses
    // sum different (nested) active sets in floating point, so allow
    // a relative whisker far below any real violation.
    const double slack = 1.0 + 1e-9;
    std::string diff = dominanceDiff(con, "constrained", unc,
                                     "unconstrained", slack, slack, false);
    // Concrete runs obeying the scenario lie under *its* envelope.
    const std::vector<float> &env = con.envelope.powerW;
    const uint64_t span = env.size() + msp::System::kResetCycles + 256;
    if (diff.empty())
        diff = concreteEscape(sys, image, rng, scn, opts.freqHz, env,
                              concrete_runs, span, span,
                              "scenario-obeying concrete run");
    if (diff.empty())
        return {};
    return {false, "scenario " + scn.summary() + ": " + diff};
}

scenario::Scenario
randomModeScenario(Rng &rng)
{
    scenario::Scenario s;
    if (rng.chance(30))
        // A port constraint rides along so the mixed-radix
        // (portPhase, modePhase) dedup keys get exercised too.
        s = randomScenario(rng);
    s.name = "fuzz-dvfs";
    unsigned n_modes = 2 + rng.below(2);
    for (unsigned m = 0; m < n_modes; ++m) {
        scenario::OperatingMode om;
        om.name = "m" + std::to_string(m);
        om.vdd = 0.5 + 0.1 * double(rng.below(8));    // 0.5..1.2 V
        om.freqHz = 1e6 * double(1 + rng.below(100)); // 1..100 MHz
        s.modes.push_back(om);
    }
    unsigned period = 2 + rng.below(7);
    for (unsigned i = 0; i < period; ++i)
        s.modeSchedule.push_back(rng.below(n_modes));
    return s;
}

PropertyResult
modeDominanceCheck(msp::System &sys, const isa::Image &image,
                   Rng &rng, unsigned concrete_runs)
{
    scenario::Scenario base = randomModeScenario(rng);

    // The lowered twin: every mode's (vdd, freq) scaled by a factor
    // <= 1 -- mode 0 strictly below 1 -- with the schedule (and any
    // port constraint) untouched.
    scenario::Scenario low = base;
    low.name = "fuzz-dvfs-low";
    for (size_t m = 0; m < low.modes.size(); ++m) {
        uint32_t span = m == 0 ? 5 : 6; // 0.5..0.9 vs 0.5..1.0
        low.modes[m].vdd *=
            double(5 + rng.below(span)) / 10.0;
        low.modes[m].freqHz *=
            double(5 + rng.below(span)) / 10.0;
    }

    peak::Options opts;
    opts.recordEnvelope = true;
    std::vector<peak::Report> twins =
        peak::analyzeGroup(sys, image, opts, {base, low});
    const peak::Report &rb = twins[0], &rl = twins[1];
    if (!rb.ok)
        return {}; // rejected / budget-exhausted: vacuous

    // Operating modes only re-price cycles; the explored tree -- and
    // therefore the cycle budget spent -- is identical, so a lowered
    // analysis can never fail where the base succeeded.
    //
    // Scalar dominance. Per-cycle powers are stored as float in the
    // tree nodes, and maxPathEnergy multiplies them back by 1/freq,
    // so the base and lowered path sums carry *independent* ~1e-7
    // relative float-narrowing noise on top of the freq * 1/freq
    // round-trip -- 1e-6 slack sits above that noise while still
    // catching any real mispricing (the smallest mode-factor step is
    // 10%). The per-cycle envelope powers themselves are monotone
    // rounding chains of the same bound, so they must dominate with
    // NO slack and equal length.
    std::string diff =
        !rl.ok ? "lowered-mode analysis failed (" + rl.error +
                     ") though the base mode analysis succeeded\n"
               : dominanceDiff(rl, "lowered", rb, "base", 1.0 + 1e-6, 1.0,
                               true);

    // Mode-obeying concrete runs lie under the mode-priced envelope:
    // the concrete side prices each cycle with the same (energy
    // scale, mode clock) schedule the symbolic side used.
    const std::vector<float> &env = rl.envelope.powerW;
    const uint64_t span = env.size() + msp::System::kResetCycles + 256;
    if (diff.empty())
        diff = concreteEscape(sys, image, rng, low, opts.freqHz, env,
                              concrete_runs, span, span,
                              "mode-obeying concrete run");
    if (diff.empty())
        return {};
    return {false, "scenario " + base.summary() + ", lowered to " +
                       low.summary() + ": " + diff};
}

PropertyResult
staticPruneCheck(msp::System &sys, const isa::Image &image, Rng &rng)
{
    PropertyResult res;
    std::ostringstream os;

    // 1 in 4 unconstrained (the ullint / `ulpeak --static-prune`
    // default, where only reset/irq/Const seeds prune), else a random
    // port scenario so pinned-bit cones join the mask.
    scenario::Scenario scn;
    if (!rng.chance(25))
        scn = randomScenario(rng);

    // --- Static claims validated against a concrete run -----------
    // The real core must be structurally clean: pruning (and the
    // lint CLI's exit status) assume no comb loops, no floating
    // inputs, no overlapping hook drivers.
    const Netlist &nl = sys.netlist();
    lint::StructuralReport sr = lint::structuralLint(nl);
    if (sr.errors() != 0) {
        os << "structural lint found " << sr.errors()
           << " errors on the core netlist";
        for (const lint::Issue &is : sr.issues)
            if (is.severity == lint::Severity::Error)
                os << "\n  " << is.message;
        res.ok = false;
        res.detail = os.str();
        return res;
    }

    // The analysis the engine installs for SymbolicConfig::
    // staticPrune.
    lint::ConstAnalysis ca = lint::analyzeConstants(sys, scn);

    // Drive one concrete scenario-obeying run and check every masked
    // gate holds exactly its proven value from the engage cycle on.
    // cycle_ increments at the end of step(), and the first step the
    // engine would skip runs with cycle_ == engage, so the invariant
    // it relies on is: after every step with sim.cycle() >= engage
    // the masked values equal the proven constants (and from the
    // next step on the gates never even toggle).
    sys.memory().reset();
    sys.loadImage(image);
    for (const auto &[addr, words] : scn.ramInit)
        sys.memory().loadRam(addr, words);
    sys.clearHalted();
    Simulator sim(nl);
    sys.attach(sim);
    sys.reset(sim);
    const uint64_t engage = sim.cycle() + 1 + ca.maxPruneDepth;
    const uint64_t maxCycles = sim.cycle() + 400;
    // Indexed by simulator cycle, as runConcrete indexes its schedule.
    const std::vector<uint16_t> words =
        portWords(rng, size_t(maxCycles), scn);
    while (!sys.halted() && sim.cycle() < maxCycles) {
        const uint16_t w = words[size_t(sim.cycle())];
        sim.step([&](Simulator &s) {
            sys.driveCycle(s, Word16::known(w));
        });
        if (sim.cycle() < engage)
            continue;
        for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
            if (!ca.pruneMask[g])
                continue;
            if (sim.value(g) != ca.value[g]) {
                os << "cycle " << (sim.cycle() - 1) << " gate " << g
                   << " (" << nl.gateName(g) << "): proven "
                   << v4Char(ca.value[g]) << " but concrete run has "
                   << v4Char(sim.value(g)) << " (engage " << engage
                   << ", scenario " << scn.summary() << ")\n";
                res.ok = false;
                res.detail = os.str();
                return res;
            }
            if (sim.cycle() > engage && sim.isActive(g)) {
                os << "cycle " << (sim.cycle() - 1) << " gate " << g
                   << " (" << nl.gateName(g)
                   << "): proven constant but toggled after the "
                      "engage cycle "
                   << engage << " (scenario " << scn.summary()
                   << ")\n";
                res.ok = false;
                res.detail = os.str();
                return res;
            }
        }
    }

    // --- Pruned vs unpruned report identity ------------------------
    peak::Options base;
    base.recordEnvelope = true;
    base.recordActiveSets = true;
    base.scenario = scn;
    peak::Report unp = peak::analyze(sys, image, base);

    peak::Options popts = base;
    popts.staticPrune = true;
    peak::Report pru = peak::analyze(sys, image, popts);

    // Bounds only: see the header for why the tree statistics may
    // legitimately differ across the prune engage cycle.
    std::string diff = reportDiff(unp, pru, ReportScope::Bounds);
    if (!diff.empty()) {
        res.ok = false;
        res.detail = "scenario " + scn.summary() +
                     ": a = unpruned, b = pruned:\n" + diff;
    }
    return res;
}

} // namespace fuzz
} // namespace ulpeak
