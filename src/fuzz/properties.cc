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

/** Compare complete simulator state after one lockstep cycle. */
bool
compareCycle(const Netlist &nl, const Simulator &a, const Simulator &b,
             const char *label_b, std::ostringstream &os)
{
    for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
        if (a.value(g) != b.value(g)) {
            os << "cycle " << a.cycle() << " gate " << g
               << ": value FullSweep=" << v4Char(a.value(g)) << " "
               << label_b << "=" << v4Char(b.value(g)) << "\n";
            return false;
        }
        if (a.isActive(g) != b.isActive(g)) {
            os << "cycle " << a.cycle() << " gate " << g
               << ": activity FullSweep=" << a.isActive(g) << " "
               << label_b << "=" << b.isActive(g) << "\n";
            return false;
        }
    }
    if (a.activeBits() != b.activeBits()) {
        os << "cycle " << a.cycle() << ": activity bitsets differ\n";
        return false;
    }
    if (a.actualEnergyJ() != b.actualEnergyJ() ||
        a.boundEnergyJ() != b.boundEnergyJ()) {
        os << "cycle " << a.cycle()
           << ": energy FullSweep=(" << a.actualEnergyJ() << ", "
           << a.boundEnergyJ() << ") " << label_b << "=("
           << b.actualEnergyJ() << ", " << b.boundEnergyJ() << ")\n";
        return false;
    }
    if (a.moduleBoundEnergyJ() != b.moduleBoundEnergyJ()) {
        os << "cycle " << a.cycle()
           << ": per-module energies differ\n";
        return false;
    }
    if (a.hashFullState() != b.hashFullState()) {
        os << "cycle " << a.cycle() << ": full-state hashes differ\n";
        return false;
    }
    return true;
}

} // namespace

PropertyResult
kernelEquivalenceCheck(uint64_t seed, const NetlistGenOptions &opts,
                       unsigned cycles)
{
    PropertyResult res;
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

    std::ostringstream os;
    for (unsigned c = 0; c < cycles; ++c) {
        auto drive = [&](Simulator &s) {
            for (size_t i = 0; i < rn.inputs.size(); ++i)
                s.setInput(rn.inputs[i], sched[c][i]);
        };
        full.step(drive);
        event.step(drive);
        if (!compareCycle(nl, full, event, "EventDriven", os)) {
            res.ok = false;
            res.detail = "seed " + std::to_string(seed) + ": " +
                         os.str();
            return res;
        }
        if (c == forkAt)
            snap = event.snapshot();
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
        forked.hashFullState() != event.hashFullState()) {
        res.ok = false;
        res.detail = "seed " + std::to_string(seed) +
                     ": snapshot/restore replay diverged from the "
                     "straight-line run\n";
    }
    return res;
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
    if (a.snapshotMode == b.snapshotMode) {
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
    PropertyResult res;
    peak::Options opts;
    opts.recordEnvelope = true;
    peak::Report x = peak::analyze(sys, image, opts);
    if (!x.ok)
        return res; // rejected programs have nothing to bound
    const peak::Envelope &env = x.envelope;

    power::PowerContext ctx(sys.netlist(), opts.freqHz);
    for (unsigned run = 0; run < concrete_runs; ++run) {
        power::ConcreteRunOptions copts;
        // Fresh random port word every cycle: each concrete run is
        // one input assignment of the all-X symbolic port.
        copts.portSchedule.resize(64);
        for (uint16_t &w : copts.portSchedule)
            w = rng.word();
        // Enough room to *detect* a run outliving the envelope
        // rather than truncating at exactly its length.
        copts.maxCycles = env.powerW.size() + 256;
        power::ConcreteRunResult c =
            power::runConcrete(sys, image, ctx, copts);

        std::ostringstream os;
        if (!c.halted) {
            os << "concrete run " << run << " still live after "
               << copts.maxCycles << " cycles (envelope covers "
               << env.powerW.size() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(env.powerW, c.traceW);
        if (!v.bounds) {
            os << "concrete run " << run << ": envelope violated at "
               << v.violations << " of " << c.traceW.size()
               << " cycles, first at cycle " << v.firstViolationCycle
               << " (";
            if (v.firstViolationCycle < env.powerW.size())
                os << "env="
                   << env.powerW[size_t(v.firstViolationCycle)]
                   << " W, ";
            else
                os << "beyond the " << env.powerW.size()
                   << "-cycle envelope, ";
            os << "concrete="
               << c.traceW[size_t(v.firstViolationCycle)]
               << " W, max excess " << v.maxViolationW << " W)\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
}

PropertyResult
packedKernelEquivalenceCheck(uint64_t seed,
                             const NetlistGenOptions &opts,
                             unsigned cycles)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    PropertyResult res;
    Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    RandomNetlist rn = buildRandomNetlist(nl, rng, opts);
    unsigned nin = unsigned(rn.inputs.size());

    // One independent input schedule per lane, derived so any single
    // lane reproduces from (seed, lane) alone.
    std::array<std::vector<std::vector<V4>>, kLanes> sched;
    for (unsigned l = 0; l < kLanes; ++l) {
        Rng lrng(Rng::deriveStream(seed, l));
        sched[l] =
            makeInputSchedule(lrng, nin, cycles, opts.inputXPercent);
    }

    PackedSimulator psim(nl);
    std::vector<Simulator> sims;
    sims.reserve(kLanes);
    for (unsigned l = 0; l < kLanes; ++l)
        sims.emplace_back(nl, (l % 2) ? EvalMode::FullSweep
                                      : EvalMode::EventDriven);

    std::ostringstream os;
    auto fail = [&]() {
        res.ok = false;
        res.detail = "seed " + std::to_string(seed) + ": " + os.str();
        return res;
    };

    for (unsigned c = 0; c < cycles; ++c) {
        psim.step([&](PackedSimulator &s) {
            for (unsigned i = 0; i < nin; ++i) {
                V64 v;
                for (unsigned l = 0; l < kLanes; ++l)
                    v.setLane(l, sched[l][c][i]);
                s.setInput(rn.inputs[i], v);
            }
        });
        for (unsigned l = 0; l < kLanes; ++l) {
            Simulator &sim = sims[l];
            sim.step([&](Simulator &s) {
                for (unsigned i = 0; i < nin; ++i)
                    s.setInput(rn.inputs[i], sched[l][c][i]);
            });
            for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
                if (psim.valueLane(g, l) != sim.value(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": value packed="
                       << v4Char(psim.valueLane(g, l)) << " scalar="
                       << v4Char(sim.value(g)) << "\n";
                    return fail();
                }
                bool pact = (psim.activeMask(g) >> l) & 1;
                if (pact != sim.isActive(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": activity packed=" << pact
                       << " scalar=" << sim.isActive(g) << "\n";
                    return fail();
                }
            }
            if (psim.actualEnergyJ(l) != sim.actualEnergyJ() ||
                psim.boundEnergyJ(l) != sim.boundEnergyJ()) {
                os << "cycle " << c << " lane " << l
                   << ": energy packed=(" << psim.actualEnergyJ(l)
                   << ", " << psim.boundEnergyJ(l) << ") scalar=("
                   << sim.actualEnergyJ() << ", "
                   << sim.boundEnergyJ() << ")\n";
                return fail();
            }
            if (psim.moduleBoundEnergyLaneJ(l) !=
                sim.moduleBoundEnergyJ()) {
                os << "cycle " << c << " lane " << l
                   << ": per-module energies differ\n";
                return fail();
            }
            if (sim.hashSnapshotState(psim.extractLaneState(
                    l, sim.cycle())) != sim.hashFullState()) {
                os << "cycle " << c << " lane " << l
                   << ": full-state hashes differ\n";
                return fail();
            }
        }
    }
    return res;
}

PropertyResult
packedEnvelopeBatchCheck(msp::System &sys, const isa::Image &image,
                         Rng &rng, unsigned verify_lanes)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    PropertyResult res;
    peak::Options opts;
    opts.recordEnvelope = true;
    peak::Report x = peak::analyze(sys, image, opts);
    if (!x.ok)
        return res; // rejected programs have nothing to bound
    const peak::Envelope &env = x.envelope;

    power::PowerContext ctx(sys.netlist(), opts.freqHz);
    power::PackedRunOptions popts;
    popts.maxCycles = env.powerW.size() + 256;
    for (unsigned l = 0; l < kLanes; ++l) {
        popts.portSchedules[l].resize(64);
        for (uint16_t &w : popts.portSchedules[l])
            w = rng.word();
    }
    power::PackedRunResult pr =
        power::runConcretePacked(sys, image, ctx, popts);

    std::ostringstream os;
    for (unsigned l = 0; l < kLanes; ++l) {
        const power::PackedLaneResult &lane = pr.lanes[l];
        if (!lane.halted) {
            os << "packed lane " << l << " still live after "
               << popts.maxCycles << " cycles (envelope covers "
               << env.powerW.size() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(env.powerW, lane.traceW);
        if (!v.bounds) {
            os << "packed lane " << l << ": envelope violated at "
               << v.violations << " of " << lane.traceW.size()
               << " cycles, first at cycle " << v.firstViolationCycle
               << " (max excess " << v.maxViolationW << " W)\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
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
            os << "lane " << l
               << " diverges from its scalar run (halted "
               << lane.halted << " vs " << c.halted << ", "
               << lane.traceW.size() << " vs " << c.traceW.size()
               << " trace cycles)\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
}

PropertyResult
faultedPackedEquivalenceCheck(uint64_t seed,
                              const NetlistGenOptions &opts,
                              unsigned cycles)
{
    constexpr unsigned kLanes = PackedSimulator::kLanes;
    PropertyResult res;
    Rng rng(seed);
    CellLibrary lib = CellLibrary::tsmc65Like();
    Netlist nl(lib);
    RandomNetlist rn = buildRandomNetlist(nl, rng, opts);
    unsigned nin = unsigned(rn.inputs.size());
    const std::vector<GateId> &seq = nl.seqGates();

    // Per-lane input schedules and per-lane SEU flips, both derived
    // so any lane reproduces from (seed, lane) alone. Lane 0 stays
    // fault-free as the in-item control.
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
        if (l == 0 || seq.empty())
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

    std::ostringstream os;
    auto fail = [&]() {
        res.ok = false;
        res.detail = "seed " + std::to_string(seed) + ": " + os.str();
        return res;
    };

    for (unsigned c = 0; c < cycles; ++c) {
        // applied decisions (X-bit flips are no-ops) must agree
        // flip-for-flip between the two injection APIs.
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
            if (appP[l] != appS[l]) {
                os << "cycle " << c << " lane " << l
                   << ": applied-flip decisions differ\n";
                return fail();
            }
            for (GateId g = 0; g < GateId(nl.numGates()); ++g) {
                if (psim.valueLane(g, l) != sim.value(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": value packed="
                       << v4Char(psim.valueLane(g, l)) << " scalar="
                       << v4Char(sim.value(g)) << "\n";
                    return fail();
                }
                bool pact = (psim.activeMask(g) >> l) & 1;
                if (pact != sim.isActive(g)) {
                    os << "cycle " << c << " lane " << l << " gate "
                       << g << ": activity packed=" << pact
                       << " scalar=" << sim.isActive(g) << "\n";
                    return fail();
                }
            }
            if (psim.actualEnergyJ(l) != sim.actualEnergyJ() ||
                psim.boundEnergyJ(l) != sim.boundEnergyJ()) {
                os << "cycle " << c << " lane " << l
                   << ": energy packed=(" << psim.actualEnergyJ(l)
                   << ", " << psim.boundEnergyJ(l) << ") scalar=("
                   << sim.actualEnergyJ() << ", "
                   << sim.boundEnergyJ() << ")\n";
                return fail();
            }
            if (sim.hashSnapshotState(psim.extractLaneState(
                    l, sim.cycle())) != sim.hashFullState()) {
                os << "cycle " << c << " lane " << l
                   << ": full-state hashes differ\n";
                return fail();
            }
        }
    }
    return res;
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
    PropertyResult res;
    peak::Options uopts;
    uopts.recordEnvelope = true;
    peak::Report unc = peak::analyze(sys, image, uopts);
    if (!unc.ok)
        return res; // rejected programs have nothing to dominate

    scenario::Scenario scn = randomScenario(rng);
    peak::Options copts = uopts;
    copts.scenario = scn;
    peak::Report con = peak::analyze(sys, image, copts);
    if (!con.ok) {
        // A scheduled scenario multiplies distinct states (phase
        // joins the dedup key), so budget exhaustion is a legitimate
        // outcome, not a dominance violation.
        return res;
    }

    std::ostringstream os;

    // Bound dominance. Exact arithmetic guarantees <=; the analyses
    // sum different (nested) active sets in floating point, so allow
    // a relative whisker far below any real violation.
    const double slack = 1.0 + 1e-9;
    auto dominated = [&](const char *what, double c, double u) {
        if (c <= u * slack)
            return true;
        os << what << ": constrained " << c << " > unconstrained "
           << u << " (scenario " << scn.summary() << ")\n";
        return false;
    };
    if (!dominated("peakPowerW", con.peakPowerW, unc.peakPowerW) ||
        !dominated("peakEnergyJ", con.peakEnergyJ,
                   unc.peakEnergyJ)) {
        res.ok = false;
        res.detail = os.str();
        return res;
    }
    const std::vector<float> &envC = con.envelope.powerW;
    const std::vector<float> &envU = unc.envelope.powerW;
    if (envC.size() > envU.size()) {
        res.ok = false;
        res.detail = "constrained envelope outlives the "
                     "unconstrained one (" +
                     std::to_string(envC.size()) + " vs " +
                     std::to_string(envU.size()) + " cycles)\n";
        return res;
    }
    for (size_t c = 0; c < envC.size(); ++c) {
        if (double(envC[c]) > double(envU[c]) * slack) {
            os << "envelope cycle " << c << ": constrained "
               << envC[c] << " > unconstrained " << envU[c]
               << " (scenario " << scn.summary() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }

    // Concrete runs obeying the scenario lie under *its* envelope.
    // runConcrete indexes its schedule by absolute simulator cycle,
    // so the first kResetCycles entries cover reset (values free:
    // the engine drives reset cycles itself) and entry
    // kResetCycles + c realizes the scenario pattern of cycle c.
    power::PowerContext ctx(sys.netlist(), copts.freqHz);
    for (unsigned run = 0; run < concrete_runs; ++run) {
        power::ConcreteRunOptions ropts;
        ropts.maxCycles =
            envC.size() + msp::System::kResetCycles + 256;
        ropts.portSchedule.resize(size_t(ropts.maxCycles));
        for (size_t a = 0; a < ropts.portSchedule.size(); ++a) {
            uint16_t w = rng.word();
            if (a >= msp::System::kResetCycles) {
                const scenario::PortPattern &p = scn.patternAt(
                    uint64_t(a) - msp::System::kResetCycles);
                w = uint16_t((w & ~p.pinned) | p.value);
            }
            ropts.portSchedule[a] = w;
        }
        power::ConcreteRunResult c = power::runConcrete(
            sys, image, ctx, ropts, scn.ramInit);
        if (!c.halted) {
            os << "scenario-obeying concrete run " << run
               << " still live after " << ropts.maxCycles
               << " cycles (envelope covers " << envC.size()
               << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(envC, c.traceW);
        if (!v.bounds) {
            os << "scenario-obeying concrete run " << run
               << ": envelope violated at " << v.violations << " of "
               << c.traceW.size() << " cycles, first at cycle "
               << v.firstViolationCycle << " (max excess "
               << v.maxViolationW << " W, scenario " << scn.summary()
               << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
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
    PropertyResult res;
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

    peak::Options bopts;
    bopts.recordEnvelope = true;
    bopts.scenario = base;
    peak::Report rb = peak::analyze(sys, image, bopts);
    if (!rb.ok)
        return res; // rejected / budget-exhausted: vacuous

    peak::Options lopts = bopts;
    lopts.scenario = low;
    peak::Report rl = peak::analyze(sys, image, lopts);
    std::ostringstream os;
    if (!rl.ok) {
        // Operating modes only re-price cycles; the explored tree --
        // and therefore the cycle budget spent -- is identical, so a
        // lowered analysis can never fail where the base succeeded.
        res.ok = false;
        res.detail = "lowered-mode analysis failed (" + rl.error +
                     ") though the base mode analysis succeeded "
                     "(scenario " + base.summary() + ")";
        return res;
    }

    // Scalar dominance. Per-cycle powers are stored as float in the
    // tree nodes, and maxPathEnergy multiplies them back by 1/freq,
    // so the base and lowered path sums carry *independent* ~1e-7
    // relative float-narrowing noise on top of the freq * 1/freq
    // round-trip -- 1e-6 slack sits above that noise while still
    // catching any real mispricing (the smallest mode-factor step is
    // 10%). The per-cycle envelope powers themselves are monotone
    // rounding chains of the same bound, so they must dominate with
    // NO slack and equal length.
    const double slack = 1.0 + 1e-6;
    auto dominated = [&](const char *what, double l, double b) {
        if (l <= b * slack)
            return true;
        os << what << ": lowered " << l << " > base " << b
           << " (scenario " << base.summary() << ")\n";
        return false;
    };
    if (!dominated("peakPowerW", rl.peakPowerW, rb.peakPowerW) ||
        !dominated("peakEnergyJ", rl.peakEnergyJ, rb.peakEnergyJ)) {
        res.ok = false;
        res.detail = os.str();
        return res;
    }
    const std::vector<float> &envL = rl.envelope.powerW;
    const std::vector<float> &envB = rb.envelope.powerW;
    if (envL.size() != envB.size()) {
        res.ok = false;
        res.detail = "lowered envelope length " +
                     std::to_string(envL.size()) +
                     " != base length " + std::to_string(envB.size()) +
                     " (identical trees expected)\n";
        return res;
    }
    for (size_t c = 0; c < envL.size(); ++c) {
        if (envL[c] > envB[c]) {
            os << "envelope cycle " << c << ": lowered " << envL[c]
               << " > base " << envB[c] << " (scenario "
               << base.summary() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }

    // Mode-obeying concrete runs lie under the mode-priced envelope:
    // the concrete side prices each cycle with the same (energy
    // scale, mode clock) schedule the symbolic side used.
    const CellLibrary &lib = sys.lib();
    std::vector<std::pair<double, double>> mf;
    for (uint64_t ph = 0; ph < low.modePeriod(); ++ph) {
        const scenario::OperatingMode &m = low.modeAt(ph);
        mf.emplace_back(lib.energyScale(m.vdd), m.freqHz);
    }
    power::PowerContext ctx(sys.netlist(), lopts.freqHz);
    for (unsigned run = 0; run < concrete_runs; ++run) {
        power::ConcreteRunOptions ropts;
        ropts.maxCycles =
            envL.size() + msp::System::kResetCycles + 256;
        ropts.modeSchedule = mf;
        ropts.portSchedule.resize(size_t(ropts.maxCycles));
        for (size_t a = 0; a < ropts.portSchedule.size(); ++a) {
            uint16_t w = rng.word();
            if (a >= msp::System::kResetCycles) {
                const scenario::PortPattern &p = low.patternAt(
                    uint64_t(a) - msp::System::kResetCycles);
                w = uint16_t((w & ~p.pinned) | p.value);
            }
            ropts.portSchedule[a] = w;
        }
        power::ConcreteRunResult c = power::runConcrete(
            sys, image, ctx, ropts, low.ramInit);
        if (!c.halted) {
            os << "mode-obeying concrete run " << run
               << " still live after " << ropts.maxCycles
               << " cycles (envelope covers " << envL.size()
               << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
        peak::TraceValidation v =
            peak::validateTraceBound(envL, c.traceW);
        if (!v.bounds) {
            os << "mode-obeying concrete run " << run
               << ": mode envelope violated at " << v.violations
               << " of " << c.traceW.size()
               << " cycles, first at cycle " << v.firstViolationCycle
               << " (max excess " << v.maxViolationW
               << " W, scenario " << low.summary() << ")\n";
            res.ok = false;
            res.detail = os.str();
            return res;
        }
    }
    return res;
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

    // The same analysis the engine runs for SymbolicConfig::
    // staticPrune (see SymbolicEngine::run).
    lint::ConstAnalysisOptions lo;
    lo.scenario = scn;
    const msp::CpuHandles &h = sys.handles();
    lo.portBits.assign(h.portIn.begin(), h.portIn.end());
    lo.drivenConstants = sys.runPins();
    lint::ConstAnalysis ca = lint::analyzeConstants(nl, lo);

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
    while (!sys.halted() && sim.cycle() < maxCycles) {
        const scenario::PortPattern &p =
            scn.patternAt(sim.cycle() - msp::System::kResetCycles);
        uint16_t w = uint16_t((rng.word() & ~p.pinned) | p.value);
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
