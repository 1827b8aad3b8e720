/**
 * @file
 * Scalar fault runner and the classification helpers shared with the
 * packed runner. The scalar path is a thin wrapper over cosim::run:
 * the injections ride in through Options::preCycle, so the checking
 * loop, divergence anatomy and power recording are the *same code*
 * the bedrock tests already pin down. Both runners end a run in
 * toFaultResult, over fault::classify.
 */

#include "fault/fault.hh"

#include <cstdio>

#include "peak/validation.hh"

namespace ulpeak {
namespace fault {

const char *
outcomeName(Outcome o)
{
    switch (o) {
      case Outcome::Masked: return "masked";
      case Outcome::Sdc: return "sdc";
      case Outcome::Crash: return "crash";
      case Outcome::Hang: return "hang";
    }
    return "?";
}

Outcome
classify(const cosim::Result &r)
{
    if (r.ok)
        return Outcome::Masked;
    switch (r.divergence.kind) {
      case cosim::Divergence::Kind::GateTimeout:
        return Outcome::Hang;
      case cosim::Divergence::Kind::GateX:
        return Outcome::Crash;
      default:
        return Outcome::Sdc;
    }
}

FaultResult
toFaultResult(const cosim::Result &cr, bool applied)
{
    // A run that passed carries the zero Divergence.
    FaultResult r;
    r.outcome = classify(cr);
    r.applied = applied;
    r.kind = cr.divergence.kind;
    r.divergenceCycle = cr.divergence.cycle;
    r.instrIndex = cr.divergence.instrIndex;
    r.pc = cr.divergence.pc;
    r.gateCycles = cr.gateCycles;
    r.instructionsRetired = cr.instructionsRetired;
    return r;
}

bool
FaultResult::sameClassification(const FaultResult &o) const
{
    return outcome == o.outcome && applied == o.applied &&
           kind == o.kind && divergenceCycle == o.divergenceCycle &&
           instrIndex == o.instrIndex && pc == o.pc &&
           gateCycles == o.gateCycles &&
           instructionsRetired == o.instructionsRetired &&
           peakPowerW == o.peakPowerW && peakCycle == o.peakCycle &&
           traceCycles == o.traceCycles &&
           envelopeEscape == o.envelopeEscape &&
           escapeCycle == o.escapeCycle;
}

void
applyPowerTrace(FaultResult &r, const std::vector<float> &trace_w,
                const peak::Envelope *envelope)
{
    r.traceCycles = trace_w.size();
    r.peakPowerW = 0.0f;
    r.peakCycle = 0;
    for (size_t c = 0; c < trace_w.size(); ++c) {
        if (trace_w[c] > r.peakPowerW) { // first argmax wins
            r.peakPowerW = trace_w[c];
            r.peakCycle = c;
        }
    }
    r.envelopeEscape = false;
    r.escapeCycle = 0;
    if (envelope && envelope->present && !trace_w.empty()) {
        peak::TraceValidation v =
            peak::validateTraceBound(envelope->powerW, trace_w);
        if (!v.bounds) {
            r.envelopeEscape = true;
            r.escapeCycle = v.firstViolationCycle;
        }
    }
}

std::vector<Site>
flopSites(const Netlist &nl)
{
    std::vector<Site> sites;
    sites.reserve(nl.seqGates().size());
    for (GateId g : nl.seqGates()) {
        Site s;
        s.kind = SiteKind::Flop;
        s.gate = g;
        sites.push_back(s);
    }
    return sites;
}

std::string
siteName(const Netlist &nl, const Site &s)
{
    char buf[48];
    if (s.kind == SiteKind::Ram) {
        std::snprintf(buf, sizeof buf, "ram[0x%04x].%u", s.addr,
                      unsigned(s.bit));
        return buf;
    }
    std::string n = nl.gateName(s.gate);
    if (!n.empty())
        return n;
    std::snprintf(buf, sizeof buf, "g%u", unsigned(s.gate));
    return buf;
}

FaultResult
runFaulted(msp::System &sys, const isa::Image &image,
           const std::vector<Injection> &faults, const RunOptions &opts)
{
    bool applied = false;
    cosim::Options co;
    co.maxCycles = opts.maxCycles;
    co.portIn = opts.portIn;
    co.evalMode = opts.evalMode;
    co.powerCtx = opts.powerCtx;
    co.preCycle = [&](Simulator &s) {
        for (const Injection &inj : faults) {
            if (inj.cycle != s.cycle())
                continue;
            if (inj.site.kind == SiteKind::Flop)
                applied |= s.injectSeuFlip(inj.site.gate);
            else
                applied |= sys.memory().flipBit(inj.site.addr,
                                                inj.site.bit);
        }
    };

    cosim::Result cr = cosim::run(sys, image, co);
    FaultResult r = toFaultResult(cr, applied);
    r.report = cr.report();
    if (opts.powerCtx)
        applyPowerTrace(r, cr.powerTraceW, opts.envelope);
    return r;
}

} // namespace fault
} // namespace ulpeak
