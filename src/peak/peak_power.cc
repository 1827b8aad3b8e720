#include "peak/peak_analysis.hh"

#include <map>

namespace ulpeak {
namespace peak {

namespace {

/** The report of one analysis: @p sr under @p opts and @p scen. */
Report
makeReport(sym::SymbolicResult &&sr, const Options &opts,
           const scenario::Scenario &scen)
{
    Report r;
    r.ok = sr.ok;
    r.error = sr.error;
    r.peakPowerW = sr.peakPowerW;
    r.peakEnergyJ = sr.peakEnergyJ;
    r.npeJPerCycle = sr.npeJPerCycle;
    r.maxPathCycles = sr.maxPathCycles;
    r.totalCycles = sr.totalCycles;
    r.pathsExplored = sr.pathsExplored;
    r.dedupMerges = sr.dedupMerges;
    r.steals = sr.steals;
    r.snapshotBytesCopied = sr.snapshotBytesCopied;
    r.snapshotBytesFull = sr.snapshotBytesFull;
    r.snapshotMode = opts.snapshotMode;
    r.perWorkerCycles = sr.perWorkerCycles;
    r.packedBatches = sr.packedBatches;
    r.packedSweeps = sr.packedSweeps;
    r.packedLaneCycles = sr.packedLaneCycles;
    if (sr.ok)
        r.flatTraceW = sr.tree.flatten();
    if (sr.ok && opts.recordEnvelope) {
        r.envelope.present = true;
        r.envelope.powerW = std::move(sr.envelopeW);
        r.envelope.windows = opts.envelopeWindows;
        if (scen.hasModes())
            buildWindowCurves(r.envelope, scen.phaseTclkS());
        else
            buildWindowCurves(r.envelope, 1.0 / opts.freqHz);
    }
    r.everActive = sr.everActive;
    r.peakActive = sr.peakActive;
    r.sym = std::move(sr);
    return r;
}

} // namespace

Report
analyze(msp::System &sys, const isa::Image &image, const Options &opts)
{
    return std::move(
        analyzeGroup(sys, image, opts, {opts.scenario}).front());
}

std::vector<Report>
analyzeGroup(msp::System &sys, const isa::Image &image,
             const Options &opts,
             const std::vector<scenario::Scenario> &scenarios)
{
    sym::SymbolicConfig cfg;
    cfg.freqHz = opts.freqHz;
    cfg.recordActiveSets = opts.recordActiveSets;
    cfg.recordModuleTrace = opts.recordModuleTrace;
    cfg.inputDependentLoopBound = opts.inputDependentLoopBound;
    cfg.maxTotalCycles = opts.maxTotalCycles;
    cfg.evalMode = opts.evalMode;
    cfg.numThreads = opts.numThreads;
    cfg.recordEnvelope = opts.recordEnvelope;
    cfg.snapshotMode = opts.snapshotMode;
    cfg.staticPrune = opts.staticPrune;
    cfg.packedExplore = opts.packedExplore;

    std::vector<sym::SymbolicResult> sr =
        sym::SymbolicEngine(sys, cfg).run(image, scenarios);
    std::vector<Report> reports;
    reports.reserve(sr.size());
    for (size_t k = 0; k < sr.size(); ++k)
        reports.push_back(makeReport(std::move(sr[k]), opts, scenarios[k]));
    return reports;
}

std::vector<std::pair<std::string, size_t>>
activeGatesPerModule(const Netlist &nl,
                     const std::vector<uint32_t> &gates)
{
    std::map<std::string, size_t> counts;
    for (uint32_t g : gates) {
        ModuleId top = nl.topLevelModuleOf(nl.gate(g).module);
        ++counts[nl.moduleName(top)];
    }
    return {counts.begin(), counts.end()};
}

} // namespace peak
} // namespace ulpeak
