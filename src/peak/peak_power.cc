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
    r.snapshotMode = opts.snapshotMode;
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
    r.everActive = std::move(sr.everActive);
    r.peakActive = std::move(sr.peakActive);
    static_cast<sym::AnalysisSummary &>(r) = std::move(sr);
    return r;
}

} // namespace

sym::SymbolicConfig
symConfigFor(const Options &opts)
{
    sym::SymbolicConfig cfg;
    static_cast<sym::AnalysisOptions &>(cfg) = opts;
    return cfg;
}

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
    std::vector<sym::SymbolicResult> sr =
        sym::SymbolicEngine(sys, symConfigFor(opts)).run(image, scenarios);
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
