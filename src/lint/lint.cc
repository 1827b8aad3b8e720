#include "lint/lint.hh"

#include <algorithm>
#include <cassert>
#include <map>
#include <sstream>

#include "cell/cell_library.hh"
#include "msp/cpu.hh"

namespace ulpeak {
namespace lint {

namespace {

/** Fanin/consumer CSR adjacency built from the construction-phase
 *  gate records, so the passes run on netlists that cannot finalize
 *  (a combinational loop is fatal to finalize(), and finding it is
 *  the point). On a finalized netlist this is exactly the adjacency
 *  flat() carries, with sequential consumers folded back in. */
struct Adjacency {
    uint32_t n = 0;
    std::vector<uint32_t> consumerOffset; ///< [n + 1]
    std::vector<GateId> consumer;         ///< gates reading each net

    explicit Adjacency(const Netlist &nl)
        : n(uint32_t(nl.numGates())), consumerOffset(n + 1, 0)
    {
        for (uint32_t g = 0; g < n; ++g) {
            const Gate &gt = nl.gate(g);
            for (unsigned i = 0; i < gt.nin; ++i)
                if (gt.in[i] < n)
                    ++consumerOffset[gt.in[i] + 1];
        }
        for (uint32_t g = 0; g < n; ++g)
            consumerOffset[g + 1] += consumerOffset[g];
        consumer.resize(consumerOffset[n]);
        std::vector<uint32_t> fill(consumerOffset.begin(),
                                   consumerOffset.end() - 1);
        for (uint32_t g = 0; g < n; ++g) {
            const Gate &gt = nl.gate(g);
            for (unsigned i = 0; i < gt.nin; ++i)
                if (gt.in[i] < n)
                    consumer[fill[gt.in[i]]++] = g;
        }
    }
};

std::string
describeGate(const Netlist &nl, GateId g)
{
    std::ostringstream os;
    os << "g" << g << " (" << cellName(nl.gate(g).kind);
    std::string name = nl.gateName(g);
    if (!name.empty())
        os << " '" << name << "'";
    os << ")";
    return os.str();
}

/** Iterative Tarjan SCC restricted to combinational gates; every
 *  component of size > 1 (or with a self-edge) is a latch-free
 *  cycle. Sequential gates break paths by construction. */
void
findCombLoops(const Netlist &nl, std::vector<Issue> &issues)
{
    const uint32_t n = uint32_t(nl.numGates());
    constexpr uint32_t kUnvisited = 0;
    std::vector<uint32_t> index(n, kUnvisited), lowlink(n, 0);
    std::vector<uint8_t> onStack(n, 0);
    std::vector<GateId> stack;
    uint32_t next = 1;

    auto isComb = [&](GateId g) {
        return g < n && !isSequential(nl.gate(g).kind);
    };

    struct Frame {
        GateId g;
        unsigned pin;
    };
    std::vector<Frame> dfs;

    for (uint32_t root = 0; root < n; ++root) {
        if (index[root] != kUnvisited || !isComb(root))
            continue;
        dfs.push_back({root, 0});
        index[root] = lowlink[root] = next++;
        stack.push_back(root);
        onStack[root] = 1;
        while (!dfs.empty()) {
            Frame &f = dfs.back();
            const Gate &gt = nl.gate(f.g);
            if (f.pin < gt.nin) {
                GateId s = gt.in[f.pin++];
                if (!isComb(s))
                    continue;
                if (index[s] == kUnvisited) {
                    index[s] = lowlink[s] = next++;
                    stack.push_back(s);
                    onStack[s] = 1;
                    dfs.push_back({s, 0});
                } else if (onStack[s]) {
                    lowlink[f.g] = std::min(lowlink[f.g], index[s]);
                }
                continue;
            }
            GateId g = f.g;
            dfs.pop_back();
            if (!dfs.empty())
                lowlink[dfs.back().g] =
                    std::min(lowlink[dfs.back().g], lowlink[g]);
            if (lowlink[g] != index[g])
                continue;
            std::vector<GateId> scc;
            for (;;) {
                GateId m = stack.back();
                stack.pop_back();
                onStack[m] = 0;
                scc.push_back(m);
                if (m == g)
                    break;
            }
            bool selfLoop = false;
            if (scc.size() == 1) {
                const Gate &sg = nl.gate(scc[0]);
                for (unsigned i = 0; i < sg.nin; ++i)
                    selfLoop |= sg.in[i] == scc[0];
            }
            if (scc.size() > 1 || selfLoop) {
                std::sort(scc.begin(), scc.end());
                Issue is;
                is.kind = IssueKind::CombLoop;
                is.severity = Severity::Error;
                is.gates = scc;
                std::ostringstream os;
                os << "combinational loop of " << scc.size()
                   << " gate(s) through " << describeGate(nl, scc[0]);
                is.message = os.str();
                issues.push_back(std::move(is));
            }
        }
    }
}

void
findFloatingInputs(const Netlist &nl, std::vector<Issue> &issues)
{
    const uint32_t n = uint32_t(nl.numGates());
    for (uint32_t g = 0; g < n; ++g) {
        const Gate &gt = nl.gate(g);
        for (unsigned i = 0; i < gt.nin; ++i) {
            if (gt.in[i] < n)
                continue;
            Issue is;
            is.kind = IssueKind::FloatingInput;
            is.severity = Severity::Error;
            is.gates.push_back(g);
            std::ostringstream os;
            os << describeGate(nl, g) << ": fanin pin " << i
               << " is unconnected";
            is.message = os.str();
            issues.push_back(std::move(is));
            break; // one issue per gate
        }
    }
}

void
findMultiDrivers(const Netlist &nl, std::vector<Issue> &issues)
{
    const uint32_t n = uint32_t(nl.numGates());
    // Gate id == net id, so a net has exactly one structural driver;
    // the only way to double-drive is through behavioral hooks: two
    // hooks claiming the same output, or a hook claiming a net whose
    // gate already computes a value (anything but a fanin-less
    // Input).
    std::vector<uint32_t> hookDrivers(n, 0);
    for (const BehavioralHook &h : nl.hooks())
        for (GateId g : h.outputs)
            if (g < n)
                ++hookDrivers[g];
    for (uint32_t g = 0; g < n; ++g) {
        uint32_t drivers = hookDrivers[g];
        if (drivers == 0)
            continue;
        bool selfDriven = nl.gate(g).kind != CellKind::Input;
        if (drivers + (selfDriven ? 1 : 0) < 2)
            continue;
        Issue is;
        is.kind = IssueKind::MultiDriver;
        is.severity = Severity::Error;
        is.gates.push_back(g);
        std::ostringstream os;
        os << describeGate(nl, g) << ": driven by " << drivers
           << " hook(s)"
           << (selfDriven ? " and its own cell evaluation" : "");
        is.message = os.str();
        issues.push_back(std::move(is));
    }
}

size_t
findDeadGates(const Netlist &nl, const StructuralOptions &opts,
              std::vector<Issue> &issues)
{
    const uint32_t n = uint32_t(nl.numGates());
    // Observation points: named gates (the CPU's architectural
    // state and interface nets) and every gate a behavioral hook
    // reads. Anything that cannot reach one through the fanin
    // closure can never influence an observable value.
    std::vector<uint8_t> alive(n, 0);
    std::vector<GateId> work;
    auto mark = [&](GateId g) {
        if (g < n && !alive[g]) {
            alive[g] = 1;
            work.push_back(g);
        }
    };
    for (const auto &kv : nl.namedGates())
        mark(kv.second);
    for (const BehavioralHook &h : nl.hooks())
        for (GateId g : h.depends)
            mark(g);
    while (!work.empty()) {
        GateId g = work.back();
        work.pop_back();
        const Gate &gt = nl.gate(g);
        for (unsigned i = 0; i < gt.nin; ++i)
            mark(gt.in[i]);
    }
    std::vector<GateId> dead;
    for (uint32_t g = 0; g < n; ++g)
        if (!alive[g])
            dead.push_back(g);
    if (dead.empty())
        return 0;
    Issue is;
    is.kind = IssueKind::DeadGate;
    is.severity = Severity::Warning;
    size_t listed =
        std::min<size_t>(dead.size(), opts.maxListedDeadGates);
    is.gates.assign(dead.begin(), dead.begin() + listed);
    std::ostringstream os;
    os << dead.size() << " gate(s) reach no observation point, first "
       << describeGate(nl, dead[0]);
    is.message = os.str();
    issues.push_back(std::move(is));
    return dead.size();
}

uint32_t
findFanoutHotspots(const Netlist &nl, const Adjacency &adj,
                   const StructuralOptions &opts,
                   std::vector<Issue> &issues)
{
    const uint32_t n = adj.n;
    uint32_t threshold = opts.fanoutHotspotThreshold;
    if (threshold == 0)
        threshold = std::max<uint32_t>(64, n / 16);
    std::vector<std::pair<uint32_t, GateId>> hot; // (count, gate)
    for (uint32_t g = 0; g < n; ++g) {
        uint32_t c = adj.consumerOffset[g + 1] - adj.consumerOffset[g];
        if (c >= threshold)
            hot.push_back({c, g});
    }
    std::sort(hot.begin(), hot.end(), [](const auto &a, const auto &b) {
        return a.first != b.first ? a.first > b.first
                                  : a.second < b.second;
    });
    if (hot.size() > opts.maxHotspots)
        hot.resize(opts.maxHotspots);
    for (const auto &hc : hot) {
        Issue is;
        is.kind = IssueKind::FanoutHotspot;
        is.severity = Severity::Info;
        is.gates.push_back(hc.second);
        std::ostringstream os;
        os << describeGate(nl, hc.second) << ": fanout " << hc.first
           << " (threshold " << threshold << ")";
        is.message = os.str();
        issues.push_back(std::move(is));
    }
    return threshold;
}

} // namespace

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Error:
        return "error";
      case Severity::Warning:
        return "warning";
      case Severity::Info:
        return "info";
    }
    return "?";
}

const char *
issueKindName(IssueKind k)
{
    switch (k) {
      case IssueKind::CombLoop:
        return "comb-loop";
      case IssueKind::FloatingInput:
        return "floating-input";
      case IssueKind::MultiDriver:
        return "multi-driver";
      case IssueKind::DeadGate:
        return "dead-gate";
      case IssueKind::FanoutHotspot:
        return "fanout-hotspot";
    }
    return "?";
}

size_t
StructuralReport::count(IssueKind k) const
{
    size_t c = 0;
    for (const Issue &is : issues)
        c += is.kind == k;
    return c;
}

size_t
StructuralReport::errors() const
{
    size_t c = 0;
    for (const Issue &is : issues)
        c += is.severity == Severity::Error;
    return c;
}

StructuralReport
structuralLint(const Netlist &nl, const StructuralOptions &opts)
{
    StructuralReport rep;
    Adjacency adj(nl);
    findCombLoops(nl, rep.issues);
    findFloatingInputs(nl, rep.issues);
    findMultiDrivers(nl, rep.issues);
    rep.deadGates = findDeadGates(nl, opts, rep.issues);
    rep.fanoutHotspotThreshold =
        findFanoutHotspots(nl, adj, opts, rep.issues);
    std::stable_sort(rep.issues.begin(), rep.issues.end(),
                     [](const Issue &a, const Issue &b) {
                         if (a.kind != b.kind)
                             return a.kind < b.kind;
                         GateId ga = a.gates.empty() ? 0 : a.gates[0];
                         GateId gb = b.gates.empty() ? 0 : b.gates[0];
                         return ga < gb;
                     });
    return rep;
}

namespace {

constexpr uint32_t kDepthInf = std::numeric_limits<uint32_t>::max();

/** The settle-depth of @p g given its proven value: the smallest k
 *  such that the depth-sorted prefix of its settled known fanins
 *  already forces the value with every other fanin X. Monotonicity
 *  of the cell functions makes the optimal sufficient set a prefix.
 *  Returns kDepthInf while some needed fanin has no settle bound
 *  yet. */
uint32_t
settleCandidate(const Netlist &nl, GateId g,
                const std::vector<V4> &value,
                const std::vector<uint32_t> &depth)
{
    const Gate &gt = nl.gate(g);
    bool seq = isSequential(gt.kind);
    struct Fin {
        uint32_t depth;
        unsigned pin;
    };
    std::vector<Fin> known;
    for (unsigned i = 0; i < gt.nin; ++i) {
        GateId f = gt.in[i];
        if (f < nl.numGates() && value[f] != V4::X &&
            depth[f] != kDepthInf)
            known.push_back({depth[f], i});
    }
    std::sort(known.begin(), known.end(),
              [](const Fin &a, const Fin &b) {
                  return a.depth != b.depth ? a.depth < b.depth
                                            : a.pin < b.pin;
              });
    V4 ins[4] = {V4::X, V4::X, V4::X, V4::X};
    for (size_t k = 0; k <= known.size(); ++k) {
        V4 out;
        if (seq) {
            // q = X: the proof must be independent of the flop's own
            // previous state, exactly like the value fixpoint's first
            // assignment (which runs with q still at X).
            bool held = false;
            out = evalSeqCell(gt.kind, V4::X, ins, held);
        } else {
            out = evalCell(gt.kind, ins);
        }
        if (out == value[g])
            return (seq ? 1 : 0) + (k ? known[k - 1].depth : 0);
        if (k == known.size())
            break;
        ins[known[k].pin] = value[gt.in[known[k].pin]];
    }
    return kDepthInf;
}

} // namespace

ConstAnalysis
analyzeConstants(const Netlist &nl, const ConstAnalysisOptions &opts)
{
    const uint32_t n = uint32_t(nl.numGates());
    Adjacency adj(nl);

    std::vector<uint8_t> hookDriven(n, 0);
    for (const BehavioralHook &h : nl.hooks())
        for (GateId g : h.outputs)
            if (g < n)
                hookDriven[g] = 1;

    ConstAnalysis a;
    a.value.assign(n, V4::X);
    a.settleDepth.assign(n, kDepthInf);
    a.pruneMask.assign(n, 0);

    // --- Seeds -------------------------------------------------------
    std::vector<uint8_t> seed(n, 0);
    auto addSeed = [&](GateId g, V4 v) {
        if (g >= n || v == V4::X || hookDriven[g])
            return;
        a.value[g] = v;
        seed[g] = 1;
    };
    for (uint32_t g = 0; g < n; ++g) {
        CellKind k = nl.gate(g).kind;
        if (k == CellKind::Const0)
            addSeed(g, V4::Zero);
        else if (k == CellKind::Const1)
            addSeed(g, V4::One);
    }
    // Port bits pinned to one value in *every* phase of the schedule
    // are constants of every scenario-obeying execution.
    const scenario::Scenario &scn = opts.scenario;
    size_t phases =
        scn.portSchedule.empty() ? 1 : scn.portSchedule.size();
    for (size_t bit = 0; bit < opts.portBits.size() && bit < 16;
         ++bit) {
        GateId g = opts.portBits[bit];
        if (g == kNoGate)
            continue;
        V4 v = scn.patternAt(0).word().bit(unsigned(bit));
        for (size_t p = 1; p < phases && v != V4::X; ++p)
            if (scn.patternAt(p).word().bit(unsigned(bit)) != v)
                v = V4::X;
        addSeed(g, v);
    }
    for (const auto &dc : opts.drivenConstants)
        addSeed(dc.first, dc.second);

    // --- Value fixpoint ----------------------------------------------
    // Monotone worklist over {X} < {0,1}: recompute a gate from its
    // fanins with the simulator's own cell semantics; a gate that
    // gains a proven value wakes its consumers. Seeds never
    // recompute (inputs have no fanins; Consts are already exact).
    std::vector<uint8_t> queued(n, 0);
    std::vector<GateId> work;
    auto wake = [&](GateId g) {
        const Gate &gt = nl.gate(g);
        if (seed[g] || gt.kind == CellKind::Input || !gt.nin)
            return;
        if (!queued[g]) {
            queued[g] = 1;
            work.push_back(g);
        }
    };
    for (uint32_t g = 0; g < n; ++g)
        if (a.value[g] != V4::X)
            for (uint32_t c = adj.consumerOffset[g];
                 c < adj.consumerOffset[g + 1]; ++c)
                wake(adj.consumer[c]);
    // Also visit every fanin-complete gate once: cells with constant
    // output under all-X inputs (none today, but the lattice does
    // not assume it) and unfinalized test netlists stay covered.
    for (uint32_t g = 0; g < n; ++g)
        wake(g);
    while (!work.empty()) {
        GateId g = work.back();
        work.pop_back();
        queued[g] = 0;
        if (a.value[g] != V4::X)
            continue; // already proven; monotone, nothing to gain
        const Gate &gt = nl.gate(g);
        V4 ins[4] = {V4::X, V4::X, V4::X, V4::X};
        bool wired = true;
        for (unsigned i = 0; i < gt.nin; ++i) {
            GateId f = gt.in[i];
            if (f >= n) {
                wired = false;
                break;
            }
            ins[i] = a.value[f];
        }
        if (!wired)
            continue;
        V4 out;
        if (isSequential(gt.kind)) {
            bool held = false;
            out = evalSeqCell(gt.kind, a.value[g], ins, held);
        } else {
            out = evalCell(gt.kind, ins);
        }
        if (out == V4::X || out == a.value[g])
            continue;
        a.value[g] = out;
        for (uint32_t c = adj.consumerOffset[g];
             c < adj.consumerOffset[g + 1]; ++c)
            wake(adj.consumer[c]);
    }

    // --- Settle depths -----------------------------------------------
    // depth[g] bounds the clock edges after the first post-reset
    // cycle before g provably holds its constant: 0 for cones the
    // first combinational sweep settles, +1 per sequential stage.
    // Depths only decrease, so the worklist terminates.
    for (uint32_t g = 0; g < n; ++g)
        if (seed[g])
            a.settleDepth[g] = 0;
    for (uint32_t g = 0; g < n; ++g)
        if (a.value[g] != V4::X && !seed[g]) {
            queued[g] = 1;
            work.push_back(g);
        }
    while (!work.empty()) {
        GateId g = work.back();
        work.pop_back();
        queued[g] = 0;
        if (seed[g])
            continue;
        uint32_t cand = settleCandidate(nl, g, a.value, a.settleDepth);
        if (cand >= a.settleDepth[g])
            continue;
        a.settleDepth[g] = cand;
        for (uint32_t c = adj.consumerOffset[g];
             c < adj.consumerOffset[g + 1]; ++c) {
            GateId s = adj.consumer[c];
            if (a.value[s] != V4::X && !seed[s] && !queued[s]) {
                queued[s] = 1;
                work.push_back(s);
            }
        }
    }

    // --- Prune mask + energy roll-up ---------------------------------
    for (uint32_t g = 0; g < n; ++g) {
        if (a.value[g] == V4::X)
            continue;
        ++a.provenConst;
        bool seq = isSequential(nl.gate(g).kind);
        a.provenSeq += seq;
        if (seq || hookDriven[g] || a.settleDepth[g] == kDepthInf)
            continue; // reported, never pruned
        a.pruneMask[g] = 1;
        ++a.prunable;
        a.maxPruneDepth = std::max(a.maxPruneDepth, a.settleDepth[g]);
    }
    if (nl.finalized()) {
        for (uint32_t g = 0; g < n; ++g) {
            double e = nl.maxEnergyJ(g);
            bool quiescent =
                a.value[g] != V4::X && a.settleDepth[g] != kDepthInf;
            if (a.pruneMask[g])
                a.quiescentEnergyJ += e;
            if (!quiescent)
                a.switchingBoundJ += e;
        }
        a.switchingBoundJ += nl.clockEnergyPerCycleJ();
    }
    return a;
}

ConstAnalysis
analyzeConstants(const msp::System &sys, const scenario::Scenario &scn)
{
    ConstAnalysisOptions opts;
    opts.scenario = scn;
    const msp::CpuHandles &h = sys.handles();
    opts.portBits.assign(h.portIn.begin(), h.portIn.end());
    opts.drivenConstants = sys.runPins();
    return analyzeConstants(sys.netlist(), opts);
}

std::vector<QuiescentCone>
quiescentCones(const Netlist &nl, const ConstAnalysis &a)
{
    std::map<std::string, QuiescentCone> rows;
    const uint32_t n = uint32_t(nl.numGates());
    for (uint32_t g = 0; g < n; ++g) {
        ModuleId top = nl.topLevelModuleOf(nl.gate(g).module);
        QuiescentCone &row = rows[nl.moduleName(top)];
        ++row.gates;
        if (g < a.value.size() && a.value[g] != V4::X)
            ++row.constGates;
        if (g < a.pruneMask.size() && a.pruneMask[g]) {
            ++row.pruned;
            if (nl.finalized())
                row.quiescentEnergyJ += nl.maxEnergyJ(g);
        }
    }
    std::vector<QuiescentCone> out;
    out.reserve(rows.size());
    for (auto &kv : rows) {
        kv.second.module = kv.first;
        out.push_back(std::move(kv.second));
    }
    return out;
}

} // namespace lint
} // namespace ulpeak
