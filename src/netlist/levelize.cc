/**
 * @file
 * Topological levelization of a netlist.
 *
 * The cycle-based simulator evaluates every combinational gate exactly
 * once per cycle, in an order where each gate's fanins (and any
 * behavioral hook feeding it) have already been evaluated. Sequential
 * gate outputs and primary inputs are the sources of the order;
 * combinational loops are construction errors and are reported with a
 * witness gate.
 */

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "netlist/netlist.hh"

namespace ulpeak {

/** Helper with friend access that computes the evaluation order. */
class Levelizer {
  public:
    static void
    run(Netlist &nl)
    {
        const size_t n = nl.gates_.size();
        const size_t h = nl.hooks_.size();

        // Node ids: [0, n) are gates, [n, n + h) are hooks.
        std::vector<uint32_t> indeg(n + h, 0);
        std::vector<std::vector<uint32_t>> succ(n + h);

        // Map each hook-output Input gate to its hook node.
        std::vector<uint32_t> hookOf(n, UINT32_MAX);
        for (size_t i = 0; i < h; ++i)
            for (GateId g : nl.hooks_[i].outputs)
                hookOf[g] = uint32_t(i);

        nl.fanoutCount_.assign(n, 0);

        auto addEdge = [&](uint32_t from, uint32_t to) {
            succ[from].push_back(to);
            ++indeg[to];
        };

        for (GateId g = 0; g < n; ++g) {
            const Gate &gate = nl.gates_[g];
            for (unsigned i = 0; i < gate.nin; ++i) {
                GateId src = gate.in[i];
                if (src == kNoGate)
                    throw std::logic_error(
                        "unconnected fanin at gate " + std::to_string(g));
                ++nl.fanoutCount_[src];
                // Sequential gates consume their fanins at the clock
                // edge; they are not part of the combinational order.
                if (isSequential(gate.kind))
                    continue;
                addEdge(src, g);
            }
            // A hook-driven input must wait for its hook.
            if (hookOf[g] != UINT32_MAX)
                addEdge(uint32_t(n + hookOf[g]), g);
        }
        for (size_t i = 0; i < h; ++i)
            for (GateId dep : nl.hooks_[i].depends)
                addEdge(dep, uint32_t(n + i));

        // Kahn's algorithm, which also computes each node's level: one
        // above its deepest fanin, dependency or driving hook.
        // Sequential outputs, constants and plain primary inputs start
        // ready at level 0 (a flop is a level-0 source of the
        // combinational phase; the flop itself is unscheduled).
        std::queue<uint32_t> ready;
        for (uint32_t v = 0; v < n + h; ++v)
            if (indeg[v] == 0)
                ready.push(v);

        std::vector<uint32_t> level(n + h, 0);
        size_t emitted = 0;
        while (!ready.empty()) {
            uint32_t v = ready.front();
            ready.pop();
            ++emitted;
            for (uint32_t s : succ[v]) {
                level[s] = std::max(level[s], level[v] + 1);
                if (--indeg[s] == 0)
                    ready.push(s);
            }
        }

        if (emitted != n + h) {
            for (uint32_t v = 0; v < n; ++v) {
                if (indeg[v] != 0) {
                    throw std::logic_error(
                        "combinational loop through gate " +
                        std::to_string(v) + " (" +
                        cellName(nl.gates_[v].kind) + ")");
                }
            }
            throw std::logic_error("combinational loop through a hook");
        }

        nl.seqGates_.clear();
        for (GateId g = 0; g < n; ++g)
            if (isSequential(nl.gates_[g].kind))
                nl.seqGates_.push_back(g);

        // Pre-compute per-gate transition energies and static totals.
        const CellLibrary &lib = *nl.lib_;
        std::vector<double> &te = nl.flat_.transE;
        te.resize(3 * n);
        nl.totalLeakage_ = 0.0;
        nl.clockEnergy_ = 0.0;
        for (GateId g = 0; g < n; ++g) {
            CellKind k = nl.gates_[g].kind;
            unsigned fo = nl.fanoutCount_[g];
            double rise = lib.transitionEnergyJ(k, true, fo);
            double fall = lib.transitionEnergyJ(k, false, fo);
            te[3 * size_t(g) + kTransRise] = rise;
            te[3 * size_t(g) + kTransFall] = fall;
            te[3 * size_t(g) + kTransMax] = std::max(rise, fall);
            nl.totalLeakage_ += lib.params(k).leakageW;
            nl.clockEnergy_ += lib.params(k).clkPinEnergyJ;
        }

        flatten(nl, level);
    }

  private:
    /**
     * Build the kernel view from each node's @p level: the
     * level-bucketed schedule as one NodeRecord per position, the CSR
     * fanout adjacency in the event kernel's wake-bit form, and the
     * per-gate seq index and top-level module.
     */
    static void
    flatten(Netlist &nl, const std::vector<uint32_t> &level)
    {
        const uint32_t n = uint32_t(nl.gates_.size());
        const uint32_t h = uint32_t(nl.hooks_.size());
        FlatNetlist &f = nl.flat_;
        f.numGates = n;
        f.numHooks = h;

        f.topModuleOf.resize(n);
        for (GateId g = 0; g < n; ++g)
            f.topModuleOf[g] = nl.topLevelModuleOf(nl.gates_[g].module);
        auto scheduled = [&](uint32_t node) {
            return node >= n || !isSequential(nl.gates_[node].kind);
        };

        // Bucket the schedulable nodes by level, ascending node id
        // within a level (counting sort keeps it stable).
        uint32_t numLevels = 0;
        for (uint32_t node = 0; node < n + h; ++node)
            if (scheduled(node))
                numLevels = std::max(numLevels, level[node] + 1);
        f.numLevels = numLevels;
        f.levelOffset.assign(numLevels + 1, 0);
        for (uint32_t node = 0; node < n + h; ++node)
            if (scheduled(node))
                ++f.levelOffset[level[node] + 1];
        for (uint32_t l = 0; l < numLevels; ++l)
            f.levelOffset[l + 1] += f.levelOffset[l];
        f.records.resize(f.levelOffset[numLevels]);
        f.posOfNode.assign(n + h, kNoLevel);
        std::vector<uint32_t> lfill(f.levelOffset.begin(),
                                    f.levelOffset.end() - 1);
        for (uint32_t node = 0; node < n + h; ++node)
            if (scheduled(node))
                f.posOfNode[node] = lfill[level[node]]++;

        // Fanout CSR (two-pass fill; needs posOfNode above): per
        // producer, the schedule positions of its combinational
        // consumers, then seqWakeBase + the seq index of each flop
        // consumer.
        f.seqWakeBase = uint32_t((f.records.size() + 63) / 64 * 64);
        std::vector<uint32_t> &seqIndexOf = f.seqIndexOf;
        seqIndexOf.assign(n, UINT32_MAX);
        for (size_t i = 0; i < nl.seqGates_.size(); ++i)
            seqIndexOf[nl.seqGates_[i]] = uint32_t(i);
        f.fanoutOffset.assign(n + 1, 0);
        for (GateId g = 0; g < n; ++g) {
            const Gate &gate = nl.gates_[g];
            for (unsigned p = 0; p < gate.nin; ++p)
                ++f.fanoutOffset[gate.in[p] + 1];
        }
        for (GateId g = 0; g < n; ++g)
            f.fanoutOffset[g + 1] += f.fanoutOffset[g];
        f.fanoutPos.resize(f.fanoutOffset[n]);
        std::vector<uint32_t> fill(f.fanoutOffset.begin(),
                                   f.fanoutOffset.end() - 1);
        for (bool seq : {false, true}) {
            for (GateId g = 0; g < n; ++g) {
                const Gate &gate = nl.gates_[g];
                if (isSequential(gate.kind) != seq)
                    continue;
                uint32_t wake = seq ? f.seqWakeBase + seqIndexOf[g]
                                    : f.posOfNode[g];
                for (unsigned p = 0; p < gate.nin; ++p)
                    f.fanoutPos[fill[gate.in[p]]++] = wake;
            }
        }

        // One record per position.
        static_assert(kNumCellKinds * kPackedFaninStates <= 0x10000,
                      "a truth-table row fits NodeRecord::row");
        for (uint32_t node = 0; node < n + h; ++node) {
            if (!scheduled(node))
                continue;
            NodeRecord &r = f.records[f.posOfNode[node]];
            r.node = node;
            if (node >= n) {
                r.cls = NodeClass::Hook;
                continue;
            }
            const Gate &gate = nl.gates_[node];
            r.cls = gate.kind == CellKind::Input ? NodeClass::Input
                    : gate.kind == CellKind::Const0 ||
                            gate.kind == CellKind::Const1
                        ? NodeClass::Const
                        : NodeClass::Logic;
            r.row = uint16_t(unsigned(gate.kind) * kPackedFaninStates);
            r.pinMask = uint8_t((1u << (2 * gate.nin)) - 1);
            for (unsigned p = 0; p < 4; ++p)
                r.in[p] = gate.nin ? gate.in[p < gate.nin ? p : 0] : 0;
            r.fanout = f.fanoutsOf(node);
        }
    }
};

void
Netlist::finalize()
{
    if (finalized_)
        return;
    Levelizer::run(*this);
    finalized_ = true;
}

} // namespace ulpeak
