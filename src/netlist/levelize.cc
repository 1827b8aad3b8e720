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

        // Kahn's algorithm. Sequential outputs, constants and plain
        // primary inputs start ready; they are emitted in the order so
        // the simulator has a complete per-cycle visit sequence.
        std::queue<uint32_t> ready;
        for (uint32_t v = 0; v < n + h; ++v)
            if (indeg[v] == 0)
                ready.push(v);

        nl.order_.clear();
        nl.order_.reserve(n + h);
        size_t emitted = 0;
        while (!ready.empty()) {
            uint32_t v = ready.front();
            ready.pop();
            ++emitted;
            EvalItem item;
            if (v < n) {
                item.type = EvalItem::Type::Gate;
                item.index = v;
            } else {
                item.type = EvalItem::Type::Hook;
                item.index = uint32_t(v - n);
            }
            nl.order_.push_back(item);
            for (uint32_t s : succ[v])
                if (--indeg[s] == 0)
                    ready.push(s);
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

        flatten(nl, hookOf);
    }

  private:
    /**
     * Build the structure-of-arrays kernel view: contiguous kind/nin
     * arrays, CSR fanins, the level-bucketed schedule, the CSR
     * fanout adjacency in the event kernel's wake-bit form, and the
     * per-gate seq index and top-level module.
     */
    static void
    flatten(Netlist &nl, const std::vector<uint32_t> &hookOf)
    {
        const uint32_t n = uint32_t(nl.gates_.size());
        const uint32_t h = uint32_t(nl.hooks_.size());
        FlatNetlist &f = nl.flat_;
        f.numGates = n;
        f.numHooks = h;

        f.kind.resize(n);
        f.nin.resize(n);
        f.topModuleOf.resize(n);
        f.faninOffset.assign(n + 1, 0);
        for (GateId g = 0; g < n; ++g) {
            const Gate &gate = nl.gates_[g];
            f.kind[g] = gate.kind;
            f.nin[g] = gate.nin;
            f.topModuleOf[g] = nl.topLevelModuleOf(gate.module);
            f.faninOffset[g + 1] = f.faninOffset[g] + gate.nin;
        }
        // Three pad entries (gate 0) past the end: a kernel may read
        // four pins of any gate and mask off the ones it does not have.
        f.fanin.assign(f.faninOffset[n] + 3, 0);
        for (GateId g = 0; g < n; ++g) {
            const Gate &gate = nl.gates_[g];
            for (unsigned p = 0; p < gate.nin; ++p)
                f.fanin[f.faninOffset[g] + p] = gate.in[p];
        }

        // Levels, walked in the already-computed topological order so
        // every fanin/dependency level is final when consumed.
        f.levelOfNode.assign(n + h, 0);
        for (const EvalItem &item : nl.order_) {
            if (item.type == EvalItem::Type::Hook) {
                uint32_t node = n + item.index;
                uint32_t lvl = 0;
                for (GateId dep : nl.hooks_[item.index].depends)
                    lvl = std::max(lvl, f.levelOfNode[dep] + 1);
                f.levelOfNode[node] = lvl;
                continue;
            }
            GateId g = item.index;
            const Gate &gate = nl.gates_[g];
            if (isSequential(gate.kind)) {
                // Sequential outputs are level-0 sources of the
                // combinational phase; the gate itself is unscheduled.
                f.levelOfNode[g] = 0;
                continue;
            }
            uint32_t lvl = 0;
            if (hookOf[g] != UINT32_MAX)
                lvl = f.levelOfNode[n + hookOf[g]] + 1;
            for (unsigned p = 0; p < gate.nin; ++p)
                lvl = std::max(lvl, f.levelOfNode[gate.in[p]] + 1);
            f.levelOfNode[g] = lvl;
        }

        // Bucket the schedulable nodes by level, ascending node id
        // within a level (counting sort keeps it stable).
        uint32_t numLevels = 0;
        for (uint32_t node = 0; node < n + h; ++node)
            if (node >= n || !isSequential(nl.gates_[node].kind))
                numLevels =
                    std::max(numLevels, f.levelOfNode[node] + 1);
        f.numLevels = numLevels;
        f.levelOffset.assign(numLevels + 1, 0);
        for (uint32_t node = 0; node < n + h; ++node) {
            if (node < n && isSequential(nl.gates_[node].kind))
                continue;
            ++f.levelOffset[f.levelOfNode[node] + 1];
        }
        for (uint32_t l = 0; l < numLevels; ++l)
            f.levelOffset[l + 1] += f.levelOffset[l];
        f.schedule.resize(f.levelOffset[numLevels]);
        f.posOfNode.assign(n + h, kNoLevel);
        std::vector<uint32_t> lfill(f.levelOffset.begin(),
                                    f.levelOffset.end() - 1);
        for (uint32_t node = 0; node < n + h; ++node) {
            if (node < n && isSequential(nl.gates_[node].kind))
                continue;
            uint32_t pos = lfill[f.levelOfNode[node]]++;
            f.schedule[pos] = node;
            f.posOfNode[node] = pos;
        }
        for (GateId g = 0; g < n; ++g)
            if (isSequential(nl.gates_[g].kind))
                f.levelOfNode[g] = kNoLevel;

        // Fanout CSR (two-pass fill; needs posOfNode above): per
        // producer, the schedule positions of its combinational
        // consumers, then seqWakeBase + the seq index of each flop
        // consumer.
        f.seqWakeBase = uint32_t((f.schedule.size() + 63) / 64 * 64);
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
