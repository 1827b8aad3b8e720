#include "sym/exec_tree.hh"

#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace ulpeak {
namespace sym {

uint64_t
ExecTree::totalCycles() const
{
    uint64_t total = 0;
    for (const TreeNode &n : nodes_)
        total += n.powerW.size();
    return total;
}

std::vector<float>
ExecTree::flatten() const
{
    std::vector<float> out;
    for (const FlatRef &ref : flattenRefs())
        out.push_back(nodes_[ref.nodeId].powerW[ref.offset]);
    return out;
}

std::vector<ExecTree::FlatRef>
ExecTree::flattenRefs() const
{
    std::vector<FlatRef> out;
    if (nodes_.empty())
        return out;
    std::vector<uint32_t> stack{0};
    std::vector<bool> visited(nodes_.size(), false);
    while (!stack.empty()) {
        uint32_t id = stack.back();
        stack.pop_back();
        if (visited[id])
            continue;
        visited[id] = true;
        const TreeNode &n = nodes_[id];
        for (uint32_t c = 0; c < n.powerW.size(); ++c)
            out.push_back(FlatRef{id, c});
        // Depth-first order: push children reversed.
        for (auto it = n.edges.rbegin(); it != n.edges.rend(); ++it)
            if (it->child != kNoNode && !visited[it->child])
                stack.push_back(it->child);
    }
    return out;
}

namespace {

struct EnergyMemo {
    std::vector<int8_t> state; // 0 unvisited, 1 on-stack, 2 done
    std::vector<PathEnergy> best;
};

PathEnergy
visit(const ExecTree &tree, uint32_t id,
      const std::vector<double> &self_energy_j, unsigned loop_bound,
      EnergyMemo &memo)
{
    if (memo.state[id] == 2)
        return memo.best[id];
    if (memo.state[id] == 1) {
        // Back-edge: an input-dependent loop survived dedup. Bound it
        // explicitly (Section 3.3: "the maximum number of iterations
        // may be determined by static analysis or user input").
        if (loop_bound == 0)
            throw std::runtime_error(
                "unbounded input-dependent loop in execution tree; "
                "provide inputDependentLoopBound");
        return PathEnergy{0.0, 0};
    }
    memo.state[id] = 1;

    const TreeNode &n = tree.node(id);
    PathEnergy self;
    self.energyJ = self_energy_j[id];
    self.cycles = n.powerW.size();

    PathEnergy bestChild;
    bool sawBackEdge = false;
    for (const TreeEdge &e : n.edges) {
        if (e.child == kNoNode)
            continue;
        bool childOnStack =
            memo.state[e.child] == 1;
        PathEnergy pe =
            visit(tree, e.child, self_energy_j, loop_bound, memo);
        if (childOnStack)
            sawBackEdge = true;
        if (pe.energyJ > bestChild.energyJ)
            bestChild = pe;
    }
    PathEnergy total{self.energyJ + bestChild.energyJ,
                     self.cycles + bestChild.cycles};
    if (sawBackEdge) {
        // Conservative bound: the whole loop body repeats loop_bound
        // times.
        total.energyJ += self.energyJ * (loop_bound > 0
                                             ? double(loop_bound - 1)
                                             : 0.0);
        total.cycles +=
            self.cycles * (loop_bound > 0 ? loop_bound - 1 : 0);
    }
    memo.state[id] = 2;
    memo.best[id] = total;
    return total;
}

} // namespace

std::vector<float>
ExecTree::envelopePowerW(unsigned loop_bound,
                         uint64_t pair_budget) const
{
    std::vector<float> env;
    if (nodes_.empty())
        return env;

    // Detect back-edges (iterative three-color DFS over nodes): a
    // cycle means walks can revisit a node, so offsets are unbounded
    // without a loop bound.
    unsigned backEdges = 0;
    {
        std::vector<int8_t> color(nodes_.size(), 0);
        // (node, next-edge-index) explicit stack.
        std::vector<std::pair<uint32_t, size_t>> dfs{{0, 0}};
        color[0] = 1;
        while (!dfs.empty()) {
            auto &[id, ei] = dfs.back();
            const TreeNode &n = nodes_[id];
            if (ei >= n.edges.size()) {
                color[id] = 2;
                dfs.pop_back();
                continue;
            }
            uint32_t child = n.edges[ei++].child;
            if (child == kNoNode)
                continue;
            if (color[child] == 1) {
                ++backEdges;
            } else if (color[child] == 0) {
                color[child] = 1;
                dfs.emplace_back(child, 0);
            }
        }
    }
    if (backEdges && loop_bound == 0)
        throw std::runtime_error(
            "unbounded input-dependent loop in execution tree; "
            "provide inputDependentLoopBound");
    // A legal walk takes each of the B back-edges at most loop_bound
    // times per enclosing iteration, so node visits multiply to at
    // most loop_bound^B nestings and every legal offset is below
    // totalCycles * loop_bound^B. Saturate the product instead of
    // overflowing: a cap that large is never reached -- the pair
    // budget throws (loudly) long before, rather than an undersized
    // cap silently truncating legal walks of nested loops.
    uint64_t cap = UINT64_MAX;
    if (backEdges) {
        cap = totalCycles();
        for (unsigned b = 0; b < backEdges; ++b) {
            if (cap > (uint64_t(1) << 42))
                break; // saturated; pair_budget is the real guard
            cap *= uint64_t(loop_bound);
        }
    }

    // Max-merge every reachable (node, start-offset) pair. The pair
    // set -- not the visit order -- determines the result, because
    // per-cycle float max is order-independent.
    std::vector<std::unordered_set<uint64_t>> seen(nodes_.size());
    std::vector<std::pair<uint32_t, uint64_t>> work{{0, 0}};
    seen[0].insert(0);
    uint64_t pairs = 0;
    while (!work.empty()) {
        auto [id, start] = work.back();
        work.pop_back();
        if (++pairs > pair_budget)
            throw std::runtime_error(
                "envelope pair budget exhausted (pathologically "
                "merge-heavy execution tree)");
        const TreeNode &n = nodes_[id];
        if (env.size() < start + n.powerW.size())
            env.resize(start + n.powerW.size(), 0.0f);
        for (size_t c = 0; c < n.powerW.size(); ++c)
            if (n.powerW[c] > env[start + c])
                env[start + c] = n.powerW[c];
        uint64_t childStart = start + n.powerW.size();
        if (childStart >= cap)
            continue;
        for (const TreeEdge &e : n.edges) {
            if (e.child == kNoNode)
                continue;
            if (seen[e.child].insert(childStart).second)
                work.emplace_back(e.child, childStart);
        }
    }
    return env;
}

PathEnergy
ExecTree::maxPathEnergy(const std::vector<double> &tclk_by_phase,
                        unsigned loop_bound) const
{
    if (nodes_.empty())
        return PathEnergy{};
    if (tclk_by_phase.empty())
        throw std::invalid_argument(
            "maxPathEnergy: tclk_by_phase must be non-empty");
    const uint64_t period = tclk_by_phase.size();
    // Each node's start offset in post-reset cycles, mod the
    // schedule period. Parents are always allocated before their
    // children (newNode takes an existing parent), so one ascending
    // pass suffices. Dedup keys include the schedule phase, so every
    // walk reaches a merged node at a congruent offset and the
    // creating parent's offset is representative.
    std::vector<uint64_t> start(nodes_.size(), 0);
    for (size_t id = 1; id < nodes_.size(); ++id) {
        uint32_t p = nodes_[id].parent;
        start[id] = p == kNoNode
                        ? 0
                        : (start[p] + nodes_[p].powerW.size()) %
                              period;
    }
    std::vector<double> self(nodes_.size(), 0.0);
    for (size_t id = 0; id < nodes_.size(); ++id) {
        const TreeNode &n = nodes_[id];
        for (size_t c = 0; c < n.powerW.size(); ++c)
            self[id] += double(n.powerW[c]) *
                        tclk_by_phase[size_t((start[id] + c) %
                                             period)];
    }
    EnergyMemo memo;
    memo.state.assign(nodes_.size(), 0);
    memo.best.assign(nodes_.size(), PathEnergy{});
    return visit(*this, 0, self, loop_bound, memo);
}

} // namespace sym
} // namespace ulpeak
