/**
 * @file
 * The symbolic execution tree of Algorithm 1.
 *
 * Each node is a fork-free run of cycles annotated with per-cycle
 * bound power (and optionally per-module power and instruction
 * attribution). Edges carry the constrained PC target; an edge may
 * point at an already-simulated node when Algorithm 1's dedup check
 * ("if a not-in T") merged the path (this is how input-dependent loops
 * terminate). Peak energy (Section 3.3) is the max-energy
 * root-to-leaf path; input-independent loops are unrolled naturally by
 * simulation, merge cross-edges are handled by memoization, and true
 * back-edges (unbounded input-dependent loops) require an explicit
 * iteration bound, as in the paper.
 */

#ifndef ULPEAK_SYM_EXEC_TREE_HH
#define ULPEAK_SYM_EXEC_TREE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

namespace ulpeak {
namespace sym {

constexpr uint32_t kNoNode = UINT32_MAX;

struct TreeEdge {
    uint32_t targetPc = 0;
    uint32_t child = kNoNode;
    bool merged = false; ///< points at a previously simulated node
};

/** Per-cycle attribution data (kept only when requested). */
struct CycleInfo {
    uint32_t instrPc = 0; ///< instruction occupying execute/mem
    uint8_t fsmState = 0;
};

struct TreeNode {
    uint32_t parent = kNoNode;
    std::vector<float> powerW;
    std::vector<TreeEdge> edges;
    uint32_t branchPc = 0;   ///< address of the forking instruction
    bool endsHalted = false;
    /** Optional per-cycle per-top-module power (modulePowerW[c][m]). */
    std::vector<std::vector<float>> modulePowerW;
    std::vector<CycleInfo> cycleInfo;
};

struct PathEnergy {
    double energyJ = 0.0;
    uint64_t cycles = 0;
};

class ExecTree {
  public:
    uint32_t
    newNode(uint32_t parent)
    {
        nodes_.emplace_back();
        nodes_.back().parent = parent;
        return uint32_t(nodes_.size() - 1);
    }

    TreeNode &node(uint32_t id) { return nodes_[id]; }
    const TreeNode &node(uint32_t id) const { return nodes_[id]; }
    size_t numNodes() const { return nodes_.size(); }

    uint64_t totalCycles() const;

    /**
     * Concatenate all node traces in depth-first order -- the
     * "flattened execution trace" Algorithm 2 consumes. Merged edges
     * are not re-expanded (their target was already emitted).
     */
    std::vector<float> flatten() const;

    /** Flatten with node/offset provenance for COI reporting. */
    struct FlatRef {
        uint32_t nodeId;
        uint32_t offset;
    };
    std::vector<FlatRef> flattenRefs() const;

    /**
     * Maximum root-to-leaf path energy (Section 3.3) under a
     * repeating per-cycle clock schedule: post-reset cycle c costs
     * powerW * tclk_by_phase[c % period] seconds (the operating-mode
     * schedules of scenario::Scenario, where each phase runs at its
     * mode's clock; a single entry is one fixed clock). Merge
     * cross-edges are followed with memoization; a back-edge (cycle)
     * multiplies the loop-body energy by @p loop_bound, and is an
     * error when loop_bound == 0. Node start phases are reconstructed
     * from parent pointers; the engine's dedup keys include the
     * schedule phase, so every offset a merged node is reachable at
     * is congruent mod the period and the body of a back-edge loop
     * always spans a whole number of periods -- making the per-phase
     * costing well-defined and scheduling-independent.
     * @throws std::runtime_error for unbounded back-edges.
     */
    PathEnergy maxPathEnergy(const std::vector<double> &tclk_by_phase,
                             unsigned loop_bound = 0) const;

    /**
     * The cycle-aligned upper-bound power envelope over *every* walk
     * of the tree: env[c] = max over all root-to-leaf walks of the
     * walk's power at cycle c. Unlike flatten() -- which emits each
     * node's trace exactly once in depth-first order -- this follows
     * merged edges too, replaying an already-simulated node's trace
     * at every cycle offset a walk can reach it at, so the envelope
     * bounds the merged continuations that exploration never
     * re-simulated. The reachable (node, offset) set is a function of
     * the tree's logical structure alone, and per-cycle float max is
     * order-independent, so the envelope is byte-identical under any
     * exploration scheduling.
     *
     * Back-edges (bounded input-dependent loops) contribute walks of
     * up to @p loop_bound iterations per back-edge, capped at
     * totalCycles() * loop_bound^B cycles for B back-edges (nested
     * loops multiply); they are an error when loop_bound == 0, as
     * in maxPathEnergy. @p pair_budget bounds the traversal on
     * pathologically merge-heavy or deeply nested trees.
     * @throws std::runtime_error for unbounded back-edges or an
     *         exhausted pair budget.
     */
    std::vector<float>
    envelopePowerW(unsigned loop_bound = 0,
                   uint64_t pair_budget = uint64_t(1) << 22) const;

  private:
    /** Deque, not vector: newNode() must never move existing nodes.
     *  The parallel exploration allocates children under the tree
     *  lock while other workers hold references to (and write the
     *  traces of) nodes they own; deque growth keeps those
     *  references valid. */
    std::deque<TreeNode> nodes_;
};

} // namespace sym
} // namespace ulpeak

#endif // ULPEAK_SYM_EXEC_TREE_HH
