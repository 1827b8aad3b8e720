#include "sym/symbolic_engine.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "isa/disassembler.hh"
#include "isa/encoding.hh"
#include "lint/lint.hh"
#include "sim/bitset.hh"
#include "sim/packed_simulator.hh"
#include "sym/testing.hh"

namespace ulpeak {
namespace sym {

namespace {

constexpr uint32_t kNoForcedPc = UINT32_MAX;

using testing::Frontier;

/** Paths a worker's deque must hold beyond which thieves may take
 * from it: one full lane batch. Up to that size the owner's own lanes
 * absorb the frontier, and splitting it would only halve two workers'
 * batches (lanes before threads). */
constexpr size_t kStealSurplus = PackedSimulator::kLanes;

/** Dedup-map shards; a power of two well above any sane worker
 * count, so concurrent forks rarely collide on a shard mutex. */
constexpr unsigned kDedupShards = 64;

/** Delta snapshots beyond this fraction of a full copy promote to a
 * fresh full base: the path has diverged so far that sparse storage
 * stops paying, and later forks on the same path restart their
 * deltas from the new, nearby base. Purely a representation choice
 * (path-state-determined, so scheduling-independent) -- restored
 * bits are identical either way. */
constexpr size_t kDeltaPromoteNum = 1;
constexpr size_t kDeltaPromoteDen = 2;

/** Simulator cycle of every analysis's root state: a fresh worker
 *  simulator right after System::reset. */
constexpr uint64_t kRootCycle = msp::System::kResetCycles;

/** One execution path: where it hangs in the tree, the constraints
 * on its next step, its PC bookkeeping, its age, the diff base of its
 * fork captures, and the trace of the node it is filling (committed
 * at the node's fork or leaf). The scalar frontier steps one Path at
 * a time, the packed frontier one per lane; queued paths carry an
 * empty trace. Node ids, keys and traces belong to the path's
 * context. */
struct Path {
    uint32_t ctx = 0;  ///< the analysis of the group the path belongs to
    uint32_t node = 0;
    TreeNode *nodePtr = nullptr;
    uint64_t nodeKey = 0;  ///< dedup key that created the node (0: root)
    uint32_t forcedPc = kNoForcedPc; ///< PC constraint on the next step
    uint32_t lastPc = 0;   ///< last concrete PC value on this path
    uint32_t curInstr = 0; ///< instruction in execute/mem (COI)
    uint64_t pathCycles = 0; ///< cycles since the root
    bool applyInit = false; ///< root only: scenario register forces
    /** The full snapshot this path's fork captures diff against: the
     *  base of the state it was queued with, inherited by the children
     *  that stay on the lanes, and replaced by a promoted capture. */
    std::shared_ptr<const Simulator::Snapshot> base;
    std::vector<float> powerW;
    std::vector<std::vector<float>> modulePowerW;
    std::vector<CycleInfo> cycleInfo;

    /** The simulator cycle of the path's state (a scalar simulator's
     *  cycle() while it holds the path): the age its state is hashed
     *  and extracted at, so prune engagement and deltas line up. */
    uint64_t simCycle() const { return kRootCycle + pathCycles; }
};

/** One un-processed execution path (Algorithm 1's stack U entry).
 * The simulator state is a delta against the path's diff base (empty
 * when the state is its own base: a root or a promoted capture), both
 * immutable and shared between sibling entries; the node pointer is
 * pre-resolved under the tree lock so workers never touch the tree
 * container concurrently. */
struct Pending {
    std::shared_ptr<const Simulator::DeltaSnapshot> sim;
    std::shared_ptr<const msp::System::Snapshot> sysSnap;
    Path path;
};

/** @p s as its own diff base: an empty delta over a fresh base. */
std::shared_ptr<const Simulator::DeltaSnapshot>
ownBase(Simulator::Snapshot s)
{
    Simulator::DeltaSnapshot d;
    d.cycle = s.cycle;
    d.base = std::make_shared<const Simulator::Snapshot>(std::move(s));
    return std::make_shared<const Simulator::DeltaSnapshot>(std::move(d));
}

/** What a frontier reads off its simulator (or one lane of it) after
 *  stepping a path one cycle: the only inputs of the per-cycle rules
 *  both frontiers share (Worker::endCycle). */
struct CycleReading {
    Word16 pc;     ///< PC flops after the edge
    int fsm;       ///< System::fsmState (-1: X or not one-hot)
    double boundJ; ///< bound switching energy of the cycle [J]
    /** Per-module split of boundJ; read only with recordModuleTrace. */
    const std::vector<double> *moduleJ;
    bool xStore;  ///< a store with X address or enable reached memory
    bool halted;  ///< the program stored to DONE
    bool pcNextX; ///< some PC flop loads X at the next edge
};

/** How a simulated cycle leaves its path (Algorithm 1). */
enum class CycleEnd { Continue, Leaf, Fork, Failed };

/** One visited-state dedup shard. */
struct Shard {
    std::mutex mu;
    std::unordered_map<uint64_t, uint32_t> visited;
};

/**
 * One analysis of a group: its scenario and the per-phase pricing it
 * implies, and everything an ungrouped run owns --
 * the visited-state map (sharded by key hash, so two workers forking
 * at the same time only contend when their keys land in one shard),
 * the tree (node allocation takes treeMu; everything else about a
 * node is written lock-free through the stable TreeNode pointer by
 * the one worker that owns the node), the cycle budget and the
 * failure. Each worker tallies its statistics (Worker::stats).
 */
struct Context {
    const scenario::Scenario *scen = nullptr;
    /** Per-schedule-phase (energy scale, clock Hz); one reference
     *  entry without operating modes. */
    std::vector<std::pair<double, double>> modes;

    std::array<Shard, kDedupShards> shards;
    std::mutex treeMu; ///< node allocation (and maxNodes accounting)
    ExecTree *tree = nullptr;

    /** Cycles reserved against maxTotalCycles (Worker::reserveCycles). */
    std::atomic<uint64_t> reservedCycles{0};
    std::atomic<bool> failed{false};
    std::string error; ///< the first failure (SharedState::fail)
};

/**
 * State shared by all exploration workers of one group. Besides the
 * contexts' own locks:
 *
 *  - each worker owns a work deque (queues[]) with a private mutex:
 *    the owner pushes/pops at the back (depth-first, cache-warm),
 *    thieves take from the front (the oldest entries, closest to the
 *    root, statistically the largest unexplored subtrees), and only
 *    from a deque holding more than kStealSurplus paths, a batch at a
 *    time. A deque holds the paths of every context.
 *
 * Idle workers sleep on idleCv until some deque holds such a surplus;
 * inflight counts queued + running paths and reaching zero (or every
 * context failing) is the termination condition.
 */
struct SharedState {
    std::deque<Context> contexts; ///< deque: mutexes never move

    struct WorkerQueue {
        std::mutex mu;
        std::deque<Pending> q;
    };
    std::deque<WorkerQueue> queues; ///< deque: mutexes never move

    std::mutex idleMu;
    std::condition_variable idleCv;
    /** Deques holding more than kStealSurplus paths (updated under
     *  the deque's own mutex, so each deque counts at most once). */
    std::atomic<uint32_t> surplus{0};
    std::atomic<uint32_t> inflight{0}; ///< queued + running paths

    std::mutex errMu;
    std::atomic<size_t> failedContexts{0};

    static unsigned
    shardOf(uint64_t key)
    {
        // High multiplicative bits: the low bits feed the map's own
        // bucket index, so reusing them would correlate the two.
        return unsigned((key * 0x9e3779b97f4a7c15ull) >> 58) &
               (kDedupShards - 1);
    }

    Context &ctx(const Path &p) { return contexts[p.ctx]; }

    /** Every context failed: nothing is left to explore. */
    bool
    allFailed() const
    {
        return failedContexts.load() == contexts.size();
    }

    /** Fail @p c with @p msg (the first failure's message stays). */
    void
    fail(Context &c, const std::string &msg)
    {
        {
            std::lock_guard<std::mutex> lock(errMu);
            if (c.failed.exchange(true))
                return;
            c.error = msg;
            ++failedContexts;
        }
        std::lock_guard<std::mutex> lock(idleMu);
        idleCv.notify_all();
    }

    /** A failure no single context owns (a worker exception). */
    void
    failAll(const std::string &msg)
    {
        for (Context &c : contexts)
            fail(c, msg);
    }

    /** Enqueue @p p on @p worker's deque; wake one sleeper when the
     *  deque starts holding a surplus. */
    void
    push(unsigned worker, Pending &&p)
    {
        inflight.fetch_add(1, std::memory_order_relaxed);
        bool newSurplus;
        {
            std::lock_guard<std::mutex> lock(queues[worker].mu);
            queues[worker].q.push_back(std::move(p));
            newSurplus = queues[worker].q.size() == kStealSurplus + 1;
            if (newSurplus)
                surplus.fetch_add(1, std::memory_order_release);
        }
        if (newSurplus && queues.size() > 1)
            wakeOne();
    }

    /** A path that starts running without passing a deque (a forked
     *  child copied into a lane). */
    void
    adopt()
    {
        inflight.fetch_add(1, std::memory_order_relaxed);
    }

    void
    wakeOne()
    {
        std::lock_guard<std::mutex> lock(idleMu);
        idleCv.notify_one();
    }

    /** Paths queued on @p worker's deque. */
    size_t
    queuedOn(unsigned worker)
    {
        std::lock_guard<std::mutex> lock(queues[worker].mu);
        return queues[worker].q.size();
    }

    bool
    popOwn(unsigned worker, Pending &out)
    {
        std::lock_guard<std::mutex> lock(queues[worker].mu);
        std::deque<Pending> &q = queues[worker].q;
        if (q.empty())
            return false;
        if (q.size() == kStealSurplus + 1)
            surplus.fetch_sub(1, std::memory_order_relaxed);
        out = std::move(q.back());
        q.pop_back();
        return true;
    }

    /** Move one surplus batch -- the oldest paths beyond kStealSurplus,
     *  at most one lane batch -- from another worker's deque to
     *  @p thief's, counting each in the thief's tally @p stats of its
     *  context; returns how many paths moved. */
    size_t
    stealBatch(unsigned thief, std::vector<ExplorationStats> &stats)
    {
        if (queues.size() < 2 ||
            surplus.load(std::memory_order_acquire) == 0)
            return 0;
        std::vector<Pending> batch;
        bool more = false;
        unsigned n = unsigned(queues.size());
        for (unsigned i = 1; i < n && batch.empty(); ++i) {
            std::lock_guard<std::mutex> lock(queues[(thief + i) % n].mu);
            std::deque<Pending> &q = queues[(thief + i) % n].q;
            if (q.size() <= kStealSurplus)
                continue;
            size_t take = std::min(q.size() - kStealSurplus,
                                   size_t(PackedSimulator::kLanes));
            batch.reserve(take);
            for (size_t k = 0; k < take; ++k) {
                batch.push_back(std::move(q.front()));
                q.pop_front();
            }
            more = q.size() > kStealSurplus;
            if (!more)
                surplus.fetch_sub(1, std::memory_order_relaxed);
        }
        if (batch.empty())
            return 0;
        for (const Pending &p : batch)
            ++stats[p.path.ctx].steals;
        {
            std::lock_guard<std::mutex> lock(queues[thief].mu);
            for (Pending &p : batch)
                queues[thief].q.push_back(std::move(p));
        }
        if (more)
            wakeOne(); // the rest is another thief's batch
        return batch.size();
    }

    /** A taken path has ended (fork, leaf or failure). */
    void
    finishPath()
    {
        if (inflight.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lock(idleMu);
            idleCv.notify_all();
        }
    }
};

/**
 * One exploration worker: a simulator (plus, for workers beyond the
 * first, a private System clone over the shared netlist, built on the
 * worker's first steal) that takes pending paths, simulates them to
 * the next fork or leaf, and commits traces to the tree through the
 * nodes it owns.
 * Peak candidates, activity sets and statistics are tracked locally,
 * per context, and merged after the pool drains.
 *
 * Two frontiers step the paths: the scalar one runs one path at a
 * time on the Simulator (runScalar), the packed one up to 64 on the
 * lanes of a PackedSimulator (stepBatch). They differ only in what
 * they read off their simulator; every rule of Algorithm 1 and 2 --
 * the cycle budgets, the per-cycle pricing and end-of-cycle
 * classification, fork targets, dedup keys, snapshot capture and the
 * node commit -- exists once, below, and takes those readings as
 * values. Which frontier runs is the worker's own choice, made per
 * path (step): a narrow frontier runs scalar, a wide one on lanes,
 * and a lane batch that narrows back to one path hands it back to
 * the scalar simulator.
 */
class Worker {
  public:
    /** A worker over @p contexts analyses whose simulators get
     *  Simulator::setStaticPrune(@p prune_mask, @p prune_engage). */
    Worker(msp::System &base, const SymbolicConfig &cfg,
           const isa::Image &image, unsigned id, Frontier frontier,
           size_t contexts,
           std::shared_ptr<const std::vector<uint8_t>> prune_mask,
           uint64_t prune_engage)
        : cfg_(cfg), id_(id), frontier_(frontier), base_(&base),
          image_(&image), pruneMask_(std::move(prune_mask)),
          pruneEngage_(prune_engage), cand_(contexts), stats_(contexts)
    {
        if (cfg_.recordActiveSets)
            for (Candidate &c : cand_)
                c.everActive.assign(base.netlist().numGates(), 0);
        if (id == 0)
            buildSystem(base);
    }

    Simulator &sim() { return *sim_; }

    /** Take-simulate-commit until all work drains or fails. */
    void
    explore(SharedState &sh)
    {
        for (;;) {
            if (sh.allFailed())
                break;
            bool busy = true;
            // Exceptions must not escape a worker thread (that would
            // terminate the process); convert them into the engine's
            // normal failure reporting.
            try {
                busy = step(sh);
            } catch (const std::exception &e) {
                sh.failAll(std::string("worker exception: ") +
                           e.what());
            }
            if (busy)
                continue;
            // Back off after a failed steal sweep: when workers
            // outnumber cores, re-spinning over the victims' mutexes
            // starves the owners mid-push.
            if (sh.queues.size() > 1)
                std::this_thread::yield();
            std::unique_lock<std::mutex> lock(sh.idleMu);
            sh.idleCv.wait(lock, [&] {
                return sh.allFailed() || sh.inflight.load() == 0 ||
                       sh.surplus.load(std::memory_order_acquire) > 0;
            });
            if (sh.allFailed() || sh.inflight.load() == 0)
                break;
        }
        std::lock_guard<std::mutex> lock(sh.idleMu);
        sh.idleCv.notify_all();
    }

    /** One context's peak candidate and activity sets in this worker,
     *  merged across workers after the pool drains. */
    struct Candidate {
        double peakPowerW = 0.0;
        uint32_t peakNode = 0;
        uint32_t peakCycleInNode = 0;
        /** Canonical identity of the peak candidate for tie-breaking:
         * (node dedup key, cycle index). Node keys are
         * partition-independent, unlike node ids, so exact power ties
         * resolve to the same logical cycle under any scheduling. */
        uint64_t peakNodeKey = 0;
        std::vector<uint32_t> peakActive;
        std::vector<uint8_t> everActive;

        /** Strict-weak "better candidate" order used both within a
         * worker and for the final cross-worker merge. */
        bool
        better(double w, uint64_t node_key, uint32_t cycle) const
        {
            if (w != peakPowerW)
                return w > peakPowerW;
            if (peakPowerW == 0.0)
                return false; // no candidate yet is only beaten by w > 0
            if (node_key != peakNodeKey)
                return node_key < peakNodeKey;
            return cycle < peakCycleInNode;
        }
    };

    const Candidate &candidate(size_t ctx) const { return cand_[ctx]; }
    /** This worker's share of context @p ctx's statistics. */
    const ExplorationStats &stats(size_t ctx) const { return stats_[ctx]; }

  private:
    /** Wrap @p sys (worker 0: the caller's System; others: a clone):
     *  load the image, attach a simulator, resolve the pricing. */
    void
    buildSystem(msp::System &sys)
    {
        sys_ = &sys;
        sys_->memory().reset();
        sys_->loadImage(*image_);
        sys_->clearHalted();
        sim_ = std::make_unique<Simulator>(sys_->netlist(),
                                           cfg_.evalMode);
        sys_->attach(*sim_);
        sim_->setStaticPrune(pruneMask_, pruneEngage_);
        ctx_ = std::make_unique<power::PowerContext>(sys_->netlist(),
                                                     cfg_.freqHz);
    }

    /** Build this worker's System clone (first steal only): its own
     *  memory over the base's shared netlist, so snapshots transfer. */
    void
    ensureSystem()
    {
        if (sys_)
            return;
        owned_ = std::make_unique<msp::System>(base_->lib());
        buildSystem(*owned_);
    }

    /** Build the lanes the first time this worker's frontier widens. */
    void
    ensureLanes()
    {
        if (psim_)
            return;
        psim_ = std::make_unique<PackedSimulator>(sys_->netlist());
        // Per-lane behavioral memory; contents are overwritten at
        // every lane load, but the ROM image (not part of memory
        // snapshots) must already be in the copies.
        laneSys_ = std::make_unique<msp::PackedSystem>(*sys_);
        laneSys_->attach(*psim_);
        // Prime one sweep: edge functions only run when cycle() > 0,
        // and a loaded lane's first step must run them against the
        // loaded state exactly like the scalar restore-then-step
        // sequence. The priming sweep itself is inert -- every lane
        // is all-X (the memory hook sees an X enable and returns X
        // data without billing). Then every lane retires until a
        // pending path is loaded into it.
        psim_->step();
        psim_->retireLanes(~uint64_t(0));
        lanes_.resize(PackedSimulator::kLanes);
        ctxLanes_.resize(cand_.size());
    }

    // ---- Scheduling: which frontier steps the next paths ----

    /** Steal a surplus batch into the own deque; its size, or 0. */
    size_t
    steal(SharedState &sh)
    {
        size_t n = sh.stealBatch(id_, stats_);
        if (n)
            ensureSystem();
        return n;
    }

    /** Pop from the own deque, else steal a batch and pop from it;
     *  the taken path counts as explored. Paths of failed contexts
     *  are dropped on the way. */
    bool
    take(SharedState &sh, Pending &out)
    {
        for (;;) {
            if (!sh.popOwn(id_, out) &&
                !(steal(sh) && sh.popOwn(id_, out)))
                return false;
            if (!sh.ctx(out.path).failed.load()) {
                ++stats_[out.path.ctx].pathsExplored;
                return true;
            }
            sh.finishPath(); // its analysis failed: drop it
        }
    }

    /**
     * One scheduling decision: the lanes step while any lane is live
     * or the own deque holds two or more paths (stealing a batch when
     * it is empty); otherwise the one queued path runs on the scalar
     * simulator, which is cheaper per cycle than a one-lane sweep.
     * Single-path programs therefore never build the lanes. False
     * when no work was found.
     */
    bool
    step(SharedState &sh)
    {
        if (!(psim_ && psim_->liveMask())) {
            size_t queued = sh.queuedOn(id_);
            if (!queued && !(queued = steal(sh)))
                return false;
            if (frontier_ == Frontier::Scalar ||
                (frontier_ == Frontier::Auto && queued < 2))
                return runPath(sh);
        }
        runBatch(sh);
        return true;
    }

    // ---- Algorithm 1 and 2, once for both frontiers ----

    /** The cycle budgets of context @p c, applied before a frontier
     *  simulates @p n of its cycles on paths of which the longest has
     *  run @p longest cycles. The cycles are reserved against
     *  maxTotalCycles before they run, so neither a 64-lane sweep nor
     *  racing workers can overrun the budget; a refused reservation
     *  is handed back, so the reservations only count simulated
     *  cycles. Returns false when the context failed. */
    bool
    reserveCycles(SharedState &sh, Context &c, uint64_t n,
                  uint64_t longest)
    {
        uint64_t before =
            c.reservedCycles.fetch_add(n, std::memory_order_relaxed);
        const char *err = nullptr;
        if (before + n > cfg_.maxTotalCycles)
            err = "symbolic cycle budget exhausted";
        else if (longest >= cfg_.maxPathCycles)
            err = "path exceeded maxPathCycles (missing halt or "
                  "unbounded loop?)";
        if (!err)
            return true;
        c.reservedCycles.fetch_sub(n, std::memory_order_relaxed);
        sh.fail(c, err);
        return false;
    }

    /** The scenario inputs of a path's next cycle: the port word at
     *  its cycle index, and its one-shot register and PC forces. */
    struct StepInputs {
        Word16 port;
        bool applyRegs = false;
        uint32_t forcedPc = kNoForcedPc;
    };

    /** @p path's next-cycle inputs under its context's scenario
     *  @p scen; the one-shot forces are consumed. */
    static StepInputs
    takeStepInputs(const scenario::Scenario &scen, Path &path)
    {
        StepInputs in{scen.portWordAt(path.pathCycles), path.applyInit,
                      path.forcedPc};
        path.applyInit = false;
        path.forcedPc = kNoForcedPc;
        return in;
    }

    /**
     * Everything that happens to @p path after one simulated cycle
     * read as @p r: Algorithm 2's per-cycle assignment (power under
     * the cycle's operating mode, module trace, instruction
     * attribution, peak candidate), then Algorithm 1's classification
     * of the cycle's end. A leaf is committed here; a fork is left to
     * the caller, which holds the state to capture. Sets @p new_peak
     * when the cycle became this worker's peak candidate, so the
     * caller can record its active set. A failure fails the path's
     * context.
     */
    CycleEnd
    endCycle(SharedState &sh, Path &path, const CycleReading &r,
             bool &new_peak)
    {
        Context &c = sh.ctx(path);
        Candidate &cand = cand_[path.ctx];
        // The post-reset index of the cycle just simulated selects
        // the operating mode its power is computed at.
        const std::pair<double, double> &mode =
            c.modes[size_t(path.pathCycles % c.modes.size())];
        ++path.pathCycles;

        if (!r.pc.isFullyKnown()) {
            sh.fail(c, "PC became X without fork interception");
            return CycleEnd::Failed;
        }
        path.lastPc = r.pc.value;
        if (r.fsm == msp::kStFetch)
            path.curInstr = path.lastPc; // the word under fetch

        // Under an operating mode the cycle's energy is scaled by the
        // mode's (vdd/vdd_lib)^2 and its power uses the mode's clock.
        double w = ctx_->cyclePowerW(r.boundJ, mode.first, mode.second);
        path.powerW.push_back(float(w));
        if (cfg_.recordModuleTrace) {
            std::vector<double> mod = ctx_->cycleModulePowerW(
                *r.moduleJ, mode.first, mode.second);
            path.modulePowerW.emplace_back(mod.begin(), mod.end());
            CycleInfo info;
            info.instrPc = path.curInstr;
            info.fsmState = uint8_t(r.fsm < 0 ? 255 : r.fsm);
            path.cycleInfo.push_back(info);
        }
        uint32_t cyc = uint32_t(path.powerW.size() - 1);
        new_peak = cand.better(w, path.nodeKey, cyc);
        if (new_peak) {
            cand.peakPowerW = w;
            cand.peakNode = path.node;
            cand.peakCycleInNode = cyc;
            cand.peakNodeKey = path.nodeKey;
        }

        if (r.xStore) {
            sh.fail(c, "store with unknown address or enable "
                       "(X-store); see DESIGN.md section 5");
            return CycleEnd::Failed;
        }
        if (r.halted) {
            commitNode(path, true); // leaf: end of this execution path
            return CycleEnd::Leaf;
        }
        if (r.fsm == msp::kStHalt) {
            sh.fail(c, "core trapped (invalid instruction) at pc~0x" +
                           std::to_string(path.lastPc));
            return CycleEnd::Failed;
        }
        // Algorithm 1 line 17: will PC_next be X?
        return r.pcNextX ? CycleEnd::Fork : CycleEnd::Continue;
    }

    /** Move @p path's buffered trace into the node it owns (no lock:
     *  only this worker writes the node). */
    static void
    commitNode(Path &path, bool ends_halted)
    {
        TreeNode &n = *path.nodePtr;
        n.powerW = std::move(path.powerW);
        n.modulePowerW = std::move(path.modulePowerW);
        n.cycleInfo = std::move(path.cycleInfo);
        n.endsHalted = ends_halted;
    }

    /** Capture the fork state of @p path -- simulator state @p snap
     *  and memory @p mem -- for its @p n new children @p kids: the
     *  state of those that leave through a deque, a delta against the
     *  path's diff base, promoted to a fresh full base when the path
     *  has diverged too far (or always, in Full mode). The capture's
     *  base is the children's diff base. The representation is a pure
     *  function of path state. */
    Pending
    captureFork(const Path &path, Simulator::Snapshot snap,
                const Memory &mem, std::array<Path, 2> &kids, int n)
    {
        ExplorationStats &t = stats_[path.ctx];
        ++t.forkCaptures;
        Pending out;
        // A forking path is neither halted nor faulted.
        out.sysSnap = std::make_shared<const msp::System::Snapshot>(
            msp::System::Snapshot{mem.snapshot(), false, false});
        size_t full_bytes = Simulator::bytesOf(*path.base);
        t.snapshotBytesFull += full_bytes;
        if (cfg_.snapshotMode == SnapshotMode::Delta) {
            Simulator::DeltaSnapshot d =
                Simulator::deltaBetween(snap, path.base);
            if (d.deltaBytes() * kDeltaPromoteDen <=
                full_bytes * kDeltaPromoteNum) {
                t.snapshotBytesCopied += d.deltaBytes();
                out.sim = std::make_shared<const Simulator::DeltaSnapshot>(
                    std::move(d));
            }
        }
        if (!out.sim) {
            t.snapshotBytesCopied += full_bytes;
            out.sim = ownBase(std::move(snap));
        }
        for (int i = 0; i < n; ++i)
            kids[size_t(i)].base = out.sim->base;
        return out;
    }

    /**
     * Algorithm 1 lines 17-24 for @p path, whose PC_next is X: resolve
     * the feasible targets from the (concrete) IR @p ir, key the fork
     * state (@p state_hash, the simulator state's full-state hash, and
     * memory @p mem), commit the node, and resolve each target against
     * the sharded dedup map. The new children go to @p kids in target
     * order, each to run on from the fork state under its forced PC;
     * the caller places them. Returns how many, or -1 when the path's
     * context failed.
     *
     * Dedup keys hash the full simulator state + memory + schedule
     * phase + fork target: hashing the complete state, not just the
     * architectural state, guarantees that when two racing paths map
     * to one key their continuations are identical -- so the merged
     * node's trace, and every number derived from it, is independent
     * of which path claimed the key. The scenario schedule phase
     * participates because under a scheduled scenario the same state
     * continues differently at different points of the period.
     */
    int
    fork(SharedState &sh, Path &path, Word16 ir, uint64_t state_hash,
         const Memory &mem, std::array<Path, 2> &kids)
    {
        Context &c = sh.ctx(path);
        if (!ir.isFullyKnown()) {
            sh.fail(c, "X program counter with unknown IR");
            return -1;
        }
        isa::Decoded dec = isa::decode(ir.value, 0, 0);
        if (!dec.valid || !isa::isJump(dec.instr.op)) {
            sh.fail(c, "unresolvable X program counter (op " +
                           std::string(isa::opName(dec.instr.op)) +
                           "): indirect jump through unknown data");
            return -1;
        }
        // At EXEC of a jump the PC holds the fall-through address.
        uint32_t fallThrough = path.lastPc;
        uint32_t taken =
            (path.lastPc +
             uint32_t(int32_t(dec.instr.jumpOffsetWords) * 2)) &
            0xffff;
        uint32_t targets[2] = {taken, fallThrough};
        unsigned numTargets = taken == fallThrough ? 1 : 2;

        // The state is hashed once (target and schedule phase enter
        // via final mixes), by the caller, where the state is.
        uint64_t keyBase = state_hash;
        mem.hashInto(keyBase);
        keyBase ^= 0xda942042e4dd58b5ull *
                   (c.scen->dedupPhase(path.pathCycles) + 1);
        Path child;
        child.ctx = path.ctx;
        child.lastPc = path.lastPc;
        child.curInstr = path.curInstr;
        child.pathCycles = path.pathCycles;
        child.base = path.base;

        TreeNode *nodePtr = path.nodePtr;
        nodePtr->branchPc = (path.lastPc - 2) & 0xffff;
        commitNode(path, false);
        int n = 0;
        for (unsigned t = 0; t < numTargets; ++t) {
            uint64_t key = keyBase ^ 0x9e3779b97f4a7c15ull *
                                         (uint64_t(targets[t]) + 1);
            Shard &shard = c.shards[SharedState::shardOf(key)];
            uint32_t node;
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                auto it = shard.visited.find(key);
                if (it != shard.visited.end()) {
                    // Algorithm 1 line 19: already simulated (or
                    // claimed by a racing worker, which will
                    // simulate the identical continuation); merge.
                    nodePtr->edges.push_back(
                        TreeEdge{targets[t], it->second, true});
                    ++stats_[path.ctx].dedupMerges;
                    continue;
                }
                // New state: allocate its node while holding the
                // shard (lock order: shard -> tree, never the
                // reverse), so a racing twin either sees our map
                // entry or blocks until it does.
                {
                    std::lock_guard<std::mutex> tlock(c.treeMu);
                    if (c.tree->numNodes() >= cfg_.maxNodes) {
                        sh.fail(c, "execution tree node budget "
                                   "exhausted");
                        return -1;
                    }
                    node = c.tree->newNode(path.node);
                    kids[n] = child;
                    kids[n].nodePtr = &c.tree->node(node);
                }
                shard.visited.emplace(key, node);
            }
            nodePtr->edges.push_back(TreeEdge{targets[t], node, false});
            Path &k = kids[n++];
            k.node = node;
            k.nodeKey = key;
            k.forcedPc = targets[t];
        }
        return n;
    }

    // ---- Scalar frontier ----

    /** Take one path and run it to its fork, leaf or failure; false
     *  when no work was available. */
    bool
    runPath(SharedState &sh)
    {
        Pending p;
        if (!take(sh, p))
            return false;
        sim_->restore(*p.sim);
        sys_->restore(*p.sysSnap);
        runScalar(sh, p.path);
        return true;
    }

    /** Run @p path, whose state the scalar simulator and System hold,
     *  to its fork, leaf or failure. */
    void
    runScalar(SharedState &sh, Path &path)
    {
        msp::System &sys = *sys_;
        Simulator &sim = *sim_;
        const msp::CpuHandles &h = sys.handles();
        Context &c = sh.ctx(path);
        Candidate &cand = cand_[path.ctx];
        while (!c.failed.load() &&
               reserveCycles(sh, c, 1, path.pathCycles)) {
            StepInputs in = takeStepInputs(*c.scen, path);
            sim.step([&](Simulator &s) {
                // Algorithm 1 line 11, generalized: the scenario
                // says which port bits are X this cycle.
                sys.driveCycle(s, in.port);
                // Scenario initial-register constraints narrow the
                // boot-X registers once, right after reset, the same
                // way forks narrow the PC.
                if (in.applyRegs)
                    for (const auto &[reg, value] : c.scen->regInit)
                        s.forceBus(h.regs[reg], Word16::known(value));
                // Algorithm 1's update_PC_next: constrain only the PC
                // flops, right after the edge, before fetch logic
                // evaluates.
                if (in.forcedPc != kNoForcedPc)
                    s.forceBus(h.pc,
                               Word16::known(uint16_t(in.forcedPc)));
            });
            ++stats_[path.ctx].totalCycles;
            if (cfg_.recordActiveSets)
                forEachBit(sim.activeBits(),
                           [&](GateId g) { cand.everActive[g] = 1; });

            bool newPeak = false;
            CycleEnd end = endCycle(
                sh, path,
                {sys.readPc(sim), sys.fsmState(sim), sim.boundEnergyJ(),
                 &sim.moduleBoundEnergyJ(), sys.xStoreFault(),
                 sys.halted(),
                 std::any_of(h.pc.begin(), h.pc.end(),
                             [&](GateId g) {
                                 return sim.predictSeqValue(g) == V4::X;
                             })},
                newPeak);
            if (newPeak && cfg_.recordActiveSets) {
                cand.peakActive.clear();
                forEachBit(sim.activeBits(), [&](GateId g) {
                    cand.peakActive.push_back(g);
                });
            }
            if (end == CycleEnd::Fork) {
                // Every scalar fork captures, so the scalar frontier's
                // byte statistics do not depend on dedup races.
                std::array<Path, 2> kids;
                int n = fork(sh, path, sys.readIr(sim),
                             sim.hashFullState(), sys.memory(), kids);
                if (n >= 0) {
                    Pending out = captureFork(path, sim.snapshot(),
                                              sys.memory(), kids, n);
                    for (int i = 0; i < n; ++i) {
                        Pending next = out;
                        next.path = std::move(kids[size_t(i)]);
                        sh.push(id_, std::move(next));
                    }
                }
            }
            if (end != CycleEnd::Continue)
                break;
        }
        sh.finishPath();
    }

    // ---- Packed frontier ----
    //
    // Up to 64 paths ride the PackedSimulator's lanes at once, from
    // any context of the group: a lane is loaded from a Pending's
    // snapshot and advanced by the shared event-driven
    // packed step, under its own context's port word, forces and
    // pricing, until it reaches its own fork / halt / failure
    // boundary. A fork is keyed where the lane is, and its children
    // stay on the lanes: the first continues in the forking lane, a
    // second is copied into a free lane, and only a child no lane can
    // take is extracted, captured and queued. The lane-identity
    // invariant of the packed kernel makes every per-lane byte --
    // values, activity, energies, and therefore hashes, keys and
    // traces -- equal to the scalar run's, which is the whole
    // bit-identity argument: same keys => same node set, edges and
    // merge counts; same traces => same peak/energy/NPE/envelope.
    // Only scheduling statistics (steals, snapshot bytes, batch,
    // occupancy and lane counters, per-worker cycles) differ.

    /** Refill every free lane while work is available (a stolen
     *  batch fills lanes the own deque cannot), then step the batch.
     *  When the sweep leaves one live lane and nothing queued, that
     *  path moves back to the scalar simulator (resumeScalar). */
    void
    runBatch(SharedState &sh)
    {
        ensureLanes();
        std::fill(ctxLanes_.begin(), ctxLanes_.end(), 0);
        Pending p;
        for (uint64_t free = ~psim_->liveMask(); free && take(sh, p);
             free &= free - 1) {
            unsigned l = unsigned(__builtin_ctzll(free));
            ctxLanes_[p.path.ctx] |= uint64_t(1) << l;
            loadLane(l, std::move(p));
        }
        for (size_t k = 0; k < ctxLanes_.size(); ++k)
            stats_[k].packedBatches += ctxLanes_[k] != 0;
        if (!psim_->liveMask())
            return;
        stepBatch(sh);
        uint64_t live = psim_->liveMask();
        if (frontier_ == Frontier::Auto && live && !(live & (live - 1)) &&
            !sh.queuedOn(id_))
            resumeScalar(sh, unsigned(__builtin_ctzll(live)));
    }

    /** Lane @p l's state as a scalar snapshot, for a path leaving the
     *  lanes. */
    Simulator::Snapshot
    extractLane(unsigned l)
    {
        ++stats_[lanes_[l].ctx].laneExtracts;
        return psim_->extractLaneState(l, lanes_[l].simCycle());
    }

    /** Move lane @p l's path to the scalar simulator -- its lane state
     *  and lane memory -- and run it on there. */
    void
    resumeScalar(SharedState &sh, unsigned l)
    {
        sim_->restore(extractLane(l));
        // A live lane is neither halted nor faulted.
        sys_->restore(msp::System::Snapshot{
            laneSys_->memory(l).snapshot(), false, false});
        psim_->retireLanes(uint64_t(1) << l);
        Path path = std::move(lanes_[l]);
        runScalar(sh, path);
    }

    /** Install @p p into lane @p l -- the packed counterpart of
     *  runPath's restore prologue. */
    void
    loadLane(unsigned l, Pending p)
    {
        ++stats_[p.path.ctx].laneLoads;
        // A state that is its own base loads without a copy.
        const Simulator::DeltaSnapshot &d = *p.sim;
        if (d.deltaBytes() == 0)
            psim_->loadLaneState(l, *d.base);
        else
            psim_->loadLaneState(l, Simulator::materialize(d));
        laneSys_->restore(l, *p.sysSnap);
        lanes_[l] = std::move(p.path);
    }

    /** Free lane @p l; its path has ended. */
    void
    retireLane(SharedState &sh, unsigned l)
    {
        lanes_[l].base.reset(); // release its hold on the diff base
        psim_->retireLanes(uint64_t(1) << l);
        sh.finishPath();
    }

    /** Free every live lane of context @p ctx (it failed). */
    void
    retireContext(SharedState &sh, uint32_t ctx)
    {
        for (uint64_t m = psim_->liveMask(); m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            if (lanes_[l].ctx == ctx)
                retireLane(sh, l);
        }
    }

    /**
     * Place the @p n new children @p kids of lane @p l's fork; the
     * lane still holds the fork state. The first continues in lane
     * @p l and a further one is copied into a free lane, each under
     * its forced PC at the next step; only a child no lane can take
     * leaves the lanes -- extracted, captured against the parent's
     * diff base and queued. In-lane children count as explored here
     * (a queued one counts when it is taken), and the first keeps the
     * parent's inflight slot. A lane filled by a copy joins @p fresh:
     * it did not step in this sweep.
     */
    void
    placeChildren(SharedState &sh, unsigned l, std::array<Path, 2> &kids,
                  int n, uint64_t &fresh)
    {
        if (n == 0) {
            retireLane(sh, l); // every target merged
            return;
        }
        ExplorationStats &t = stats_[lanes_[l].ctx];
        Pending out; // the capture, made once, when a child leaves
        for (size_t i = 1; i < size_t(n); ++i) {
            uint64_t free = ~psim_->liveMask();
            if (!free) {
                if (!out.sim)
                    out = captureFork(lanes_[l], extractLane(l),
                                      laneSys_->memory(l), kids, n);
                Pending next = out;
                next.path = std::move(kids[i]);
                sh.push(id_, std::move(next));
                continue;
            }
            unsigned d = unsigned(__builtin_ctzll(free));
            psim_->copyLane(l, d);
            laneSys_->restore(d, msp::System::Snapshot{
                                     laneSys_->memory(l).snapshot(),
                                     false, false});
            lanes_[d] = std::move(kids[i]);
            fresh |= uint64_t(1) << d;
            sh.adopt();
            ++t.pathsExplored;
            ++t.laneCopies;
        }
        lanes_[l] = std::move(kids[0]);
        ++t.pathsExplored;
        ++t.laneContinues;
    }

    /** One packed cycle of every live lane: runPath's loop body per
     *  lane, retiring lanes that halt or merge away and the lanes of
     *  contexts that fail, and placing the children of lanes that
     *  fork. */
    void
    stepBatch(SharedState &sh)
    {
        PackedSimulator &ps = *psim_;
        const msp::CpuHandles &h = sys_->handles();
        // The live lanes of each context, and the cycle budgets; the
        // lanes of a context that failed (here or on another worker)
        // stop.
        std::fill(ctxLanes_.begin(), ctxLanes_.end(), 0);
        for (uint64_t m = ps.liveMask(); m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            ctxLanes_[lanes_[l].ctx] |= uint64_t(1) << l;
        }
        for (uint32_t k = 0; k < ctxLanes_.size(); ++k) {
            uint64_t lanes = ctxLanes_[k];
            if (!lanes)
                continue;
            uint64_t longest = 0;
            for (uint64_t m = lanes; m; m &= m - 1)
                longest = std::max(
                    longest,
                    lanes_[unsigned(__builtin_ctzll(m))].pathCycles);
            Context &c = sh.contexts[k];
            if (c.failed.load() ||
                !reserveCycles(sh, c,
                               unsigned(__builtin_popcountll(lanes)),
                               longest)) {
                retireContext(sh, k);
                ctxLanes_[k] = 0;
            }
        }
        const uint64_t stepped = ps.liveMask();
        if (!stepped)
            return;

        std::array<StepInputs, PackedSimulator::kLanes> in;
        msp::PackedSystem::LaneWords ports;
        ports.fill(Word16::allX());
        for (uint64_t m = stepped; m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            Path &path = lanes_[l];
            in[l] = takeStepInputs(*sh.ctx(path).scen, path);
            ports[l] = in[l].port;
        }
        ps.step([&](PackedSimulator &s) {
            // driveCycle per lane (retired lanes drop the writes),
            // then runPath's per-path forces narrowed to single lanes.
            laneSys_->driveCycle(s, ports);
            for (uint64_t m = stepped; m; m &= m - 1) {
                unsigned l = unsigned(__builtin_ctzll(m));
                if (in[l].applyRegs)
                    for (const auto &[reg, value] :
                         sh.ctx(lanes_[l]).scen->regInit)
                        s.forceBusLane(h.regs[reg], l,
                                       Word16::known(value));
                if (in[l].forcedPc != kNoForcedPc)
                    s.forceBusLane(
                        h.pc, l, Word16::known(uint16_t(in[l].forcedPc)));
            }
        });
        for (uint32_t k = 0; k < ctxLanes_.size(); ++k) {
            if (!ctxLanes_[k])
                continue;
            uint64_t n = uint64_t(__builtin_popcountll(ctxLanes_[k]));
            ExplorationStats &t = stats_[k];
            ++t.packedSweeps;
            t.packedLaneCycles += n;
            t.totalCycles += n;
        }

        if (cfg_.recordActiveSets) {
            size_t n = base_->netlist().numGates();
            for (GateId g = 0; g < n; ++g)
                if (uint64_t act = ps.activeMask(g) & stepped)
                    for (size_t k = 0; k < ctxLanes_.size(); ++k)
                        if (act & ctxLanes_[k])
                            cand_[k].everActive[g] = 1;
        }

        // The lanes whose PC would load an X at the next edge
        // (runPath's predictSeqValue test, every lane at once), and
        // every lane's PC and, on the first fork, IR in one transpose
        // each. Forks only copy into lanes this loop skips, so the
        // readings hold for the whole loop.
        uint64_t pcNextX = 0;
        for (GateId g : h.pc)
            pcNextX |= ~ps.predictSeqValue(g).k;
        const msp::PackedSystem::LaneWords pcs = ps.readBusLanes(h.pc);
        msp::PackedSystem::LaneWords irs;
        bool irsRead = false;
        uint64_t fresh = 0; // lanes filled by copies in this loop
        for (uint64_t m = stepped; m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            uint64_t lbit = uint64_t(1) << l;
            if (!(ps.liveMask() & lbit) || (fresh & lbit))
                continue; // its context failed, or it holds a new copy
            Path &path = lanes_[l];
            std::vector<double> moduleJ;
            if (cfg_.recordModuleTrace)
                moduleJ = ps.moduleBoundEnergyLaneJ(l);
            bool newPeak = false;
            CycleEnd end = endCycle(
                sh, path,
                {pcs[l], laneSys_->fsmState(ps, l), ps.boundEnergyJ(l),
                 &moduleJ, (laneSys_->xStoreMask() & lbit) != 0,
                 (laneSys_->haltedMask() & lbit) != 0,
                 (pcNextX & lbit) != 0},
                newPeak);
            if (newPeak && cfg_.recordActiveSets) {
                // Ascending gate id, like the scalar activeBits() walk.
                std::vector<uint32_t> &peak = cand_[path.ctx].peakActive;
                peak.clear();
                size_t n = base_->netlist().numGates();
                for (GateId g = 0; g < n; ++g)
                    if (ps.activeMask(g) & lbit)
                        peak.push_back(g);
            }
            if (end == CycleEnd::Continue)
                continue;
            if (end == CycleEnd::Leaf) {
                retireLane(sh, l);
                continue;
            }
            int n = -1;
            std::array<Path, 2> kids;
            if (end == CycleEnd::Fork) {
                if (!irsRead) {
                    irs = ps.readBusLanes(h.ir);
                    irsRead = true;
                }
                n = fork(sh, path, irs[l],
                         sim_->hashState(ps.laneBytes(l), path.simCycle()),
                         laneSys_->memory(l), kids);
            }
            if (n < 0)
                retireContext(sh, path.ctx);
            else
                placeChildren(sh, l, kids, n, fresh);
        }
    }

    SymbolicConfig cfg_;
    unsigned id_;
    Frontier frontier_;
    msp::System *base_;         ///< the caller's System (clone source)
    const isa::Image *image_;
    std::shared_ptr<const std::vector<uint8_t>> pruneMask_;
    uint64_t pruneEngage_ = 0;
    std::unique_ptr<msp::System> owned_;
    msp::System *sys_ = nullptr; ///< null until the clone is built
    std::unique_ptr<Simulator> sim_;
    std::unique_ptr<power::PowerContext> ctx_;
    std::vector<Candidate> cand_; ///< per context
    std::vector<ExplorationStats> stats_; ///< per context
    /// @name Packed-frontier state (null/empty until the frontier
    /// first widens)
    /// @{
    std::unique_ptr<PackedSimulator> psim_;
    std::unique_ptr<msp::PackedSystem> laneSys_;
    /** Lanes carrying a pending path are the simulator's live lanes;
     *  the rest are retired. */
    std::vector<Path> lanes_;
    /** Per context: the lanes a refill loaded with its paths, then
     *  its live lanes in a sweep. */
    std::vector<uint64_t> ctxLanes_;
    /// @}
};

/** The scenario checks an analysis must pass before it explores:
 *  Scenario::validate (the rules the parser applies too, so
 *  programmatic scenarios fail as cleanly), then the RAM constraints
 *  against @p sys's memory map. Empty when @p scen is usable. */
std::string
scenarioError(const scenario::Scenario &scen, const msp::System &sys)
{
    try {
        scen.validate();
    } catch (const std::exception &e) {
        return e.what();
    }
    for (const auto &[addr, words] : scen.ramInit) {
        char range[32];
        std::snprintf(range, sizeof range, "0x%04x", addr);
        if (words.empty())
            return std::string("scenario ram_init at ") + range +
                   " has no words";
        uint32_t last = addr + uint32_t(words.size() - 1) * 2;
        if (!sys.memory().inRam(addr) || !sys.memory().inRam(last))
            return std::string("scenario ram_init range [") + range +
                   ", +" + std::to_string(words.size()) +
                   " words] is outside RAM";
    }
    return {};
}

} // namespace

void
ExplorationStats::addWorker(const ExplorationStats &w)
{
    totalCycles += w.totalCycles;
    pathsExplored += w.pathsExplored;
    dedupMerges += w.dedupMerges;
    steals += w.steals;
    snapshotBytesCopied += w.snapshotBytesCopied;
    snapshotBytesFull += w.snapshotBytesFull;
    perWorkerCycles.push_back(w.totalCycles);
    packedBatches += w.packedBatches;
    packedSweeps += w.packedSweeps;
    packedLaneCycles += w.packedLaneCycles;
    laneLoads += w.laneLoads;
    laneContinues += w.laneContinues;
    laneCopies += w.laneCopies;
    laneExtracts += w.laneExtracts;
    forkCaptures += w.forkCaptures;
}

SymbolicEngine::SymbolicEngine(msp::System &sys,
                               const SymbolicConfig &cfg)
    : sys_(&sys), cfg_(cfg)
{
}

SymbolicResult
SymbolicEngine::run(const isa::Image &image)
{
    return explore(image, {cfg_.scenario}).front();
}

std::vector<SymbolicResult>
SymbolicEngine::run(const isa::Image &image,
                    const std::vector<scenario::Scenario> &scenarios)
{
    if (scenarios.size() == 1)
        return explore(image, scenarios);
    // A static-prune mask is proved for one scenario, so pruned
    // analyses never share a run (the default results read as failed
    // and run alone below).
    std::vector<SymbolicResult> res =
        cfg_.staticPrune ? std::vector<SymbolicResult>(scenarios.size())
                         : explore(image, scenarios);
    // A failed analysis reports how far it got (cycles, paths and
    // merges up to the failing step), which depends on the order its
    // paths ran in, and its siblings change that order: run it alone,
    // exactly as ungrouped.
    for (size_t k = 0; k < res.size(); ++k)
        if (!res[k].ok)
            res[k] = std::move(explore(image, {scenarios[k]}).front());
    return res;
}

std::vector<SymbolicResult>
SymbolicEngine::explore(const isa::Image &image,
                        const std::vector<scenario::Scenario> &scenarios)
{
    const size_t K = scenarios.size();
    std::vector<SymbolicResult> results(K);
    const Netlist &nl = sys_->netlist();

    unsigned numWorkers = cfg_.numThreads > 1 ? cfg_.numThreads : 1;
    if (numWorkers > 1) {
        // More exploration threads than cores adds no parallelism and
        // burns time in the steal loop (results are identical at any
        // worker count, so clamping only changes the scheduling
        // statistics). Never clamp below 2: the concurrent paths stay
        // exercised even on single-core hosts.
        unsigned hw = std::thread::hardware_concurrency();
        if (hw && numWorkers > hw)
            numWorkers = std::max(2u, hw);
    }

    // Scenario consistency first: worker construction resolves mode
    // voltages against the library, so a broken schedule must never
    // get there. An analysis with an unusable scenario fails alone.
    SharedState sh;
    sh.contexts.resize(K);
    size_t usable = 0;
    for (size_t k = 0; k < K; ++k) {
        Context &c = sh.contexts[k];
        c.scen = &scenarios[k];
        c.tree = &results[k].tree;
        results[k].error = scenarioError(scenarios[k], *sys_);
        if (!results[k].error.empty()) {
            c.failed = true;
            ++sh.failedContexts;
            continue;
        }
        c.modes = scenarios[k].phasePricing(nl.library(), cfg_.freqHz);
        ++usable;
    }
    if (!usable)
        return results;

    // The frontier: the worker's own choice unless a reference is
    // forced (sym/testing.hh, or packedExplore's all-lanes reference).
    Frontier frontier = testing::forcedFrontier();
    if (frontier == Frontier::Auto && cfg_.packedExplore)
        frontier = Frontier::Packed;

    // Static quiescence: prove gates constant under the scenario (one:
    // SymbolicEngine::run never groups pruned analyses) and let every
    // worker simulator skip them once settled. The engage cycle is the
    // settle bound relative to the end of reset: one cycle for the
    // depth-0 combinational cones plus one per sequential stage the
    // deepest pruned proof crosses. Bit-identity of all reported
    // numbers with the unpruned analysis is enforced by fuzz
    // property 9.
    std::shared_ptr<const std::vector<uint8_t>> pruneMask;
    uint64_t pruneEngage = 0;
    if (cfg_.staticPrune) {
        lint::ConstAnalysis ca =
            lint::analyzeConstants(*sys_, scenarios.front());
        pruneMask = std::make_shared<const std::vector<uint8_t>>(
            std::move(ca.pruneMask));
        pruneEngage =
            kRootCycle + 1 + ca.maxPruneDepth + testing::pruneDelay();
    }

    // Algorithm 1 lines 2-5: everything X, load binary, reset. Worker
    // 0 wraps the caller's System; extra workers build clones on
    // their first steal.
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(numWorkers);
    try {
        for (unsigned i = 0; i < numWorkers; ++i)
            workers.push_back(std::make_unique<Worker>(
                *sys_, cfg_, image, i, frontier, K, pruneMask,
                pruneEngage));
    } catch (const std::exception &e) {
        for (SymbolicResult &r : results)
            if (r.error.empty())
                r.error = std::string("worker setup failed: ") + e.what();
        return results;
    }
    sys_->reset(workers[0]->sim());
    if (workers[0]->sim().cycle() != kRootCycle)
        throw std::logic_error("reset did not end at kRootCycle");

    sh.queues.resize(numWorkers);

    // One root path per analysis, all from the one reset state; the
    // scenario's initial-memory constraints go into its root memory,
    // so every path of the analysis inherits them.
    const std::shared_ptr<const Simulator::DeltaSnapshot> rootSim =
        ownBase(workers[0]->sim().snapshot());
    const msp::System::Snapshot resetSys = sys_->snapshot();
    for (size_t k = 0; k < K; ++k) {
        Context &c = sh.contexts[k];
        if (c.failed)
            continue;
        sys_->restore(resetSys);
        for (const auto &[addr, words] : c.scen->ramInit)
            sys_->memory().loadRam(addr, words);
        Pending p;
        p.sim = rootSim;
        p.sysSnap =
            std::make_shared<const msp::System::Snapshot>(sys_->snapshot());
        p.path.base = rootSim->base;
        p.path.ctx = uint32_t(k);
        p.path.node = c.tree->newNode(kNoNode);
        p.path.nodePtr = &c.tree->node(p.path.node);
        p.path.applyInit = !c.scen->regInit.empty();
        sh.push(0, std::move(p));
    }

    // Worker 0 explores on the calling thread; the others sleep
    // until a deque holds a surplus batch.
    std::vector<std::thread> pool;
    pool.reserve(numWorkers - 1);
    for (unsigned i = 1; i < numWorkers; ++i) {
        Worker *w = workers[i].get();
        pool.emplace_back([&sh, w] { w->explore(sh); });
    }
    workers[0]->explore(sh);
    for (auto &t : pool)
        t.join();

    for (size_t k = 0; k < K; ++k) {
        Context &c = sh.contexts[k];
        SymbolicResult &res = results[k];
        if (!res.error.empty())
            continue; // never explored
        res.perWorkerCycles.reserve(numWorkers);
        for (auto &w : workers)
            res.addWorker(w->stats(k));

        if (c.failed) {
            res.error = c.error;
            continue;
        }

        // Deterministic merge: candidates are ordered by (power, then
        // canonical node key / cycle on exact ties), so the winning
        // cycle -- including its recorded active set -- is the same
        // logical cycle under any work partition or thread
        // scheduling.
        if (cfg_.recordActiveSets)
            res.everActive.assign(nl.numGates(), 0);
        const Worker::Candidate *best = nullptr;
        for (auto &w : workers) {
            const Worker::Candidate &cand = w->candidate(k);
            if (cand.peakPowerW > 0.0 &&
                (!best || best->better(cand.peakPowerW, cand.peakNodeKey,
                                       cand.peakCycleInNode)))
                best = &cand;
            if (cfg_.recordActiveSets)
                for (size_t g = 0; g < cand.everActive.size(); ++g)
                    res.everActive[g] |= cand.everActive[g];
        }
        if (best) {
            res.peakPowerW = best->peakPowerW;
            res.peakNode = best->peakNode;
            res.peakCycleInNode = best->peakCycleInNode;
            res.peakActive = best->peakActive;
        }

        // ---- Section 3.3: peak energy over the tree ----
        // Each phase's cycle lasts one period of its mode's clock.
        std::vector<double> tclk;
        for (const auto &mode : c.modes)
            tclk.push_back(1.0 / mode.second);
        try {
            PathEnergy pe = res.tree.maxPathEnergy(
                tclk, cfg_.inputDependentLoopBound);
            res.peakEnergyJ = pe.energyJ;
            res.maxPathCycles = pe.cycles;
            res.npeJPerCycle =
                pe.cycles ? pe.energyJ / double(pe.cycles) : 0.0;
            // ---- Per-cycle peak power envelope over the tree ----
            // Computed from the tree rather than max-merged inside
            // the workers: a dedup race can hang the same logical
            // node under either racing parent, and only the tree walk
            // sees both resulting offsets -- worker-local merges
            // would be scheduling-dependent exactly there.
            if (cfg_.recordEnvelope)
                res.envelopeW = res.tree.envelopePowerW(
                    cfg_.inputDependentLoopBound);
        } catch (const std::exception &e) {
            res.error = e.what();
            continue;
        }
        res.ok = true;
    }
    return results;
}

} // namespace sym
} // namespace ulpeak
