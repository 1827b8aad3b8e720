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
#include "power/packed_run.hh"

namespace ulpeak {
namespace sym {

namespace {

constexpr uint32_t kNoForcedPc = UINT32_MAX;

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

/** Structural identity of a netlist (kinds + CSR fanins): snapshots
 * transfer between Systems only when this matches. */
uint64_t
netlistStructureHash(const Netlist &nl)
{
    const FlatNetlist &f = nl.flat();
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t x) {
        h ^= x;
        h *= 0x100000001b3ull;
    };
    for (CellKind k : f.kind)
        mix(uint64_t(k));
    for (GateId g : f.fanin)
        mix(g);
    return h;
}

/** One un-processed execution path (Algorithm 1's stack U entry).
 * The simulator state is either a full snapshot or a delta against a
 * shared base (both immutable and shared between sibling entries);
 * the node pointer is pre-resolved under the tree lock so workers
 * never touch the tree container concurrently. */
struct Pending {
    std::shared_ptr<const Simulator::Snapshot> simFull;
    std::shared_ptr<const Simulator::DeltaSnapshot> simDelta;
    std::shared_ptr<const msp::System::Snapshot> sysSnap;
    uint32_t node = 0;
    TreeNode *nodePtr = nullptr;
    uint64_t nodeKey = 0;  ///< dedup key that created the node (0: root)
    uint32_t forcedPc = kNoForcedPc; ///< PC constraint on the next step
    uint32_t lastKnownPc = 0; ///< last concrete PC value on this path
    uint32_t curInstrAddr = 0; ///< instruction in execute/mem (COI)
    uint64_t pathCycles = 0;
    bool applyInit = false; ///< root only: scenario register forces
};

/**
 * State shared by all exploration workers. Three independent lock
 * domains replace the old single engine mutex:
 *
 *  - the visited-state dedup map is sharded by key hash (shards[]),
 *    so two workers forking at the same time only contend when their
 *    keys land in the same shard;
 *  - tree-node allocation takes treeMu; everything else about a node
 *    (its trace, its edges) is written lock-free through the stable
 *    TreeNode pointer by the one worker that owns the node;
 *  - each worker owns a work deque (queues[]) with a private mutex:
 *    the owner pushes/pops at the back (depth-first, cache-warm),
 *    thieves take from the front (the oldest entry, closest to the
 *    root, statistically the largest unexplored subtree).
 *
 * Idle workers sleep on idleCv; inflight counts queued + running
 * paths and reaching zero is the termination condition.
 */
struct SharedState {
    struct Shard {
        std::mutex mu;
        std::unordered_map<uint64_t, uint32_t> visited;
    };
    std::array<Shard, kDedupShards> shards;

    std::mutex treeMu; ///< node allocation (and maxNodes accounting)
    ExecTree *tree = nullptr;

    struct WorkerQueue {
        std::mutex mu;
        std::deque<Pending> q;
    };
    std::deque<WorkerQueue> queues; ///< deque: mutexes never move

    std::mutex idleMu;
    std::condition_variable idleCv;
    std::atomic<uint32_t> queued{0};   ///< entries sitting in queues
    std::atomic<uint32_t> inflight{0}; ///< queued + running paths

    /// @name Statistics (atomic: many writers)
    /// @{
    std::atomic<uint64_t> totalCycles{0};
    std::atomic<uint32_t> pathsExplored{0};
    std::atomic<uint32_t> dedupMerges{0};
    std::atomic<uint32_t> steals{0};
    std::atomic<uint64_t> snapshotBytesCopied{0};
    std::atomic<uint64_t> snapshotBytesFull{0};
    std::atomic<uint64_t> packedBatches{0};
    std::atomic<uint64_t> packedSweeps{0};
    std::atomic<uint64_t> packedLaneCycles{0};
    /// @}

    std::atomic<bool> failed{false};
    std::mutex errMu;
    std::string error;

    static unsigned
    shardOf(uint64_t key)
    {
        // High multiplicative bits: the low bits feed the map's own
        // bucket index, so reusing them would correlate the two.
        return unsigned((key * 0x9e3779b97f4a7c15ull) >> 58) &
               (kDedupShards - 1);
    }

    void
    fail(const std::string &msg)
    {
        {
            std::lock_guard<std::mutex> lock(errMu);
            if (!failed.exchange(true))
                error = msg;
        }
        std::lock_guard<std::mutex> lock(idleMu);
        idleCv.notify_all();
    }

    /** Enqueue @p p on @p worker's deque and wake one sleeper. */
    void
    push(unsigned worker, Pending &&p)
    {
        inflight.fetch_add(1, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lock(queues[worker].mu);
            queues[worker].q.push_back(std::move(p));
        }
        queued.fetch_add(1, std::memory_order_release);
        if (queues.size() > 1) {
            std::lock_guard<std::mutex> lock(idleMu);
            idleCv.notify_one();
        }
    }

    bool
    popOwn(unsigned worker, Pending &out)
    {
        std::lock_guard<std::mutex> lock(queues[worker].mu);
        if (queues[worker].q.empty())
            return false;
        out = std::move(queues[worker].q.back());
        queues[worker].q.pop_back();
        queued.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }

    bool
    stealFrom(unsigned thief, Pending &out)
    {
        unsigned n = unsigned(queues.size());
        for (unsigned i = 1; i < n; ++i) {
            unsigned victim = (thief + i) % n;
            std::lock_guard<std::mutex> lock(queues[victim].mu);
            if (queues[victim].q.empty())
                continue;
            out = std::move(queues[victim].q.front());
            queues[victim].q.pop_front();
            queued.fetch_sub(1, std::memory_order_relaxed);
            steals.fetch_add(1, std::memory_order_relaxed);
            return true;
        }
        return false;
    }
};

/**
 * One exploration worker: a simulator (plus, for workers beyond the
 * first, a private System clone) that pops pending paths, simulates
 * them to the next fork or leaf, and commits traces to the tree
 * through the nodes it owns. Peak candidates and activity sets are
 * tracked locally and merged after the pool drains.
 */
class Worker {
  public:
    Worker(msp::System &base, const SymbolicConfig &cfg,
           const isa::Image &image, unsigned id, bool owns_clone)
        : cfg_(cfg), id_(id)
    {
        if (owns_clone) {
            owned_ = std::make_unique<msp::System>(
                base.netlist().library());
            sys_ = owned_.get();
            if (netlistStructureHash(sys_->netlist()) !=
                netlistStructureHash(base.netlist()))
                throw std::logic_error(
                    "nondeterministic netlist elaboration: worker "
                    "clone differs structurally from the base "
                    "system");
        } else {
            sys_ = &base;
        }
        sys_->memory().reset();
        sys_->loadImage(image);
        sys_->clearHalted();
        sim_ = std::make_unique<Simulator>(sys_->netlist(),
                                           cfg.evalMode);
        sys_->attach(*sim_);
        ctx_ = std::make_unique<power::PowerContext>(sys_->netlist(),
                                                     cfg_.freqHz);
        if (cfg_.scenario.hasModes()) {
            // One (energy scale, clock) pair per schedule phase,
            // resolved once against the library the netlist was
            // built with (identical across worker clones).
            const CellLibrary &lib = sys_->netlist().library();
            const scenario::Scenario &scen = cfg_.scenario;
            for (uint64_t ph = 0; ph < scen.modePeriod(); ++ph) {
                const scenario::OperatingMode &m = scen.modeAt(ph);
                modeFactors_.emplace_back(lib.energyScale(m.vdd),
                                          m.freqHz);
            }
        }
        if (cfg_.recordActiveSets)
            everActive_.assign(sys_->netlist().numGates(), 0);
        if (cfg_.packedExplore) {
            psim_ = std::make_unique<PackedSimulator>(
                sys_->netlist());
            // Per-lane behavioral memory; contents are overwritten at
            // every lane load, but the ROM image (not part of memory
            // snapshots) must already be in the copies.
            laneMem_.assign(PackedSimulator::kLanes, sys_->memory());
            psim_->setHookFn(
                sys_->handles().memHookId,
                PackedFnRef::member<&Worker::packedMemHook>(*this));
            psim_->addEdgeFn(
                PackedFnRef::member<&Worker::packedMemEdge>(*this));
            // Prime one sweep: edge functions only run when
            // cycle() > 0, and a loaded lane's first step must run
            // them against the loaded state exactly like the scalar
            // restore-then-step sequence. The priming sweep itself is
            // inert -- every lane is all-X (the memory hook sees an X
            // enable and returns X data without billing). Then every
            // lane retires until a pending path is loaded into it.
            psim_->step();
            psim_->retireLanes(~uint64_t(0));
            lanes_.resize(PackedSimulator::kLanes);
        }
    }

    msp::System &sys() { return *sys_; }
    Simulator &sim() { return *sim_; }

    /** Pop/steal-simulate-commit until all work drains or fails. */
    void
    explore(SharedState &sh)
    {
        if (cfg_.packedExplore) {
            explorePacked(sh);
            return;
        }
        for (;;) {
            if (sh.failed.load())
                break;
            Pending p;
            bool got = sh.popOwn(id_, p);
            if (!got && sh.queues.size() > 1) {
                got = sh.stealFrom(id_, p);
                // Back off after a failed steal sweep: when workers
                // outnumber cores, re-spinning over the victims'
                // mutexes starves the owners mid-push.
                if (!got)
                    std::this_thread::yield();
            }
            if (got) {
                sh.pathsExplored.fetch_add(
                    1, std::memory_order_relaxed);
                // Exceptions must not escape a worker thread (that
                // would terminate the process); convert them into
                // the engine's normal failure reporting.
                try {
                    runPath(sh, std::move(p));
                } catch (const std::exception &e) {
                    sh.fail(std::string("worker exception: ") +
                            e.what());
                }
                if (sh.inflight.fetch_sub(1) == 1) {
                    std::lock_guard<std::mutex> lock(sh.idleMu);
                    sh.idleCv.notify_all();
                }
                continue;
            }
            std::unique_lock<std::mutex> lock(sh.idleMu);
            sh.idleCv.wait(lock, [&] {
                return sh.failed.load() || sh.inflight.load() == 0 ||
                       sh.queued.load(std::memory_order_acquire) > 0;
            });
            if (sh.failed.load() || sh.inflight.load() == 0)
                break;
        }
        std::lock_guard<std::mutex> lock(sh.idleMu);
        sh.idleCv.notify_all();
    }

    /// @name Locally-merged results
    /// @{
    double peakPowerW = 0.0;
    uint32_t peakNode = 0;
    uint32_t peakCycleInNode = 0;
    /** Canonical identity of the peak candidate for tie-breaking:
     * (node dedup key, cycle index). Node keys are
     * partition-independent, unlike node ids, so exact power ties
     * resolve to the same logical cycle under any scheduling. */
    uint64_t peakNodeKey = 0;
    std::vector<uint32_t> peakActive;
    std::vector<uint8_t> everActive_;
    uint64_t cyclesRun = 0; ///< cycles this worker simulated

    /** Strict-weak "better candidate" order used both within a worker
     * and for the final cross-worker merge. */
    bool
    betterCandidate(double w, uint64_t node_key, uint32_t cycle) const
    {
        if (w != peakPowerW)
            return w > peakPowerW;
        if (peakPowerW == 0.0)
            return false; // no candidate yet is only beaten by w > 0
        if (node_key != peakNodeKey)
            return node_key < peakNodeKey;
        return cycle < peakCycleInNode;
    }
    /// @}

  private:
    /** Capture the current simulator state for a fork: a delta
     * against @p base, promoted to a fresh full snapshot when the
     * path has diverged too far (or always, in Full mode). The
     * choice is a pure function of path state, so every scheduling
     * captures the same representations and the byte statistics are
     * deterministic. */
    void
    captureSim(SharedState &sh,
               const std::shared_ptr<const Simulator::Snapshot> &base,
               std::shared_ptr<const Simulator::Snapshot> &out_full,
               std::shared_ptr<const Simulator::DeltaSnapshot>
                   &out_delta) const
    {
        size_t full_bytes = Simulator::bytesOf(*base);
        sh.snapshotBytesFull.fetch_add(full_bytes,
                                       std::memory_order_relaxed);
        if (cfg_.snapshotMode == SnapshotMode::Delta) {
            Simulator::DeltaSnapshot d = sim_->snapshotDelta(base);
            if (d.deltaBytes() * kDeltaPromoteDen <=
                full_bytes * kDeltaPromoteNum) {
                sh.snapshotBytesCopied.fetch_add(
                    d.deltaBytes(), std::memory_order_relaxed);
                out_delta = std::make_shared<
                    const Simulator::DeltaSnapshot>(std::move(d));
                return;
            }
        }
        sh.snapshotBytesCopied.fetch_add(full_bytes,
                                         std::memory_order_relaxed);
        out_full = std::make_shared<const Simulator::Snapshot>(
            sim_->snapshot());
    }

    // Dedup keys are full-simulator-state + memory + schedule-phase
    // + fork-target hashes (built inline at the fork): hashing the
    // complete state, not just the architectural state, guarantees
    // that when two racing paths map to one key their continuations
    // are identical -- so the merged node's trace, and every number
    // derived from it, is independent of which path claimed the key.
    // The scenario schedule phase participates because under a
    // scheduled scenario the same state continues differently at
    // different points of the period.
    void
    runPath(SharedState &sh, Pending p)
    {
        msp::System &sys = *sys_;
        Simulator &sim = *sim_;
        const msp::CpuHandles &h = sys.handles();
        power::PowerContext &ctx = *ctx_;
        const scenario::Scenario &scen = cfg_.scenario;

        std::shared_ptr<const Simulator::Snapshot> base;
        if (p.simDelta) {
            sim.restore(*p.simDelta);
            base = p.simDelta->base;
        } else {
            sim.restore(*p.simFull);
            base = p.simFull;
        }
        sys.restore(*p.sysSnap);

        uint32_t nodeId = p.node;
        TreeNode *nodePtr = p.nodePtr;
        uint64_t nodeKey = p.nodeKey;
        uint32_t forcedPc = p.forcedPc;
        uint32_t lastPc = p.lastKnownPc;
        uint32_t curInstr = p.curInstrAddr;
        uint64_t pathCycles = p.pathCycles;
        bool applyInit = p.applyInit;

        // Per-cycle data is buffered locally and committed to the
        // owned tree node at the fork/leaf boundary.
        std::vector<float> powerW;
        std::vector<std::vector<float>> modulePowerW;
        std::vector<CycleInfo> cycleInfo;

        auto commitNode = [&](bool ends_halted) {
            nodePtr->powerW = std::move(powerW);
            nodePtr->modulePowerW = std::move(modulePowerW);
            nodePtr->cycleInfo = std::move(cycleInfo);
            nodePtr->endsHalted = ends_halted;
        };

        while (true) {
            if (sh.failed.load())
                return;
            if (sh.totalCycles.load(std::memory_order_relaxed) >=
                cfg_.maxTotalCycles) {
                sh.fail("symbolic cycle budget exhausted");
                return;
            }
            if (pathCycles >= cfg_.maxPathCycles) {
                sh.fail("path exceeded maxPathCycles (missing "
                        "halt or unbounded loop?)");
                return;
            }

            uint32_t applyPc = forcedPc;
            forcedPc = kNoForcedPc;
            bool applyRegs = applyInit;
            applyInit = false;
            // The post-reset index of the cycle this step simulates
            // (pathCycles increments right after), which selects the
            // operating mode the cycle's power is computed at.
            uint64_t cycleIdx = pathCycles;
            sim.step([&](Simulator &s) {
                // Algorithm 1 line 11, generalized: the scenario
                // says which port bits are X this cycle.
                sys.driveCycle(s, scen.portWordAt(pathCycles));
                if (applyRegs) {
                    // Scenario initial-register constraints: narrow
                    // the boot-X registers once, right after reset,
                    // the same way forks narrow the PC.
                    for (const auto &[reg, value] : scen.regInit)
                        s.forceBus(h.regs[reg],
                                   Word16::known(value));
                }
                if (applyPc != kNoForcedPc) {
                    // Algorithm 1's update_PC_next: constrain only the
                    // PC flops, right after the edge, before fetch
                    // logic evaluates.
                    s.forceBus(h.pc, Word16::known(uint16_t(applyPc)));
                }
            });
            sh.totalCycles.fetch_add(1, std::memory_order_relaxed);
            ++cyclesRun;
            ++pathCycles;

            Word16 pcNow = sys.readPc(sim);
            if (pcNow.isFullyKnown()) {
                lastPc = pcNow.value;
            } else {
                sh.fail("PC became X without fork interception");
                return;
            }
            int fsm = sys.fsmState(sim);
            if (fsm == msp::kStFetch)
                curInstr = lastPc; // the word under fetch

            // ---- Per-cycle Algorithm 2 assignment ----
            // Under an operating-mode schedule the cycle's energy is
            // scaled by its mode's (vdd/vdd_lib)^2 and its power uses
            // the mode's clock; otherwise the classic fixed-point
            // path (bit-identical: no extra arithmetic).
            double w;
            double modeScale = 1.0, modeFreq = ctx.freqHz();
            if (modeFactors_.empty()) {
                w = ctx.cycleBoundPowerW(sim);
            } else {
                const std::pair<double, double> &mf = modeFactors_
                    [size_t(cycleIdx % modeFactors_.size())];
                modeScale = mf.first;
                modeFreq = mf.second;
                w = ctx.cycleBoundPowerW(sim, modeScale, modeFreq);
            }
            powerW.push_back(float(w));
            if (cfg_.recordModuleTrace) {
                std::vector<double> mod = ctx.cycleModulePowerW(sim);
                if (!modeFactors_.empty()) {
                    // Same rescaling per module: (sw_m + static_m)
                    // * scale * f_mode, expressed as a ratio against
                    // the reference-clock value.
                    double ratio =
                        modeScale * (modeFreq / ctx.freqHz());
                    for (double &m : mod)
                        m *= ratio;
                }
                modulePowerW.emplace_back(mod.begin(), mod.end());
                CycleInfo info;
                info.instrPc = curInstr;
                info.fsmState = uint8_t(fsm < 0 ? 255 : fsm);
                cycleInfo.push_back(info);
            }
            if (cfg_.recordActiveSets) {
                for (GateId g : sim.activeGates())
                    everActive_[g] = 1;
            }
            uint32_t cyc = uint32_t(powerW.size() - 1);
            if (betterCandidate(w, nodeKey, cyc)) {
                peakPowerW = w;
                peakNode = nodeId;
                peakCycleInNode = cyc;
                peakNodeKey = nodeKey;
                if (cfg_.recordActiveSets)
                    peakActive.assign(sim.activeGates().begin(),
                                      sim.activeGates().end());
            }

            if (sys.xStoreFault()) {
                sh.fail("store with unknown address or enable "
                        "(X-store); see DESIGN.md section 5");
                return;
            }

            if (sys.halted()) {
                commitNode(true); // leaf: end of this execution path
                return;
            }
            if (fsm == msp::kStHalt) {
                sh.fail("core trapped (invalid instruction) at "
                        "pc~0x" + std::to_string(lastPc));
                return;
            }

            // ---- Algorithm 1 line 17: will PC_next be X? ----
            bool pcNextX = false;
            for (GateId g : h.pc) {
                if (sim.predictSeqValue(g) == V4::X) {
                    pcNextX = true;
                    break;
                }
            }
            if (!pcNextX)
                continue;

            // Resolve feasible targets from the (concrete) IR.
            Word16 ir = sys.readIr(sim);
            if (!ir.isFullyKnown()) {
                sh.fail("X program counter with unknown IR");
                return;
            }
            isa::Decoded dec = isa::decode(ir.value, 0, 0);
            if (!dec.valid || !isa::isJump(dec.instr.op)) {
                sh.fail("unresolvable X program counter (op " +
                        std::string(isa::opName(dec.instr.op)) +
                        "): indirect jump through unknown data");
                return;
            }

            // At EXEC of a jump the PC holds the fall-through address.
            uint32_t fallThrough = lastPc;
            uint32_t taken =
                (lastPc +
                 uint32_t(int32_t(dec.instr.jumpOffsetWords) * 2)) &
                0xffff;
            uint32_t targets[2] = {taken, fallThrough};
            unsigned numTargets = taken == fallThrough ? 1 : 2;

            // Hash keys and capture the fork state before touching
            // any shared structure: both read only worker-local
            // state, and they are the heavy part of a fork. The
            // state is hashed once (target and schedule phase enter
            // via final mixes) and the snapshots are shared by both
            // child Pendings.
            uint64_t keyBase = sim.hashFullState();
            sys.memory().hashInto(keyBase);
            keyBase ^= 0xda942042e4dd58b5ull *
                       (scen.dedupPhase(pathCycles) + 1);
            uint64_t keys[2];
            for (unsigned t = 0; t < numTargets; ++t)
                keys[t] = keyBase ^ 0x9e3779b97f4a7c15ull *
                                        (uint64_t(targets[t]) + 1);
            std::shared_ptr<const Simulator::Snapshot> childFull;
            std::shared_ptr<const Simulator::DeltaSnapshot> childDelta;
            captureSim(sh, base, childFull, childDelta);
            auto sysSnap =
                std::make_shared<const msp::System::Snapshot>(
                    sys.snapshot());

            // Commit this node's trace (we own it; no lock), then
            // resolve each target against the sharded dedup map.
            nodePtr->branchPc = (lastPc - 2) & 0xffff;
            commitNode(false);
            resolveFork(sh, nodePtr, nodeId, targets, keys,
                        numTargets, childFull, childDelta, sysSnap,
                        lastPc, curInstr, pathCycles);
            return; // continuations live on the work queues
        }
    }

    /** Resolve fork targets against the sharded dedup map, link
     * edges from @p nodePtr, and enqueue new children on this
     * worker's deque -- the tail shared by the scalar and packed
     * forks, so the key -> node semantics cannot diverge. Returns
     * false when the node budget failed the engine. */
    bool
    resolveFork(
        SharedState &sh, TreeNode *nodePtr, uint32_t nodeId,
        const uint32_t *targets, const uint64_t *keys,
        unsigned numTargets,
        const std::shared_ptr<const Simulator::Snapshot> &childFull,
        const std::shared_ptr<const Simulator::DeltaSnapshot>
            &childDelta,
        const std::shared_ptr<const msp::System::Snapshot> &sysSnap,
        uint32_t lastPc, uint32_t curInstr, uint64_t pathCycles)
    {
        for (unsigned t = 0; t < numTargets; ++t) {
            uint64_t key = keys[t];
            SharedState::Shard &shard =
                sh.shards[SharedState::shardOf(key)];
            uint32_t child = kNoNode;
            TreeNode *childPtr = nullptr;
            {
                std::lock_guard<std::mutex> lock(shard.mu);
                auto it = shard.visited.find(key);
                if (it != shard.visited.end()) {
                    // Algorithm 1 line 19: already simulated (or
                    // claimed by a racing worker, which will
                    // simulate the identical continuation); merge.
                    nodePtr->edges.push_back(
                        TreeEdge{targets[t], it->second, true});
                    sh.dedupMerges.fetch_add(
                        1, std::memory_order_relaxed);
                    continue;
                }
                // New state: allocate its node while holding the
                // shard (lock order: shard -> tree, never the
                // reverse), so a racing twin either sees our map
                // entry or blocks until it does.
                {
                    std::lock_guard<std::mutex> tlock(sh.treeMu);
                    if (sh.tree->numNodes() >= cfg_.maxNodes) {
                        sh.fail("execution tree node budget "
                                "exhausted");
                        return false;
                    }
                    child = sh.tree->newNode(nodeId);
                    childPtr = &sh.tree->node(child);
                }
                shard.visited.emplace(key, child);
            }
            nodePtr->edges.push_back(
                TreeEdge{targets[t], child, false});
            Pending next;
            next.simFull = childFull;
            next.simDelta = childDelta;
            next.sysSnap = sysSnap;
            next.node = child;
            next.nodePtr = childPtr;
            next.nodeKey = key;
            next.forcedPc = targets[t];
            next.lastKnownPc = lastPc;
            next.curInstrAddr = curInstr;
            next.pathCycles = pathCycles;
            sh.push(id_, std::move(next));
        }
        return true;
    }

    // ---- Packed frontier (SymbolicConfig::packedExplore) ----
    //
    // Up to 64 pending paths ride the PackedSimulator's lanes at
    // once: a lane is loaded from a Pending's (delta or full)
    // snapshot, advanced by the shared level-bucketed sweep until it
    // reaches its own fork / halt / failure boundary, then transposed
    // back to a scalar snapshot for the exact same dedup, capture and
    // commit path runPath takes. The lane-identity invariant of the
    // packed kernel makes every per-lane byte -- values, activity,
    // energies, and therefore hashes, keys, traces and snapshots --
    // equal to the scalar run's, which is the whole bit-identity
    // argument: same keys => same node set, edges and merge counts;
    // same traces => same peak/energy/NPE/envelope; same snapshot
    // bytes => same byte statistics. Only scheduling statistics
    // (steals, batch/occupancy counters, per-worker cycles) differ.

    /** One lane's in-flight continuation (the live part of a
     *  Pending, plus the path-local trace buffers of runPath). */
    struct Lane {
        bool applyInit = false;
        uint32_t node = 0;
        TreeNode *nodePtr = nullptr;
        uint64_t nodeKey = 0;
        uint32_t forcedPc = kNoForcedPc;
        uint32_t lastPc = 0;
        uint32_t curInstr = 0;
        uint64_t pathCycles = 0;
        /** Absolute simulator cycle of the lane (the scalar sim's
         *  cycle() after restore + steps); stamps extracted
         *  snapshots so prune engagement and deltas line up. */
        uint64_t absCycle = 0;
        /** Snapshot base the lane restored from (delta denominator
         *  and diff base for this lane's own fork captures). */
        std::shared_ptr<const Simulator::Snapshot> base;
        std::vector<float> powerW;
        std::vector<std::vector<float>> modulePowerW;
        std::vector<CycleInfo> cycleInfo;
    };

    /** explore()'s pop/steal/idle protocol with up to 64 paths in
     *  flight at once. */
    void
    explorePacked(SharedState &sh)
    {
        for (;;) {
            if (sh.failed.load())
                break;
            // Refill every free lane while work is available; steals
            // fill lanes the own deque cannot.
            unsigned loadedNow = 0;
            uint64_t freeMask = ~psim_->liveMask();
            while (freeMask) {
                unsigned l = unsigned(__builtin_ctzll(freeMask));
                Pending p;
                bool got = sh.popOwn(id_, p);
                if (!got && sh.queues.size() > 1)
                    got = sh.stealFrom(id_, p);
                if (!got)
                    break;
                freeMask &= freeMask - 1;
                sh.pathsExplored.fetch_add(
                    1, std::memory_order_relaxed);
                loadLane(l, std::move(p));
                ++loadedNow;
            }
            if (loadedNow)
                sh.packedBatches.fetch_add(
                    1, std::memory_order_relaxed);
            if (psim_->liveMask()) {
                // Exceptions must not escape the worker thread (see
                // explore()).
                try {
                    stepBatch(sh);
                } catch (const std::exception &e) {
                    sh.fail(std::string("worker exception: ") +
                            e.what());
                }
                continue;
            }
            std::unique_lock<std::mutex> lock(sh.idleMu);
            sh.idleCv.wait(lock, [&] {
                return sh.failed.load() ||
                       sh.inflight.load() == 0 ||
                       sh.queued.load(std::memory_order_acquire) > 0;
            });
            if (sh.failed.load() || sh.inflight.load() == 0)
                break;
        }
        std::lock_guard<std::mutex> lock(sh.idleMu);
        sh.idleCv.notify_all();
    }

    /** Install @p p into lane @p l -- the packed counterpart of
     *  runPath's restore prologue. */
    void
    loadLane(unsigned l, Pending p)
    {
        Lane &L = lanes_[l];
        if (p.simDelta) {
            Simulator::Snapshot snap =
                Simulator::materialize(*p.simDelta);
            psim_->loadLaneState(l, snap);
            L.absCycle = snap.cycle;
            L.base = p.simDelta->base;
        } else {
            psim_->loadLaneState(l, *p.simFull);
            L.absCycle = p.simFull->cycle;
            L.base = p.simFull;
        }
        laneMem_[l].restore(p.sysSnap->mem);
        // Pending paths are never halted or faulted (either would
        // have ended the parent as a leaf / failure, not a fork).
        uint64_t bit = uint64_t(1) << l;
        haltedMask_ &= ~bit;
        faultMask_ &= ~bit;
        L.applyInit = p.applyInit;
        L.node = p.node;
        L.nodePtr = p.nodePtr;
        L.nodeKey = p.nodeKey;
        L.forcedPc = p.forcedPc;
        L.lastPc = p.lastKnownPc;
        L.curInstr = p.curInstrAddr;
        L.pathCycles = p.pathCycles;
        L.powerW.clear();
        L.modulePowerW.clear();
        L.cycleInfo.clear();
    }

    void
    commitLane(Lane &L, bool ends_halted)
    {
        L.nodePtr->powerW = std::move(L.powerW);
        L.nodePtr->modulePowerW = std::move(L.modulePowerW);
        L.nodePtr->cycleInfo = std::move(L.cycleInfo);
        L.nodePtr->endsHalted = ends_halted;
    }

    /** Free lane @p l and account its path as done (the per-path
     *  inflight decrement of explore()). */
    void
    retireLane(SharedState &sh, unsigned l)
    {
        lanes_[l].base.reset();
        psim_->retireLanes(uint64_t(1) << l);
        if (sh.inflight.fetch_sub(1) == 1) {
            std::lock_guard<std::mutex> lock(sh.idleMu);
            sh.idleCv.notify_all();
        }
    }

    /** The packed simulator's memory hook and edge (registered as
     *  direct calls). Retired lanes -- those not carrying a pending
     *  path -- are skipped by both: their scalar counterparts are not
     *  stepping here, so nothing may commit. */
    void
    packedMemHook(PackedSimulator &s)
    {
        power::packedMemHook(s, sys_->handles(), laneMem_);
    }
    void
    packedMemEdge(PackedSimulator &s)
    {
        power::packedMemEdge(s, sys_->handles(), laneMem_, haltedMask_,
                             faultMask_);
    }

    /** Per-lane mirror of System::fsmState. */
    int
    fsmStateLane(unsigned l) const
    {
        const msp::CpuHandles &h = sys_->handles();
        int found = -1;
        for (unsigned s = 0; s < msp::kNumStates; ++s) {
            V4 v = psim_->valueLane(h.state[s], l);
            if (v == V4::X)
                return -1;
            if (v == V4::One) {
                if (found >= 0)
                    return -1;
                found = int(s);
            }
        }
        return found;
    }

    /** One packed cycle of every live lane: the per-lane mirror of
     *  one runPath loop iteration (same check order, same failure
     *  strings), retiring lanes that reach their fork / halt
     *  boundary this cycle. */
    void
    stepBatch(SharedState &sh)
    {
        PackedSimulator &ps = *psim_;
        const msp::CpuHandles &h = sys_->handles();
        power::PowerContext &ctx = *ctx_;
        const scenario::Scenario &scen = cfg_.scenario;

        for (uint64_t m = ps.liveMask(); m; m &= m - 1) {
            Lane &L = lanes_[unsigned(__builtin_ctzll(m))];
            if (sh.totalCycles.load(std::memory_order_relaxed) >=
                cfg_.maxTotalCycles) {
                sh.fail("symbolic cycle budget exhausted");
                return;
            }
            if (L.pathCycles >= cfg_.maxPathCycles) {
                sh.fail("path exceeded maxPathCycles (missing "
                        "halt or unbounded loop?)");
                return;
            }
        }

        std::array<Word16, PackedSimulator::kLanes> ports;
        ports.fill(Word16::allX());
        uint64_t stepped = ps.liveMask();
        for (uint64_t m = stepped; m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            ports[l] = scen.portWordAt(lanes_[l].pathCycles);
        }
        ps.step([&](PackedSimulator &s) {
            // driveCycle splatted to all lanes (retired lanes drop
            // the writes), then runPath's per-path forces narrowed to
            // single lanes.
            s.setInput(h.rstn, V64::splat(V4::One));
            s.setInput(h.irq, V64::splat(V4::Zero));
            s.setInputBusLanes(h.portIn, ports);
            for (uint64_t m = stepped; m; m &= m - 1) {
                unsigned l = unsigned(__builtin_ctzll(m));
                Lane &L = lanes_[l];
                if (L.applyInit) {
                    L.applyInit = false;
                    for (const auto &[reg, value] : scen.regInit)
                        s.forceBusLane(h.regs[reg], l,
                                       Word16::known(value));
                }
                if (L.forcedPc != kNoForcedPc) {
                    s.forceBusLane(
                        h.pc, l,
                        Word16::known(uint16_t(L.forcedPc)));
                    L.forcedPc = kNoForcedPc;
                }
            }
        });
        unsigned nLive = unsigned(__builtin_popcountll(stepped));
        sh.totalCycles.fetch_add(nLive, std::memory_order_relaxed);
        sh.packedSweeps.fetch_add(1, std::memory_order_relaxed);
        sh.packedLaneCycles.fetch_add(nLive,
                                      std::memory_order_relaxed);
        cyclesRun += nLive;

        if (cfg_.recordActiveSets) {
            size_t n = everActive_.size();
            for (GateId g = 0; g < n; ++g)
                if (ps.activeMask(g) & stepped)
                    everActive_[g] = 1;
        }

        for (uint64_t m = stepped; m; m &= m - 1) {
            unsigned l = unsigned(__builtin_ctzll(m));
            uint64_t lbit = uint64_t(1) << l;
            Lane &L = lanes_[l];
            uint64_t cycleIdx = L.pathCycles; // mode phase of this step
            ++L.pathCycles;
            ++L.absCycle;

            Word16 pcNow = ps.readBusLane(h.pc, l);
            if (pcNow.isFullyKnown()) {
                L.lastPc = pcNow.value;
            } else {
                sh.fail("PC became X without fork interception");
                return;
            }
            int fsm = fsmStateLane(l);
            if (fsm == msp::kStFetch)
                L.curInstr = L.lastPc;

            double w;
            double modeScale = 1.0, modeFreq = ctx.freqHz();
            if (modeFactors_.empty()) {
                w = ctx.cyclePowerW(ps.boundEnergyJ(l));
            } else {
                const std::pair<double, double> &mf = modeFactors_
                    [size_t(cycleIdx % modeFactors_.size())];
                modeScale = mf.first;
                modeFreq = mf.second;
                w = ctx.cyclePowerW(ps.boundEnergyJ(l), modeScale,
                                    modeFreq);
            }
            L.powerW.push_back(float(w));
            if (cfg_.recordModuleTrace) {
                std::vector<double> mod = ctx.cycleModulePowerW(
                    ps.moduleBoundEnergyLaneJ(l));
                if (!modeFactors_.empty()) {
                    double ratio =
                        modeScale * (modeFreq / ctx.freqHz());
                    for (double &mm : mod)
                        mm *= ratio;
                }
                L.modulePowerW.emplace_back(mod.begin(), mod.end());
                CycleInfo info;
                info.instrPc = L.curInstr;
                info.fsmState = uint8_t(fsm < 0 ? 255 : fsm);
                L.cycleInfo.push_back(info);
            }
            uint32_t cyc = uint32_t(L.powerW.size() - 1);
            if (betterCandidate(w, L.nodeKey, cyc)) {
                peakPowerW = w;
                peakNode = L.node;
                peakCycleInNode = cyc;
                peakNodeKey = L.nodeKey;
                if (cfg_.recordActiveSets) {
                    // Ascending gate id, like the canonicalized
                    // scalar activeGates() view.
                    peakActive.clear();
                    size_t n = everActive_.size();
                    for (GateId g = 0; g < n; ++g)
                        if (ps.activeMask(g) & lbit)
                            peakActive.push_back(g);
                }
            }

            if (faultMask_ & lbit) {
                sh.fail("store with unknown address or enable "
                        "(X-store); see DESIGN.md section 5");
                return;
            }
            if (haltedMask_ & lbit) {
                commitLane(L, /*ends_halted=*/true);
                retireLane(sh, l);
                continue;
            }
            if (fsm == msp::kStHalt) {
                sh.fail("core trapped (invalid instruction) at "
                        "pc~0x" + std::to_string(L.lastPc));
                return;
            }

            bool pcNextX = false;
            for (GateId g : h.pc) {
                if (ps.predictSeqValueLane(g, l) == V4::X) {
                    pcNextX = true;
                    break;
                }
            }
            if (!pcNextX)
                continue;
            if (!forkLane(sh, l))
                return;
        }
    }

    /** The fork tail of runPath for lane @p l: resolve targets from
     *  the lane's (concrete) IR, hash and capture the transposed
     *  lane state, and hand the children to resolveFork. Returns
     *  false when the engine failed. */
    bool
    forkLane(SharedState &sh, unsigned l)
    {
        Lane &L = lanes_[l];
        PackedSimulator &ps = *psim_;
        const msp::CpuHandles &h = sys_->handles();
        const scenario::Scenario &scen = cfg_.scenario;

        Word16 ir = ps.readBusLane(h.ir, l);
        if (!ir.isFullyKnown()) {
            sh.fail("X program counter with unknown IR");
            return false;
        }
        isa::Decoded dec = isa::decode(ir.value, 0, 0);
        if (!dec.valid || !isa::isJump(dec.instr.op)) {
            sh.fail("unresolvable X program counter (op " +
                    std::string(isa::opName(dec.instr.op)) +
                    "): indirect jump through unknown data");
            return false;
        }

        uint32_t fallThrough = L.lastPc;
        uint32_t taken =
            (L.lastPc +
             uint32_t(int32_t(dec.instr.jumpOffsetWords) * 2)) &
            0xffff;
        uint32_t targets[2] = {taken, fallThrough};
        unsigned numTargets = taken == fallThrough ? 1 : 2;

        // Same key recipe as the scalar fork, over the transposed
        // lane state (lane identity makes the hashed bytes equal);
        // hashSnapshotState applies the prune-basis rule against the
        // snapshot's own cycle, so --static-prune keys match too.
        Simulator::Snapshot snap =
            ps.extractLaneState(l, L.absCycle);
        uint64_t keyBase = sim_->hashSnapshotState(snap);
        laneMem_[l].hashInto(keyBase);
        keyBase ^= 0xda942042e4dd58b5ull *
                   (scen.dedupPhase(L.pathCycles) + 1);
        uint64_t keys[2];
        for (unsigned t = 0; t < numTargets; ++t)
            keys[t] = keyBase ^ 0x9e3779b97f4a7c15ull *
                                    (uint64_t(targets[t]) + 1);
        std::shared_ptr<const Simulator::Snapshot> childFull;
        std::shared_ptr<const Simulator::DeltaSnapshot> childDelta;
        captureLane(sh, L, std::move(snap), childFull, childDelta);
        auto sysSnap = std::make_shared<const msp::System::Snapshot>(
            msp::System::Snapshot{laneMem_[l].snapshot(),
                                  /*halted=*/false,
                                  /*xStoreFault=*/false});

        L.nodePtr->branchPc = (L.lastPc - 2) & 0xffff;
        commitLane(L, /*ends_halted=*/false);
        if (!resolveFork(sh, L.nodePtr, L.node, targets, keys,
                         numTargets, childFull, childDelta, sysSnap,
                         L.lastPc, L.curInstr, L.pathCycles))
            return false;
        retireLane(sh, l);
        return true;
    }

    /** captureSim for a transposed lane state: the same promote rule
     *  and byte statistics, with the delta diffed between snapshots
     *  (Simulator::deltaBetween) instead of read out of a live
     *  simulator. */
    void
    captureLane(SharedState &sh, Lane &L, Simulator::Snapshot snap,
                std::shared_ptr<const Simulator::Snapshot> &out_full,
                std::shared_ptr<const Simulator::DeltaSnapshot>
                    &out_delta) const
    {
        size_t full_bytes = Simulator::bytesOf(*L.base);
        sh.snapshotBytesFull.fetch_add(full_bytes,
                                       std::memory_order_relaxed);
        if (cfg_.snapshotMode == SnapshotMode::Delta) {
            Simulator::DeltaSnapshot d =
                Simulator::deltaBetween(snap, L.base);
            if (d.deltaBytes() * kDeltaPromoteDen <=
                full_bytes * kDeltaPromoteNum) {
                sh.snapshotBytesCopied.fetch_add(
                    d.deltaBytes(), std::memory_order_relaxed);
                out_delta = std::make_shared<
                    const Simulator::DeltaSnapshot>(std::move(d));
                return;
            }
        }
        sh.snapshotBytesCopied.fetch_add(full_bytes,
                                         std::memory_order_relaxed);
        out_full = std::make_shared<const Simulator::Snapshot>(
            std::move(snap));
    }

    SymbolicConfig cfg_;
    unsigned id_;
    std::unique_ptr<msp::System> owned_;
    msp::System *sys_ = nullptr;
    std::unique_ptr<Simulator> sim_;
    std::unique_ptr<power::PowerContext> ctx_;
    /** Per-schedule-phase (energy scale, clock Hz); empty without
     *  operating modes. */
    std::vector<std::pair<double, double>> modeFactors_;
    /// @name Packed-frontier state (null/empty unless packedExplore)
    /// @{
    std::unique_ptr<PackedSimulator> psim_;
    std::vector<Memory> laneMem_;
    /** Lanes carrying a pending path are the simulator's live lanes;
     *  the rest are retired. */
    std::vector<Lane> lanes_;
    uint64_t haltedMask_ = 0;
    uint64_t faultMask_ = 0;
    /// @}
};

} // namespace

SymbolicEngine::SymbolicEngine(msp::System &sys,
                               const SymbolicConfig &cfg)
    : sys_(&sys), cfg_(cfg)
{
}

SymbolicResult
SymbolicEngine::run(const isa::Image &image)
{
    SymbolicResult res;
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

    // Mode-schedule consistency first (like the regInit/ramInit
    // validation below, programmatic scenarios must fail as cleanly
    // as JSON ones) -- worker construction resolves mode voltages
    // against the library, so a broken schedule must never get there.
    try {
        cfg_.scenario.validate();
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
        return res;
    }

    // Algorithm 1 lines 2-5: everything X, load binary, reset. Worker
    // 0 wraps the caller's System; extra workers elaborate clones.
    std::vector<std::unique_ptr<Worker>> workers;
    workers.reserve(numWorkers);
    try {
        for (unsigned i = 0; i < numWorkers; ++i)
            workers.push_back(std::make_unique<Worker>(
                *sys_, cfg_, image, i, /*owns_clone=*/i > 0));
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = std::string("worker setup failed: ") + e.what();
        return res;
    }
    sys_->reset(workers[0]->sim());

    if (cfg_.staticPrune) {
        // Static quiescence: prove gates constant under the scenario
        // and let every worker simulator skip them once settled. The
        // engage cycle is the settle bound relative to the end of
        // reset: one cycle for the depth-0 combinational cones plus
        // one per sequential stage the deepest pruned proof crosses.
        // Bit-identity of all reported numbers with the unpruned
        // analysis is enforced by fuzz property 9.
        lint::ConstAnalysisOptions lopts;
        lopts.scenario = cfg_.scenario;
        const msp::CpuHandles &h = sys_->handles();
        lopts.portBits.assign(h.portIn.begin(), h.portIn.end());
        lopts.drivenConstants = {{h.rstn, V4::One},
                                 {h.irq, V4::Zero}};
        lint::ConstAnalysis ca = lint::analyzeConstants(nl, lopts);
        auto mask = std::make_shared<const std::vector<uint8_t>>(
            std::move(ca.pruneMask));
        uint64_t engage =
            workers[0]->sim().cycle() + 1 + ca.maxPruneDepth;
        for (auto &w : workers)
            w->sim().setStaticPrune(mask, engage);
    }

    // Scenario constraints are validated here, not only in the JSON
    // parser: scenarios built programmatically must fail as cleanly
    // as ones read from files.
    for (const auto &[reg, value] : cfg_.scenario.regInit) {
        (void)value;
        if (reg < 4 || reg > 15) {
            res.ok = false;
            res.error = "scenario reg_init register r" +
                        std::to_string(reg) +
                        " is not a general-purpose register "
                        "(4..15; r0-r3 are pc/sp/sr/cg)";
            return res;
        }
    }
    // Scenario initial-memory constraints, applied to the base
    // system before the root snapshot so every path inherits them.
    for (const auto &[addr, words] : cfg_.scenario.ramInit) {
        char range[32];
        std::snprintf(range, sizeof range, "0x%04x", addr);
        if (words.empty()) {
            res.ok = false;
            res.error = std::string("scenario ram_init at ") + range +
                        " has no words";
            return res;
        }
        uint32_t last = addr + uint32_t(words.size() - 1) * 2;
        if (!sys_->memory().inRam(addr) ||
            !sys_->memory().inRam(last)) {
            res.ok = false;
            res.error = std::string("scenario ram_init range [") +
                        range + ", +" +
                        std::to_string(words.size()) +
                        " words] is outside RAM";
            return res;
        }
        sys_->memory().loadRam(addr, words);
    }

    SharedState sh;
    sh.tree = &res.tree;
    sh.queues.resize(numWorkers);

    uint32_t root = res.tree.newNode(kNoNode);
    {
        Pending p;
        p.simFull = std::make_shared<const Simulator::Snapshot>(
            workers[0]->sim().snapshot());
        p.sysSnap = std::make_shared<const msp::System::Snapshot>(
            sys_->snapshot());
        p.node = root;
        p.nodePtr = &res.tree.node(root);
        p.applyInit = !cfg_.scenario.regInit.empty();
        sh.push(0, std::move(p));
    }

    if (numWorkers == 1) {
        workers[0]->explore(sh);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(numWorkers);
        for (unsigned i = 0; i < numWorkers; ++i) {
            Worker *w = workers[i].get();
            pool.emplace_back([&sh, w] { w->explore(sh); });
        }
        for (auto &t : pool)
            t.join();
    }

    res.totalCycles = sh.totalCycles.load();
    res.pathsExplored = sh.pathsExplored.load();
    res.dedupMerges = sh.dedupMerges.load();
    res.steals = sh.steals.load();
    res.snapshotBytesCopied = sh.snapshotBytesCopied.load();
    res.snapshotBytesFull = sh.snapshotBytesFull.load();
    res.packedBatches = sh.packedBatches.load();
    res.packedSweeps = sh.packedSweeps.load();
    res.packedLaneCycles = sh.packedLaneCycles.load();
    res.perWorkerCycles.reserve(numWorkers);
    for (auto &w : workers)
        res.perWorkerCycles.push_back(w->cyclesRun);

    if (sh.failed.load()) {
        res.ok = false;
        res.error = sh.error;
        return res;
    }

    // Deterministic merge: candidates are ordered by (power, then
    // canonical node key / cycle on exact ties), so the winning cycle
    // -- including its recorded active set -- is the same logical
    // cycle under any work partition or thread scheduling.
    if (cfg_.recordActiveSets)
        res.everActive.assign(nl.numGates(), 0);
    const Worker *best = nullptr;
    for (auto &w : workers) {
        if (w->peakPowerW > 0.0 &&
            (!best || best->betterCandidate(w->peakPowerW,
                                            w->peakNodeKey,
                                            w->peakCycleInNode)))
            best = w.get();
        if (cfg_.recordActiveSets)
            for (size_t g = 0; g < w->everActive_.size(); ++g)
                res.everActive[g] |= w->everActive_[g];
    }
    if (best) {
        res.peakPowerW = best->peakPowerW;
        res.peakNode = best->peakNode;
        res.peakCycleInNode = best->peakCycleInNode;
        res.peakActive = best->peakActive;
    }

    // ---- Section 3.3: peak energy over the tree ----
    power::PowerContext ctx(nl, cfg_.freqHz);
    try {
        PathEnergy pe =
            cfg_.scenario.hasModes()
                ? res.tree.maxPathEnergy(
                      cfg_.scenario.phaseTclkS(),
                      cfg_.inputDependentLoopBound)
                : res.tree.maxPathEnergy(
                      ctx.tclkS(), cfg_.inputDependentLoopBound);
        res.peakEnergyJ = pe.energyJ;
        res.maxPathCycles = pe.cycles;
        res.npeJPerCycle =
            pe.cycles ? pe.energyJ / double(pe.cycles) : 0.0;
        // ---- Per-cycle peak power envelope over the tree ----
        // Computed from the tree rather than max-merged inside the
        // workers: a dedup race can hang the same logical node under
        // either racing parent, and only the tree walk sees both
        // resulting offsets -- worker-local merges would be
        // scheduling-dependent exactly there.
        if (cfg_.recordEnvelope)
            res.envelopeW = res.tree.envelopePowerW(
                cfg_.inputDependentLoopBound);
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
        return res;
    }

    res.ok = true;
    return res;
}

} // namespace sym
} // namespace ulpeak
