/**
 * @file
 * The wake queue of the event-driven kernels: Simulator's
 * EvalMode::EventDriven and PackedSimulator both hold their pending
 * work in one WakeQueue and keep only their per-node work to
 * themselves.
 */

#ifndef ULPEAK_SIM_WAKE_QUEUE_HH
#define ULPEAK_SIM_WAKE_QUEUE_HH

#include <algorithm>
#include <vector>

#include "netlist/netlist.hh"
#include "sim/bitset.hh"

namespace ulpeak {

/**
 * Pending evaluations, one bit per wake target in
 * FlatNetlist::fanoutPos's numbering: bits below seqWakeBase are
 * schedule positions to evaluate this cycle, the bits from seqWakeBase
 * on are the flops (by index in Netlist::seqGates()) due at the next
 * clock edge. One walk of a gate's fanout CSR thus wakes both kinds of
 * consumer.
 *
 * The combinational part drains in ascending position within the
 * cycle (drain()). The flop part is the one-edge flop wake rule: the
 * edge that opens cycle c evaluates flop f only when
 *
 *  (a) a fanin of f was active in cycle c-1 (markFanouts of that
 *      fanin set f's bit), or
 *  (b) f itself was active in cycle c-1 -- at the edge that opened it,
 *      or by an upset -- or its value was written since (its kernel
 *      calls markSeq).
 *
 * Skipping any other flop is exact: evaluating it would reproduce its
 * value, leave it inactive and keep its load history. An inactive gate
 * keeps its value, so by (a) f reads the same pin values at edge c as
 * at edge c-1, and by (b) the same q. Its next state and held flag are
 * functions of (q, pins), so they repeat edge c-1's: the next state is
 * q again (f was inactive at c-1) and the load history stays what edge
 * c-1 wrote. The activity rule then sees a held flop, a known q kept,
 * or an X q kept. In that last, non-held X branch the load history
 * says "loaded" (f was not held at c-1), the D pin is inactive by (a),
 * and the control pins are those of edge c-1, where an X among them
 * would have made f active. So f is inactive at c too. By induction
 * over edges the same holds when edge c-1 skipped f as well, as long
 * as the first edge of the run evaluates every flop: armAllSeq()
 * provides that at cycle 0, after a restore and after a lane load.
 *
 * PackedSimulator applies the rule across lanes: a flop is due when
 * (a) or (b) holds in any lane, and in the other lanes the evaluation
 * reproduces their state by the argument above.
 */
class WakeQueue {
  public:
    WakeQueue(const FlatNetlist &f, size_t num_seq)
        : flat_(&f), numSeq_(num_seq),
          bits_(bitWords(f.seqWakeBase + num_seq), 0),
          due_(bitWords(num_seq), 0)
    {
        armAllSeq();
    }

    /** Evaluate scheduled node @p node this cycle. */
    void
    markNode(uint32_t node)
    {
        setBit(bits_.data(), flat_->posOfNode[node]);
    }

    /** Evaluate flop @p i (its seqGates() index) at the next edge. */
    void
    markSeq(uint32_t i)
    {
        setBit(bits_.data(), flat_->seqWakeBase + i);
    }

    /** Evaluate every schedule position set in @p positions this
     *  cycle. */
    void
    markPositions(const std::vector<uint64_t> &positions)
    {
        for (size_t w = 0; w < positions.size(); ++w)
            bits_[w] |= positions[w];
    }

    /**
     * The queue's marking state as raw pointers: the fanout CSR and
     * the pending bits. A drain's evaluator marks through a copy held
     * in locals, so its hot loop reloads nothing per position.
     */
    struct Marks {
        const uint32_t *fanoutPos;
        uint64_t *bits;

        /** Wake every consumer in @p r (a record's fanout, or
         *  FlatNetlist::fanoutsOf a gate): its combinational
         *  consumers this cycle, its flops at the next edge. */
        void
        markFanouts(FanoutRange r) const
        {
            markFanoutsIf(r, [](uint32_t) { return true; });
        }

        /** markFanouts restricted to the wake bits @p w for which
         *  @p keep(w) holds; branch-free, for a cheap @p keep. */
        template <typename Keep>
        void
        markFanoutsIf(FanoutRange r, Keep keep) const
        {
            for (uint32_t i = r.begin; i < r.end; ++i) {
                uint32_t w = fanoutPos[i];
                bits[w >> 6] |= uint64_t(keep(w)) << (w & 63);
            }
        }
    };
    Marks marks() { return {flat_->fanoutPos.data(), bits_.data()}; }

    /** Marks::markFanouts. */
    void markFanouts(FanoutRange r) { marks().markFanouts(r); }

    /** Every flop due at the next edge: the start of the wake rule's
     *  induction (see the class comment). Keeps the other marks. */
    void
    armAllSeq()
    {
        uint64_t *seq = bits_.data() + flat_->seqWakeBase / 64;
        std::fill(seq, bits_.data() + bits_.size(), ~uint64_t(0));
        if (numSeq_ % 64)
            bits_.back() = (uint64_t(1) << (numSeq_ % 64)) - 1;
    }

    /** Drop every mark. */
    void clear() { std::fill(bits_.begin(), bits_.end(), 0); }

    /**
     * At a clock edge: move the flops due now out of the queue. The
     * result is a seq-index bitset, valid until the next takeDue();
     * the flops' own evaluations then mark the next edge.
     */
    const std::vector<uint64_t> &
    takeDue()
    {
        uint64_t *seq = bits_.data() + flat_->seqWakeBase / 64;
        std::copy(seq, seq + due_.size(), due_.begin());
        std::fill(seq, seq + due_.size(), 0);
        return due_;
    }

    /**
     * Evaluate the pending schedule positions in ascending order,
     * calling @p eval_pos(pos) for each, until none is left.
     * Ascending position is a topological order: evaluating a node
     * only marks strictly higher positions, so re-reading the current
     * word after each evaluation picks its new marks up in order.
     */
    template <typename Fn>
    void
    drain(Fn &&eval_pos)
    {
        uint64_t *bits = bits_.data();
        for (uint32_t w = 0; w < flat_->seqWakeBase / 64; ++w) {
            uint64_t pending;
            while ((pending = bits[w]) != 0) {
                bits[w] = pending & (pending - 1);
                eval_pos(w * 64 + unsigned(__builtin_ctzll(pending)));
            }
        }
    }

  private:
    const FlatNetlist *flat_;
    size_t numSeq_;
    std::vector<uint64_t> bits_;
    std::vector<uint64_t> due_;
};

} // namespace ulpeak

#endif // ULPEAK_SIM_WAKE_QUEUE_HH
