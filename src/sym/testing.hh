/**
 * @file
 * Test-only seams of the symbolic engine: pin the exploration
 * frontier, or delay the static-prune engage cycle.
 *
 * In production each exploration worker picks its frontier itself
 * (scalar Simulator while its frontier is narrow, PackedSimulator
 * lanes once it widens; SymbolicConfig::packedExplore forces lanes).
 * Tests and fuzz property 3 compare that choice against the two pure
 * references; ScopedFrontier forces one for every SymbolicEngine::run
 * started on the calling thread while it is in scope. Every reported
 * number is identical under all three, so this never changes a
 * result, only which simulator produced it.
 */

#ifndef ULPEAK_SYM_TESTING_HH
#define ULPEAK_SYM_TESTING_HH

#include <cstdint>

namespace ulpeak {
namespace sym {
namespace testing {

/** How exploration workers step their pending paths. */
enum class Frontier : uint8_t {
    Auto,   ///< per worker: scalar while narrow, lanes once it widens
    Scalar, ///< reference: every path on the scalar Simulator
    Packed, ///< reference: every path through PackedSimulator lanes
};

namespace detail {
inline thread_local Frontier forced = Frontier::Auto;
inline thread_local uint64_t engageDelay = 0;
} // namespace detail

/** Forces the frontier of SymbolicEngine::run calls on this thread
 *  for the guard's lifetime (Auto restores the production choice). */
class ScopedFrontier {
  public:
    explicit ScopedFrontier(Frontier f) : prev_(detail::forced)
    {
        detail::forced = f;
    }
    ~ScopedFrontier() { detail::forced = prev_; }
    ScopedFrontier(const ScopedFrontier &) = delete;
    ScopedFrontier &operator=(const ScopedFrontier &) = delete;

  private:
    Frontier prev_;
};

/** The frontier forced on this thread (Auto when none is). */
inline Frontier
forcedFrontier()
{
    return detail::forced;
}

/** Delays the static-prune engage cycle of SymbolicEngine::run calls
 *  on this thread by @p cycles for the guard's lifetime, so a test can
 *  engage pruning exactly at a fork (on the MSP430 core the proven
 *  engage cycle comes before any fork can). Engaging later than the
 *  settle bound is sound, so no bound changes; only the dedup merges
 *  of states hashed on both sides of the engage cycle are lost. */
class ScopedPruneDelay {
  public:
    explicit ScopedPruneDelay(uint64_t cycles) : prev_(detail::engageDelay)
    {
        detail::engageDelay = cycles;
    }
    ~ScopedPruneDelay() { detail::engageDelay = prev_; }
    ScopedPruneDelay(const ScopedPruneDelay &) = delete;
    ScopedPruneDelay &operator=(const ScopedPruneDelay &) = delete;

  private:
    uint64_t prev_;
};

/** The engage delay set on this thread (0 when none is). */
inline uint64_t
pruneDelay()
{
    return detail::engageDelay;
}

} // namespace testing
} // namespace sym
} // namespace ulpeak

#endif // ULPEAK_SYM_TESTING_HH
