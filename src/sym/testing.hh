/**
 * @file
 * Test-only seam of the symbolic engine: pin the exploration frontier.
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

/** Forces the frontier of SymbolicEngine::run calls on this thread
 *  for the guard's lifetime (Auto restores the production choice). */
class ScopedFrontier {
  public:
    explicit ScopedFrontier(Frontier f);
    ~ScopedFrontier();
    ScopedFrontier(const ScopedFrontier &) = delete;
    ScopedFrontier &operator=(const ScopedFrontier &) = delete;

  private:
    Frontier prev_;
};

/** The frontier forced on this thread (Auto when none is). */
Frontier forcedFrontier();

} // namespace testing
} // namespace sym
} // namespace ulpeak

#endif // ULPEAK_SYM_TESTING_HH
