#include "sym/testing.hh"

namespace ulpeak {
namespace sym {
namespace testing {

namespace {
thread_local Frontier forced = Frontier::Auto;
} // namespace

ScopedFrontier::ScopedFrontier(Frontier f) : prev_(forced)
{
    forced = f;
}

ScopedFrontier::~ScopedFrontier()
{
    forced = prev_;
}

Frontier
forcedFrontier()
{
    return forced;
}

} // namespace testing
} // namespace sym
} // namespace ulpeak
