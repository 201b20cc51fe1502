/**
 * @file
 * Steady-state allocation gate for a full System run.
 *
 * Every container on the simulation path (event pool, request rings,
 * MSHR table and waiter pool, load window, scheduler masks) grows to a
 * bounded size and is then reused, so the heap allocations made inside
 * System::run() must not scale with the instruction budget. Each case
 * runs the same configuration at 1x and 4x the budget and bounds the
 * difference by a small constant that covers the last few container
 * doublings a longer run can reach.
 *
 * Live only when the allocation counter is compiled in (the strict,
 * asan-ubsan and release-lto presets); skipped otherwise.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "mellow/policy.hh"
#include "sim/alloc_counter.hh"
#include "system/report.hh"
#include "system/system.hh"

using namespace mellowsim;

namespace
{

constexpr std::uint64_t kBudget = 100'000;
constexpr std::uint64_t kWarmup = 50'000;

/**
 * Allowed excess of the 4x-budget run over the 1x run. A longer run
 * may push a few containers through one more doubling: the measured
 * excess is 0 or 1 across these eight cases (2 to 6 allocations per
 * run in all). Anything that allocates per miss, per request or per
 * event overshoots this by orders of magnitude.
 */
constexpr std::uint64_t kSlack = 4;

struct Case
{
    const char *workload;
    bool mellow; ///< BE-Mellow+SC+WQ, else Norm
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.workload << (c.mellow ? "/BE-Mellow+SC+WQ" : "/Norm");
}

std::string
caseName(const testing::TestParamInfo<Case> &info)
{
    return std::string(info.param.workload) +
           (info.param.mellow ? "_BEMellowSCWQ" : "_Norm");
}

/** Heap allocations made inside System::run() for @p instrs. */
std::uint64_t
runAllocations(const Case &c, std::uint64_t instrs)
{
    SystemConfig cfg;
    cfg.workloadName = c.workload;
    cfg.policy = c.mellow ? policies::beMellow().withSC().withWQ()
                          : policies::norm();
    cfg.instructions = instrs;
    cfg.warmupInstructions = kWarmup;
    cfg.seed = 1;
    // The checkers' own bookkeeping is not part of the simulator.
    cfg.checks.enabled = false;

    System sys(cfg);
    std::uint64_t before = alloccounter::allocations();
    SimReport r = sys.run();
    std::uint64_t after = alloccounter::allocations();
    EXPECT_GE(r.instructions, instrs);
    return after - before;
}

class SteadyAllocs : public testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(SteadyAllocs, RunAllocationsDoNotScaleWithBudget)
{
    if (!alloccounter::enabled())
        GTEST_SKIP() << "allocation counter compiled out";
    std::uint64_t one = runAllocations(GetParam(), kBudget);
    std::uint64_t four = runAllocations(GetParam(), 4 * kBudget);
    EXPECT_LE(four, one + kSlack)
        << "System::run() allocations grew with the budget: " << one
        << " at " << kBudget << " instructions, " << four << " at "
        << 4 * kBudget;
}

INSTANTIATE_TEST_SUITE_P(
    FullSystem, SteadyAllocs,
    testing::Values(Case{"mcf", false}, Case{"mcf", true},
                    Case{"lbm", false}, Case{"lbm", true},
                    Case{"gups", false}, Case{"gups", true},
                    Case{"stream", false}, Case{"stream", true}),
    caseName);
