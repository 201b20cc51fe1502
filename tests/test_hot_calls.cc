/**
 * @file
 * Library-call census of a full System run.
 *
 * The simulation path calls no libc or libm function per event, per
 * workload op or per write: scheduling-pass mask snapshots and cache
 * LRU shifts are plain loops (no memmove), the gap draw uses a
 * table-driven log (no log1p), and the endurance model memoizes its
 * power law (no pow). This executable is linked with
 * -Wl,--wrap=<fn> for memmove, memcpy, memset, log, log1p, pow and
 * exp, so every call to them from the simulator's objects goes
 * through a __wrap_<fn> below. The wrappers count while `counting`
 * is set around runSystem() and forward to __real_<fn>.
 *
 * Each case runs the same configuration at 1x and 4x the budget and
 * bounds the difference per function by a small constant: System
 * construction and the final report make a fixed number of calls,
 * and a longer run may push a container through one more doubling
 * (a reallocation copies with memmove), but anything that calls per
 * event, op or write overshoots by thousands.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>

#include "mellow/policy.hh"
#include "system/report.hh"
#include "system/system.hh"

using namespace mellowsim;

namespace
{

enum Fn : std::size_t { Memmove, Memcpy, Memset, Log, Log1p, Pow, Exp, kNumFns };

constexpr std::array<const char *, kNumFns> kFnNames = {
    "memmove", "memcpy", "memset", "log", "log1p", "pow", "exp"};

using Counts = std::array<std::uint64_t, kNumFns>;

/** Volatile: the compiler may otherwise assume that a libm builtin
 * cannot read it and drop the stores around the call. */
volatile bool counting = false;
Counts counts{};

void
count(Fn fn)
{
    if (counting)
        ++counts[fn];
}

} // namespace

// The linker routes every reference to <fn> here and binds
// __real_<fn> to the library definition.
extern "C" {

void *__real_memmove(void *dst, const void *src, std::size_t n);
void *__real_memcpy(void *dst, const void *src, std::size_t n);
void *__real_memset(void *dst, int c, std::size_t n);
double __real_log(double x);
double __real_log1p(double x);
double __real_pow(double x, double y);
double __real_exp(double x);

void *
__wrap_memmove(void *dst, const void *src, std::size_t n)
{
    count(Memmove);
    return __real_memmove(dst, src, n);
}

void *
__wrap_memcpy(void *dst, const void *src, std::size_t n)
{
    count(Memcpy);
    return __real_memcpy(dst, src, n);
}

void *
__wrap_memset(void *dst, int c, std::size_t n)
{
    count(Memset);
    return __real_memset(dst, c, n);
}

double
__wrap_log(double x)
{
    count(Log);
    return __real_log(x);
}

double
__wrap_log1p(double x)
{
    count(Log1p);
    return __real_log1p(x);
}

double
__wrap_pow(double x, double y)
{
    count(Pow);
    return __real_pow(x, y);
}

double
__wrap_exp(double x)
{
    count(Exp);
    return __real_exp(x);
}

} // extern "C"

namespace
{

constexpr std::uint64_t kBudget = 100'000;
constexpr std::uint64_t kWarmup = 50'000;

/** Allowed excess of the 4x-budget run over the 1x run, per function. */
constexpr std::uint64_t kSlack = 8;

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

/** Library calls made by runSystem() for @p instrs. */
Counts
runCalls(const Case &c, std::uint64_t instrs)
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

    counts = Counts{};
    counting = true;
    SimReport r = runSystem(cfg);
    counting = false;
    EXPECT_GE(r.instructions, instrs);
    return counts;
}

class HotCalls : public testing::TestWithParam<Case>
{
};

} // namespace

TEST_P(HotCalls, LibraryCallsDoNotScaleWithBudget)
{
    const Counts one = runCalls(GetParam(), kBudget);
    const Counts four = runCalls(GetParam(), 4 * kBudget);
    for (std::size_t fn = 0; fn < kNumFns; ++fn) {
        EXPECT_LE(four[fn], one[fn] + kSlack)
            << kFnNames[fn] << " calls grew with the budget: " << one[fn]
            << " at " << kBudget << " instructions, " << four[fn]
            << " at " << 4 * kBudget;
    }
}

/** The wrappers are live: a call made here is counted. */
TEST(HotCallWrappers, CountWhileFlagged)
{
    volatile double x = 0.25;
    counts = Counts{};
    counting = true;
    const double y = std::log1p(x) + std::pow(x, x);
    counting = false;
    EXPECT_GT(y, 0.0);
    EXPECT_EQ(counts[Log1p], 1u);
    EXPECT_EQ(counts[Pow], 1u);
}

INSTANTIATE_TEST_SUITE_P(
    FullSystem, HotCalls,
    testing::Values(Case{"mcf", false}, Case{"mcf", true},
                    Case{"lbm", false}, Case{"lbm", true},
                    Case{"gups", false}, Case{"gups", true},
                    Case{"stream", false}, Case{"stream", true}),
    caseName);
