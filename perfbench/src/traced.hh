/**
 * @file
 * The traced run of one configuration: the same assembly that
 * System::build()/System::run() performs, with a TimedWorkload around
 * makeWorkload() and a PortShim between Hierarchy and MemorySystem,
 * driven by EventQueue::step() from here so that every phase and
 * event can be counted. Its report must stay fingerprint-identical to
 * System::run() on the same configuration; the benchmark checks that
 * on every traced configuration.
 */

#ifndef PERFBENCH_TRACED_HH
#define PERFBENCH_TRACED_HH

#include <cstdint>

#include "cpu/core.hh"
#include "probes.hh"
#include "system/report.hh"
#include "system/system.hh"

namespace perfbench
{

/** Everything observed while running one configuration traced. */
struct TracedConfig
{
    mellowsim::SimReport report;
    mellowsim::CoreStats core;

    std::uint64_t accesses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t mshrMerges = 0;
    std::uint64_t blocked = 0;

    /** Events fired during the detailed phase. */
    std::uint64_t events = 0;

    std::uint64_t constructNs = 0;
    std::uint64_t warmupNs = 0;
    std::uint64_t detailedNs = 0;

    Probe warmupNext;
    Probe prime;
    Probe detailedNext;
    PortShim::Counts port;
    std::uint64_t portNs = 0;

    SpanLog spans;
};

/**
 * Run @p config traced into @p out. Spans use host nanoseconds; the
 * root span is "config", with children "construct", "warmup" and
 * "detailed", and sampled per-call spans under the phase that made
 * the call.
 */
void runTraced(const mellowsim::SystemConfig &config, TracedConfig &out);

} // namespace perfbench

#endif // PERFBENCH_TRACED_HH
