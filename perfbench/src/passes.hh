/**
 * @file
 * The benchmark's workloads and the passes it times over them.
 *
 * A workload is a fixed list of SystemConfigs built with makeConfig()
 * and policies::*; only the seed and the instruction budget vary, and
 * both come from the benchmark's arguments.
 */

#ifndef PERFBENCH_PASSES_HH
#define PERFBENCH_PASSES_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "system/system.hh"
#include "traced.hh"

namespace perfbench
{

struct WorkloadPlan
{
    std::string name;
    std::vector<mellowsim::SystemConfig> configs;
    /** "<workload>/<policy>", one per config. */
    std::vector<std::string> ids;
    /** runConfigs() workers; 1 for the single-threaded mixes. */
    unsigned jobs = 1;
    /**
     * Copies of an untraced pass that the end-to-end run times at
     * once, each on its own thread. Host speed drifts per core on a
     * shared machine, so a lone thread reads whichever core it lands
     * on; the mixes run one copy per core and report the mean over
     * copies, as paper-sweep's workers spread over every core.
     */
    unsigned copies = 1;
};

/**
 * Build a workload's configs. Throws mellowsim::FatalError for an
 * unknown name.
 */
WorkloadPlan makePlan(const std::string &name, std::uint64_t seed,
                      std::uint64_t instructions, std::uint64_t warmup,
                      unsigned jobs);

/**
 * Set-up only: per config, construct a System and run its functional
 * warm-up (the loop System::run() starts with) through the public
 * workload()/hierarchy() accessors. Returns host seconds summed over
 * configs, one entry per copy; @p copies copies run at once on their
 * own threads.
 */
std::vector<double> setupPass(const WorkloadPlan &plan, unsigned copies);

/** One untraced pass of one copy: every config through runConfigs(). */
struct UntracedPass
{
    double wallS = 0.0;
    /** CPU time of the copy's thread, or of the whole process when
     * the pass ran as a single copy (runConfigs may add workers). */
    double cpuS = 0.0;
    std::uint64_t instructions = 0;
    /** FNV-1a of reportFingerprint(), one per config. */
    std::vector<std::uint64_t> hashes;
    /** Config ended non-ok or with a non-finite/non-positive IPC or
     * lifetime. */
    std::vector<bool> invalid;
};

/** An untraced pass run as @p copies simultaneous copies, one result
 * per copy. */
std::vector<UntracedPass> untracedPass(const WorkloadPlan &plan,
                                       unsigned copies);

/** One traced pass: every config through runTraced(). */
struct TracedPass
{
    double wallS = 0.0;
    /** Heap allocations made during the pass (alloc counter). */
    std::uint64_t allocations = 0;
    std::vector<std::unique_ptr<TracedConfig>> configs;
    std::vector<std::uint64_t> hashes;
    std::vector<bool> invalid;
};

TracedPass tracedPass(const WorkloadPlan &plan);

/** FNV-1a 64 of a report's fingerprint. */
std::uint64_t fingerprintHash(const mellowsim::SimReport &report);

} // namespace perfbench

#endif // PERFBENCH_PASSES_HH
