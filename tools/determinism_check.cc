/**
 * @file
 * Determinism audit harness.
 *
 * Runs the same (workload, policy, seed) configuration several times
 * in fresh System instances and byte-compares an exhaustive stats
 * dump across the runs. Any divergence — container iteration order
 * leaking into results, uninitialized memory, hidden global state —
 * shows up as a first-differing-line diff and a non-zero exit code.
 *
 * This is the gate any parallelism work must keep green: the
 * simulator's contract is that identical inputs produce bit-identical
 * outputs.
 *
 * Usage:
 *   determinism_check [workload] [policy] [instructions] [warmup]
 *                     [seed] [runs] [faults(0|1)] [leveler]
 *   determinism_check --threads N [instructions] [warmup]
 *
 * The optional [leveler] argument (start-gap, security-refresh,
 * soft-wear, wolfram, none) selects the wear-leveling backend and
 * shrinks the memory to 64 MB so the table-based backends stay cheap;
 * the --threads sweep grid includes SoftWear and WoLFRaM entries of
 * its own.
 *
 * The --threads mode is the parallel-readiness gate: it builds a
 * (workload x policy x seed) sweep grid — fault injection layered on
 * alternate entries so the fault RNG is contended too, plus a
 * 16-channel System, normal and fault-injected, so per-channel state
 * is covered as well — runs it once serially as the reference, then
 * again across N worker threads via runConfigs(configs, N), and
 * byte-compares every report fingerprint. Any cross-thread state
 * leak (a shared RNG, an unsynchronized global tally,
 * allocator-order dependence) shows up as a diff between the serial
 * and threaded sweeps.
 *
 * With MELLOWSIM_FP_DUMP=<path> the reference fingerprint is also
 * written to <path>, so two *builds* (e.g. before and after a kernel
 * rework) can be byte-compared, not just two runs of one build.
 *
 * Defaults exercise a representative configuration: the stream
 * workload under BE-Mellow+SC+WQ (eager queue, cancellation and Wear
 * Quota all active). With faults=1 an aggressive fault-injection
 * configuration is layered on top (tiny endurance, heavy variation,
 * transient verify failures) so the fault RNG draws, retries,
 * repairs, retirements and remap traffic are all covered by the
 * byte-identical same-seed audit.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "mellow/policy.hh"
#include "wear/wear_leveler.hh"
#include "sim/logging.hh"
#include "system/report.hh"
#include "system/runner.hh"
#include "system/system.hh"

namespace
{

using namespace mellowsim;

/** Report the first line where two fingerprints diverge. */
void
reportFirstDiff(const std::string &a, const std::string &b)
{
    std::istringstream sa(a), sb(b);
    std::string la, lb;
    unsigned lineno = 0;
    for (;;) {
        bool ga = static_cast<bool>(std::getline(sa, la));
        bool gb = static_cast<bool>(std::getline(sb, lb));
        ++lineno;
        if (!ga && !gb)
            return;
        if (la != lb || ga != gb) {
            std::fprintf(stderr,
                         "first divergence at line %u:\n  run 1: %s\n"
                         "  run N: %s\n",
                         lineno, ga ? la.c_str() : "<end of dump>",
                         gb ? lb.c_str() : "<end of dump>");
            return;
        }
    }
}

/**
 * Aggressive fault-injection layer: near-instant endurance
 * exhaustion, a heavy weak-line tail, frequent verify failures, and
 * repair / spare pools small enough to exhaust, so every fault path
 * fires within a short run.
 */
void
layerFaults(SystemConfig &cfg)
{
    FaultConfig &f = cfg.memory.fault;
    f.enabled = true;
    f.enduranceScale = 5e-7;
    f.enduranceSigma = 1.0;
    f.transientFailProb = 0.02;
    f.maxRetries = 3;
    f.repairEntriesPerLine = 1;
    f.spareLinesPerBank = 8;
}

/**
 * Select a wear-leveling backend and shrink the memory to 64 MB: the
 * table-based zoo backends (SoftWear pages, WoLFRaM's explicit PAD)
 * cost per-line state, so the audit runs them on a small geometry —
 * which also makes the fault layer's retirements dense enough to
 * exercise the unified remap path.
 */
void
layerLeveler(SystemConfig &cfg, WearLevelerKind kind)
{
    cfg.memory.wearLeveler = kind;
    cfg.memory.geometry.capacityBytes = 64ull << 20;
    // Tiny caches, so dirty lines actually reach memory inside the
    // audit's short run: with the stock 2 MB LLC a 200k-instruction
    // run evicts nothing and the leveler would never see a write,
    // let alone swap, migrate or retire anything.
    cfg.hierarchy.l1.sizeBytes = 4 * 1024;
    cfg.hierarchy.l2.sizeBytes = 8 * 1024;
    cfg.hierarchy.llc.cache.sizeBytes = 16 * 1024;
    // Hair-trigger SoftWear knobs and near-zero endurance, so page
    // migrations, delegate retirements and spare exhaustion all fire
    // (and must replay) inside the 200k-instruction audit.
    cfg.memory.softWearSamplePeriod = 2;
    cfg.memory.softWearRelocThreshold = 4;
    cfg.memory.gapWritePeriod = 8;
    cfg.memory.fault.enduranceScale = 1e-9;
}

/**
 * A 16-channel System scaled down so the audit stays cheap: 1 GB
 * total capacity (64 MB per channel) and small caches so write-backs
 * genuinely reach all 16 channels inside a short run.
 */
void
layerSixteenChannels(SystemConfig &cfg)
{
    cfg.workloadName = "gups"; // random traffic hits every channel
    cfg.numChannels = 16;
    cfg.memory.geometry.capacityBytes = 1ull << 30;
    cfg.hierarchy.l1.sizeBytes = 4 * 1024;
    cfg.hierarchy.l2.sizeBytes = 8 * 1024;
    cfg.hierarchy.llc.cache.sizeBytes = 16 * 1024;
}

/**
 * Parallel-readiness gate (--threads N): run a sweep grid serially,
 * then across N contended worker threads, and require byte-identical
 * report fingerprints slot by slot.
 */
int
runThreadsMode(unsigned jobs, std::uint64_t instructions,
               std::uint64_t warmup)
{
    // Sequential, random and pointer-chasing traffic across plain and
    // fully-featured policies; fault injection on alternate entries so
    // the per-system fault RNGs run under contention too.
    const char *workloads[] = {"stream", "gups", "mcf"};
    const char *policyNames[] = {"Norm", "BE-Mellow+SC+WQ"};

    std::vector<SystemConfig> configs;
    for (const char *w : workloads) {
        for (const char *p : policyNames) {
            SystemConfig cfg;
            cfg.workloadName = w;
            cfg.policy = policies::fromName(p);
            cfg.instructions = instructions;
            cfg.warmupInstructions = warmup;
            cfg.seed = configs.size() + 1;
            if (configs.size() % 2 == 1)
                layerFaults(cfg);
            configs.push_back(std::move(cfg));
        }
    }
    // The zoo backends under fault injection: their permutation /
    // PAD state, migration traffic and delegate retirements must stay
    // byte-identical under worker-thread contention too.
    for (WearLevelerKind kind :
         {WearLevelerKind::SoftWear, WearLevelerKind::WoLFRaM}) {
        SystemConfig cfg;
        cfg.workloadName = "stream";
        cfg.policy = policies::fromName("BE-Mellow+SC+WQ");
        cfg.instructions = instructions;
        cfg.warmupInstructions = warmup;
        cfg.seed = configs.size() + 1;
        layerFaults(cfg);
        layerLeveler(cfg, kind);
        configs.push_back(std::move(cfg));
    }
    // Sixteen channels, normal and fault-injected: every channel's
    // controller, wear and fault state must replay under contention.
    // One run covers 16 channels, so a quarter of the budget suffices.
    for (bool faults : {false, true}) {
        SystemConfig cfg;
        cfg.policy = policies::fromName("BE-Mellow+SC+WQ");
        cfg.instructions = std::max<std::uint64_t>(instructions / 4,
                                                   50'000);
        cfg.warmupInstructions = warmup;
        cfg.seed = configs.size() + 1;
        layerSixteenChannels(cfg);
        if (faults)
            layerFaults(cfg);
        configs.push_back(std::move(cfg));
    }

    std::vector<SimReport> serial = runConfigs(configs, 1);
    std::vector<SimReport> threaded = runConfigs(configs, jobs);

    bool ok = true;
    for (std::size_t i = 0; i < serial.size(); ++i) {
        std::string a = reportFingerprint(serial[i]);
        std::string b = reportFingerprint(threaded[i]);
        if (a != b) {
            ok = false;
            std::fprintf(stderr,
                         "FAIL: grid entry %zu (%s / %s) diverged "
                         "between the serial reference and the "
                         "%u-thread sweep\n",
                         i, serial[i].workload.c_str(),
                         serial[i].policy.c_str(), jobs);
            reportFirstDiff(a, b);
        }
    }
    if (!ok)
        return 1;
    std::printf("OK: %zu-config sweep grid (%" PRIu64
                " instrs each, a quarter on 16 channels) "
                "byte-identical between serial and %u-thread runs\n",
                configs.size(), instructions, jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mellowsim;

    if (argc > 1 && std::string(argv[1]) == "--threads") {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: %s --threads N [instructions] "
                         "[warmup]\n", argv[0]);
            return 2;
        }
        unsigned jobs = static_cast<unsigned>(
            std::strtoul(argv[2], nullptr, 10));
        // Long enough per config that the worker threads genuinely
        // overlap (contended allocator, shared stdio, ...) instead of
        // finishing one after another.
        std::uint64_t instructions =
            argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1'000'000;
        std::uint64_t warmup =
            argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 50'000;
        if (jobs == 0 || instructions == 0) {
            std::fprintf(stderr,
                         "usage: %s --threads N>=1 [instructions>0] "
                         "[warmup]\n", argv[0]);
            return 2;
        }
        Logger::setQuiet(true);
        return runThreadsMode(jobs, instructions, warmup);
    }

    std::string workload = argc > 1 ? argv[1] : "stream";
    std::string policy = argc > 2 ? argv[2] : "BE-Mellow+SC+WQ";
    std::uint64_t instructions =
        argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 300'000;
    std::uint64_t warmup =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 50'000;
    std::uint64_t seed =
        argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;
    unsigned runs = argc > 6
                        ? static_cast<unsigned>(
                              std::strtoul(argv[6], nullptr, 10))
                        : 2;
    bool faults =
        argc > 7 && std::strtoul(argv[7], nullptr, 10) != 0;
    bool has_leveler = false;
    WearLevelerKind leveler = WearLevelerKind::StartGap;
    if (argc > 8) {
        has_leveler = wearLevelerKindFromName(argv[8], &leveler);
        if (!has_leveler) {
            std::fprintf(stderr, "unknown leveler '%s'\n", argv[8]);
            return 2;
        }
    }
    if (instructions == 0 || runs < 2) {
        std::fprintf(stderr,
                     "usage: %s [workload] [policy] [instructions] "
                     "[warmup] [seed] [runs>=2] [faults(0|1)] "
                     "[leveler]\n",
                     argv[0]);
        return 2;
    }

    Logger::setQuiet(true);

    std::string reference;
    for (unsigned i = 0; i < runs; ++i) {
        SystemConfig cfg;
        cfg.workloadName = workload;
        cfg.policy = policies::fromName(policy);
        cfg.instructions = instructions;
        cfg.warmupInstructions = warmup;
        cfg.seed = seed;
        if (faults)
            layerFaults(cfg);
        if (has_leveler)
            layerLeveler(cfg, leveler);

        System sys(cfg);
        SimReport r = sys.run();
        std::string dump = stateFingerprint(sys, r);

        if (i == 0) {
            reference = std::move(dump);
            if (const char *path = std::getenv("MELLOWSIM_FP_DUMP")) {
                if (std::FILE *f = std::fopen(path, "w")) {
                    std::fwrite(reference.data(), 1, reference.size(),
                                f);
                    std::fclose(f);
                } else {
                    std::fprintf(stderr,
                                 "warning: cannot write fingerprint "
                                 "to %s\n", path);
                }
            }
        } else if (dump != reference) {
            std::fprintf(stderr,
                         "FAIL: run %u of %s/%s (seed %" PRIu64
                         ") diverged from run 1\n",
                         i + 1, workload.c_str(), policy.c_str(),
                         seed);
            reportFirstDiff(reference, dump);
            return 1;
        }
    }

    std::printf("OK: %u runs of %s/%s (%" PRIu64
                " instrs, seed %" PRIu64
                ") produced byte-identical stats (%zu-byte dump)\n",
                runs, workload.c_str(), policy.c_str(), instructions,
                seed, reference.size());
    return 0;
}
