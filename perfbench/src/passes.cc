#include "passes.hh"

#include <cmath>
#include <ctime>
#include <exception>

#include "mellow/policy.hh"
#include "sim/alloc_counter.hh"
#include "sim/logging.hh"
#include "sim/sync.hh"
#include "system/runner.hh"

namespace perfbench
{

using namespace mellowsim;

namespace
{

/** The four workloads of the two mixes: pointer chasing (mcf), a
 * streaming stencil (lbm), random read-modify-write (gups) and pure
 * streaming (stream). */
const std::vector<std::string> kMixWorkloads = {"mcf", "lbm", "gups",
                                                "stream"};

bool
validReport(const SimReport &r)
{
    return r.status == ReportStatus::Ok && std::isfinite(r.ipc) &&
           r.ipc > 0.0 && std::isfinite(r.lifetimeYears) &&
           r.lifetimeYears > 0.0;
}

double
secondsSince(std::uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Run fn(copy) for every copy at once, one thread each. */
template <typename Fn>
void
concurrently(unsigned copies, Fn &&fn)
{
    if (copies <= 1) {
        fn(0u);
        return;
    }
    sync::ThreadGroup threads(copies);
    for (unsigned t = 0; t < copies; ++t)
        threads.spawn([&fn, t] { fn(t); });
}

} // namespace

WorkloadPlan
makePlan(const std::string &name, std::uint64_t seed,
         std::uint64_t instructions, std::uint64_t warmup, unsigned jobs)
{
    WorkloadPlan plan;
    plan.name = name;
    std::vector<std::string> workloads;
    std::vector<WritePolicyConfig> policySet;
    if (name == "eager-mix") {
        workloads = kMixWorkloads;
        policySet = {policies::beMellow().withSC().withWQ()};
        plan.copies = jobs;
    } else if (name == "demand-mix") {
        workloads = kMixWorkloads;
        policySet = {policies::norm()};
        plan.copies = jobs;
    } else if (name == "paper-sweep") {
        workloads = workloadNames();
        policySet = policies::paperPolicySet();
        plan.jobs = jobs;
    } else {
        fatal("unknown workload '%s'", name.c_str());
    }
    // Policy-major, the order runGrid() and the figures use.
    for (const WritePolicyConfig &policy : policySet) {
        for (const std::string &w : workloads) {
            SystemConfig cfg = makeConfig(w, policy);
            cfg.instructions = instructions;
            cfg.warmupInstructions = warmup;
            cfg.seed = seed;
            plan.configs.push_back(std::move(cfg));
            plan.ids.push_back(w + "/" + policy.name);
        }
    }
    return plan;
}

std::uint64_t
fingerprintHash(const SimReport &report)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : reportFingerprint(report)) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

std::vector<double>
setupPass(const WorkloadPlan &plan, unsigned copies)
{
    std::vector<double> totals(copies, 0.0);
    concurrently(copies, [&](unsigned copy) {
        for (const SystemConfig &cfg : plan.configs) {
            const std::uint64_t t0 = nowNs();
            System sys(cfg);
            std::uint64_t warm_instrs = 0;
            while (warm_instrs < cfg.warmupInstructions) {
                Op op = sys.workload().next();
                warm_instrs += op.gap + 1;
                sys.hierarchy().prime(LogicalAddr(op.addr), op.isWrite);
            }
            totals[copy] += secondsSince(t0);
        }
    });
    return totals;
}

std::vector<UntracedPass>
untracedPass(const WorkloadPlan &plan, unsigned copies)
{
    const std::size_t n = plan.configs.size();
    const clockid_t cpu_clock = copies == 1 ? CLOCK_PROCESS_CPUTIME_ID
                                            : CLOCK_THREAD_CPUTIME_ID;
    std::vector<UntracedPass> passes(copies);
    concurrently(copies, [&](unsigned copy) {
        UntracedPass &pass = passes[copy];
        pass.hashes.assign(n, 0);
        pass.invalid.assign(n, true);
        const double cpu0 = cpuSeconds(cpu_clock);
        const std::uint64_t t0 = nowNs();
        std::vector<SimReport> reports;
        try {
            reports = runConfigs(plan.configs, plan.jobs);
        } catch (const std::exception &e) {
            // runConfigs reports only the first error; count every
            // config.
            warn("untraced pass failed: %s", e.what());
            return;
        }
        pass.wallS = secondsSince(t0);
        pass.cpuS = cpuSeconds(cpu_clock) - cpu0;
        for (std::size_t i = 0; i < n; ++i) {
            pass.instructions += reports[i].instructions;
            pass.hashes[i] = fingerprintHash(reports[i]);
            pass.invalid[i] = !validReport(reports[i]);
        }
    });
    return passes;
}

TracedPass
tracedPass(const WorkloadPlan &plan)
{
    TracedPass pass;
    const std::size_t n = plan.configs.size();
    pass.hashes.assign(n, 0);
    pass.invalid.assign(n, true);
    // Allocate every result (and its span log) before counting, so the
    // pass's allocation count is the model's.
    for (std::size_t i = 0; i < n; ++i)
        pass.configs.push_back(std::make_unique<TracedConfig>());

    std::vector<std::string> errors(n);
    auto runOne = [&](std::size_t i) {
        try {
            runTraced(plan.configs[i], *pass.configs[i]);
        } catch (const std::exception &e) {
            errors[i] = e.what();
        }
    };

    const std::uint64_t allocs0 = alloccounter::allocations();
    const std::uint64_t t0 = nowNs();
    if (plan.jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            runOne(i);
    } else {
        // The scheduling runConfigs() uses: workers take the next
        // config index until none is left.
        sync::TicketCounter next;
        sync::ThreadGroup threads(plan.jobs);
        for (unsigned t = 0; t < plan.jobs; ++t) {
            threads.spawn([&] {
                for (std::size_t i = next.take(); i < n; i = next.take())
                    runOne(i);
            });
        }
    }
    pass.wallS = secondsSince(t0);
    pass.allocations = alloccounter::allocations() - allocs0;

    for (std::size_t i = 0; i < n; ++i) {
        if (!errors[i].empty()) {
            warn("traced %s failed: %s", plan.ids[i].c_str(),
                 errors[i].c_str());
            continue;
        }
        const SimReport &r = pass.configs[i]->report;
        pass.hashes[i] = fingerprintHash(r);
        pass.invalid[i] = !validReport(r);
    }
    return pass;
}

} // namespace perfbench
