/**
 * @file
 * perfbench: times one benchmark workload end to end (untraced) or
 * per layer (traced), checks the model's outputs, and prints one JSON
 * object as its last line of output. perfbench/run.py builds this
 * program and is the benchmark's entry point; see perfbench/README.md
 * for the workloads and every metric.
 *
 *   perfbench --workload <eager-mix|demand-mix|paper-sweep>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --instrs <n> --warmup <n> --jobs <n>
 *             [--trace-out <file>]
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "passes.hh"
#include "sim/alloc_counter.hh"
#include "sim/logging.hh"

using namespace perfbench;
using mellowsim::SimReport;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    std::uint64_t instrs = 0;
    std::uint64_t warmup = 0;
    unsigned jobs = 0;
    std::string traceOut;
};

std::uint64_t
parseCount(const char *flag, const char *text, bool allowZero)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(text, &end, 10);
    fatal_if(end == text || *end != '\0' || (!allowZero && v == 0),
             "%s needs a %s integer, got '%s'", flag,
             allowZero ? "non-negative" : "positive", text);
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        fatal_if(i + 1 >= argc, "%s needs a value", flag);
        const char *v = argv[++i];
        if (std::strcmp(flag, "--workload") == 0)
            a.workload = v;
        else if (std::strcmp(flag, "--seed") == 0)
            a.seed = parseCount(flag, v, true);
        else if (std::strcmp(flag, "--seconds") == 0)
            a.seconds = static_cast<double>(parseCount(flag, v, false));
        else if (std::strcmp(flag, "--trace") == 0)
            a.trace = static_cast<int>(parseCount(flag, v, true));
        else if (std::strcmp(flag, "--instrs") == 0)
            a.instrs = parseCount(flag, v, false);
        else if (std::strcmp(flag, "--warmup") == 0)
            a.warmup = parseCount(flag, v, true);
        else if (std::strcmp(flag, "--jobs") == 0)
            a.jobs = static_cast<unsigned>(parseCount(flag, v, false));
        else if (std::strcmp(flag, "--trace-out") == 0)
            a.traceOut = v;
        else
            fatal("unknown flag '%s'", flag);
    }
    fatal_if(a.workload.empty() || a.seconds <= 0.0 || a.trace < 0 ||
                 a.trace > 1 || a.instrs == 0 || a.jobs == 0,
             "--workload, --seconds, --trace 0|1, --instrs and --jobs "
             "are required");
    return a;
}

/** Sample quartiles (Python statistics.quantiles, exclusive method). */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};

double
quantile(std::vector<double> v, double p)
{
    std::sort(v.begin(), v.end());
    if (v.size() == 1)
        return v[0];
    double pos = p * static_cast<double>(v.size() + 1) - 1.0;
    pos = std::clamp(pos, 0.0, static_cast<double>(v.size() - 1));
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Summary
summarize(const std::vector<double> &v)
{
    Summary s;
    s.n = v.size();
    if (v.empty())
        return s;
    s.median = quantile(v, 0.5);
    s.q1 = quantile(v, 0.25);
    s.q3 = quantile(v, 0.75);
    return s;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
geoMean(const std::vector<double> &v)
{
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return v.empty() ? 0.0
                     : std::exp(log_sum / static_cast<double>(v.size()));
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

class Output
{
  public:
    void
    add(const std::string &name, double value, const char *unit,
        const Summary *spread = nullptr)
    {
        _metrics.push_back({name, value, unit});
        if (spread != nullptr) {
            std::printf("  %-34s %14.6g %-12s median of %zu, "
                        "q1 %.6g, q3 %.6g\n",
                        name.c_str(), value, unit, spread->n, spread->q1,
                        spread->q3);
        } else {
            std::printf("  %-34s %14.6g %s\n", name.c_str(), value, unit);
        }
    }

    [[nodiscard]] const std::vector<Metric> &metrics() const
    {
        return _metrics;
    }

  private:
    std::vector<Metric> _metrics;
};

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (char c : s) {
        if (c == '"' || c == '\\')
            std::putchar('\\');
        std::putchar(c);
    }
    std::putchar('"');
}

void
printJsonNumber(double v)
{
    if (std::isfinite(v))
        std::printf("%.17g", v);
    else
        std::printf("null");
}

/** Per-config outcome, merged over every pass of the run. */
struct Verdict
{
    std::vector<std::uint64_t> hashes;
    std::vector<std::string> reasons;

    explicit Verdict(std::size_t n) : hashes(n, 0), reasons(n) {}

    void
    fail(std::size_t i, const std::string &why)
    {
        if (reasons[i].empty())
            reasons[i] = why;
    }

    /** Fold one pass in: invalid reports fail, and every pass of a
     * config must produce the same fingerprint. */
    void
    fold(const std::vector<std::uint64_t> &passHashes,
         const std::vector<bool> &invalid, const char *what)
    {
        for (std::size_t i = 0; i < hashes.size(); ++i) {
            if (invalid[i])
                fail(i, std::string(what) + " run invalid or not ok");
            else if (hashes[i] == 0)
                hashes[i] = passHashes[i];
            else if (hashes[i] != passHashes[i])
                fail(i, std::string(what) +
                            " fingerprint differs from earlier run");
        }
    }
};

/** Run @p pass until @p seconds have elapsed and at least @p minReps
 * passes are done. */
template <typename Pass>
void
repeatFor(double seconds, unsigned minReps, Pass &&pass)
{
    const std::uint64_t t0 = nowNs();
    for (unsigned rep = 0;; ++rep) {
        if (rep >= minReps &&
            static_cast<double>(nowNs() - t0) * 1e-9 >= seconds)
            break;
        pass();
    }
}

/** Counts that must repeat exactly between traced passes. */
std::vector<std::uint64_t>
countSignature(const TracedPass &pass)
{
    std::vector<std::uint64_t> sig;
    for (const auto &c : pass.configs) {
        for (std::uint64_t v :
             {c->events, c->warmupNext.calls, c->detailedNext.calls,
              c->prime.calls, c->port.read.calls, c->port.writeback.calls,
              c->port.eagerWrite.calls, c->port.poll.calls,
              c->port.pollPassed, c->port.eagerAccepted})
            sig.push_back(v);
    }
    sig.push_back(pass.allocations);
    return sig;
}

void
writeTrace(const std::string &path, const WorkloadPlan &plan,
           const std::vector<TracedPass> &passes, std::uint64_t originNs)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot write trace to '%s'", path.c_str());
        return;
    }
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    for (std::size_t p = 0; p < passes.size(); ++p) {
        for (std::size_t i = 0; i < plan.configs.size(); ++i) {
            const TracedConfig &c = *passes[p].configs[i];
            const std::vector<Span> &spans = c.spans.spans();
            for (std::size_t s = 0; s < spans.size(); ++s) {
                const Span &sp = spans[s];
                std::fprintf(
                    f,
                    "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%zu,"
                    "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                    "\"config\":\"%s\",\"span\":%zu,\"parent\":%d",
                    first ? "" : ",\n", sp.name, p, i,
                    static_cast<double>(sp.startNs - originNs) * 1e-3,
                    static_cast<double>(sp.endNs - sp.startNs) * 1e-3,
                    plan.ids[i].c_str(), s, sp.parent);
                first = false;
                auto probe = [&](const char *name, const Probe &pr) {
                    std::fprintf(f,
                                 ",\"%s.calls\":%llu,\"%s.ns\":%llu",
                                 name,
                                 static_cast<unsigned long long>(pr.calls),
                                 name,
                                 static_cast<unsigned long long>(pr.ns));
                };
                const std::string name = sp.name;
                if (name == "warmup") {
                    probe("workload.next", c.warmupNext);
                    probe("hierarchy.prime", c.prime);
                } else if (name == "detailed") {
                    probe("workload.next", c.detailedNext);
                    probe("port.read", c.port.read);
                    probe("port.writeback", c.port.writeback);
                    probe("port.eagerWrite", c.port.eagerWrite);
                    probe("port.eagerQueueHasSpace", c.port.poll);
                    std::fprintf(
                        f, ",\"events\":%llu,\"spans_dropped\":%llu",
                        static_cast<unsigned long long>(c.events),
                        static_cast<unsigned long long>(
                            c.spans.dropped()));
                }
                std::fprintf(f, "}}");
            }
        }
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

/** Peak resident set of this process image in MiB (VmHWM, which,
 * unlike getrusage's ru_maxrss, does not carry over the parent's peak
 * across exec). */
double
peakRssMiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    fatal_if(f == nullptr, "cannot read /proc/self/status");
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::strtod(line + 6, nullptr);
    }
    std::fclose(f);
    fatal_if(kib <= 0.0, "no VmHWM in /proc/self/status");
    return kib / 1024.0;
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

void
endToEnd(const Args &args, const WorkloadPlan &plan, Verdict &verdict,
         Output &out)
{
    // A set-up pass precedes every timed pass so that both sample the
    // same stretch of host speed. Each sample is the mean over the
    // copies that ran at once.
    std::vector<double> setup, wall, cpu, mips;
    repeatFor(args.seconds, 3, [&] {
        setup.push_back(mean(setupPass(plan, args.jobs)));
        std::vector<double> w, c, m;
        for (const UntracedPass &pass : untracedPass(plan, plan.copies)) {
            verdict.fold(pass.hashes, pass.invalid, "untraced");
            w.push_back(pass.wallS);
            c.push_back(pass.cpuS);
            m.push_back(ratio(static_cast<double>(pass.instructions),
                              pass.wallS) *
                        1e-6);
        }
        wall.push_back(mean(w));
        cpu.push_back(mean(c));
        mips.push_back(mean(m));
    });

    Summary s_wall = summarize(wall), s_mips = summarize(mips),
            s_setup = summarize(setup), s_cpu = summarize(cpu);
    std::printf("end-to-end metrics (tracing off; %u cop%s at once):\n",
                plan.copies, plan.copies == 1 ? "y" : "ies");
    out.add("wall_s", s_wall.median, "s", &s_wall);
    out.add("sim_minstr_per_s", s_mips.median, "Minstr/s", &s_mips);
    out.add("setup_s", s_setup.median, "s", &s_setup);
    out.add("cpu_s", s_cpu.median, "s", &s_cpu);
    out.add("peak_rss_mb", peakRssMiB(), "MiB");
}

void
perLayer(const Args &args, const WorkloadPlan &plan, Verdict &verdict,
         Output &out)
{
    const std::uint64_t origin = nowNs();
    std::vector<double> untraced_wall;
    // Traced and untraced passes both run as a single copy, so that
    // their wall times compare.
    repeatFor(args.seconds / 2, 1, [&] {
        UntracedPass pass = untracedPass(plan, 1).front();
        verdict.fold(pass.hashes, pass.invalid, "untraced");
        untraced_wall.push_back(pass.wallS);
    });

    std::vector<TracedPass> passes;
    repeatFor(args.seconds / 2, 2, [&] {
        passes.push_back(tracedPass(plan));
        verdict.fold(passes.back().hashes, passes.back().invalid,
                     "traced");
    });
    const std::vector<std::uint64_t> sig = countSignature(passes[0]);
    for (const TracedPass &p : passes) {
        if (countSignature(p) != sig) {
            for (std::size_t i = 0; i < plan.configs.size(); ++i)
                verdict.fail(i, "traced counts differ between passes");
        }
    }

    // Counts and model outputs: from the first pass (all passes agree).
    const TracedPass &p0 = passes[0];
    double instrs = 0, events = 0, polls = 0, passed = 0, accepted = 0;
    double next_detail = 0, reads = 0, wbs = 0, eager = 0;
    double rob = 0, mshr = 0, dep = 0;
    double accesses = 0, l1 = 0, l2 = 0, llc = 0, misses = 0;
    double merges = 0, blocked = 0, eager_sent = 0, eager_wasted = 0;
    double lat = 0, util = 0, drain = 0, bank_writes = 0, slow = 0;
    double cancelled = 0, q_periods = 0, q_slow = 0, energy = 0;
    std::vector<double> ipcs, lifetimes;
    for (const auto &c : p0.configs) {
        const SimReport &r = c->report;
        instrs += static_cast<double>(r.instructions);
        events += static_cast<double>(c->events);
        polls += static_cast<double>(c->port.poll.calls);
        passed += static_cast<double>(c->port.pollPassed);
        accepted += static_cast<double>(c->port.eagerAccepted);
        next_detail += static_cast<double>(c->detailedNext.calls);
        reads += static_cast<double>(c->port.read.calls);
        wbs += static_cast<double>(c->port.writeback.calls);
        eager += static_cast<double>(c->port.eagerWrite.calls);
        rob += static_cast<double>(c->core.robStalls);
        mshr += static_cast<double>(c->core.mshrStalls);
        dep += static_cast<double>(c->core.depStalls);
        accesses += static_cast<double>(c->accesses);
        l1 += static_cast<double>(c->l1Hits);
        l2 += static_cast<double>(c->l2Hits);
        llc += static_cast<double>(c->llcHits);
        misses += static_cast<double>(c->llcMisses);
        merges += static_cast<double>(c->mshrMerges);
        blocked += static_cast<double>(c->blocked);
        eager_sent += static_cast<double>(r.eagerSent);
        eager_wasted += static_cast<double>(r.eagerWasted);
        lat += r.avgReadLatencyNs;
        util += r.avgBankUtilization;
        drain += r.drainTimeFraction;
        bank_writes += static_cast<double>(r.totalBankWrites());
        slow += static_cast<double>(r.issuedSlowWrites + r.issuedEagerSlow);
        cancelled += static_cast<double>(r.cancelledWrites);
        q_periods += static_cast<double>(r.quotaPeriods);
        q_slow += static_cast<double>(r.quotaSlowOnlyPeriods);
        energy += r.totalEnergyPj.value();
        ipcs.push_back(r.ipc);
        lifetimes.push_back(r.lifetimeYears);
    }
    const double kinstr = instrs / 1000.0;
    const double n_configs = static_cast<double>(p0.configs.size());

    // Host times: per pass, then the median over passes.
    std::vector<double> ns_event, prime_ns, next_ns, port_ns, p50, p90,
        efficiency, traced_wall;
    for (const TracedPass &p : passes) {
        double self = 0, prime_t = 0, prime_n = 0, next_t = 0, next_n = 0;
        double port_t = 0, port_n = 0, sum_config = 0;
        std::vector<double> config_s;
        for (const auto &c : p.configs) {
            self += static_cast<double>(c->detailedNs - c->detailedNext.ns -
                                        c->portNs);
            prime_t += static_cast<double>(c->prime.ns);
            prime_n += static_cast<double>(c->prime.calls);
            next_t += static_cast<double>(c->warmupNext.ns +
                                          c->detailedNext.ns);
            next_n += static_cast<double>(c->warmupNext.calls +
                                          c->detailedNext.calls);
            port_t += static_cast<double>(c->portNs);
            port_n += static_cast<double>(
                c->port.read.calls + c->port.writeback.calls +
                c->port.eagerWrite.calls + c->port.poll.calls);
            const Span &root = c->spans.spans().front();
            config_s.push_back(
                static_cast<double>(root.endNs - root.startNs) * 1e-9);
            sum_config += config_s.back();
        }
        ns_event.push_back(ratio(self, events));
        prime_ns.push_back(ratio(prime_t, prime_n));
        next_ns.push_back(ratio(next_t, next_n));
        port_ns.push_back(ratio(port_t, port_n));
        p50.push_back(quantile(config_s, 0.5));
        p90.push_back(quantile(config_s, 0.9));
        efficiency.push_back(
            ratio(sum_config, p.wallS * static_cast<double>(plan.jobs)));
        traced_wall.push_back(p.wallS);
    }
    auto med = [](const std::vector<double> &v) {
        return summarize(v).median;
    };
    Summary s_ns_event = summarize(ns_event), s_prime = summarize(prime_ns),
            s_next = summarize(next_ns), s_port = summarize(port_ns),
            s_p50 = summarize(p50), s_p90 = summarize(p90),
            s_eff = summarize(efficiency);

    std::printf("per-layer metrics (traced, %zu traced and %zu untraced "
                "passes; counts per detailed kinstr):\n",
                passes.size(), untraced_wall.size());
    out.add("sim.events_per_kinstr", ratio(events, kinstr), "1/kinstr");
    out.add("sim.ns_per_event", s_ns_event.median, "ns", &s_ns_event);
    out.add("cache.scan.polls_per_kinstr", ratio(polls, kinstr),
            "1/kinstr");
    out.add("cache.scan.gate_pass_ratio", ratio(passed, polls), "ratio");
    out.add("cache.scan.useful_ratio", ratio(accepted, polls), "ratio");
    out.add("cache.prime_ns_per_op", s_prime.median, "ns", &s_prime);
    out.add("workload.ns_per_op", s_next.median, "ns", &s_next);
    out.add("workload.ops_per_kinstr", ratio(next_detail, kinstr),
            "1/kinstr");
    out.add("nvm.port.reads_per_kinstr", ratio(reads, kinstr), "1/kinstr");
    out.add("nvm.port.writebacks_per_kinstr", ratio(wbs, kinstr),
            "1/kinstr");
    out.add("nvm.port.eager_per_kinstr", ratio(eager, kinstr), "1/kinstr");
    out.add("nvm.port.ns_per_call", s_port.median, "ns", &s_port);
    fatal_if(!mellowsim::alloccounter::enabled(),
             "the library was built without the allocation counter");
    out.add("system.allocs_per_kinstr",
            ratio(static_cast<double>(p0.allocations), kinstr), "1/kinstr");
    out.add("system.config_s.p50", s_p50.median, "s", &s_p50);
    out.add("system.config_s.p90", s_p90.median, "s", &s_p90);
    out.add("system.config_s.n", n_configs, "count");
    out.add("system.parallel_efficiency", s_eff.median, "ratio", &s_eff);
    out.add("trace.overhead_ratio",
            ratio(med(traced_wall), med(untraced_wall)), "ratio");

    std::printf("model outputs (must not move in a perf change):\n");
    out.add("cpu.ipc", geoMean(ipcs), "instr/cycle");
    out.add("cpu.rob_stalls_per_kinstr", ratio(rob, kinstr), "1/kinstr");
    out.add("cpu.mshr_stalls_per_kinstr", ratio(mshr, kinstr), "1/kinstr");
    out.add("cpu.dep_stalls_per_kinstr", ratio(dep, kinstr), "1/kinstr");
    out.add("cache.llc_mpki", ratio(misses, kinstr), "1/kinstr");
    out.add("cache.l1_hit_ratio", ratio(l1, accesses), "ratio");
    out.add("cache.l2_hit_ratio", ratio(l2, accesses - l1), "ratio");
    out.add("cache.llc_hit_ratio", ratio(llc, accesses - l1 - l2), "ratio");
    out.add("cache.mshr_merges_per_kinstr", ratio(merges, kinstr),
            "1/kinstr");
    out.add("cache.blocked_per_kinstr", ratio(blocked, kinstr), "1/kinstr");
    out.add("cache.eager.wasted_ratio", ratio(eager_wasted, eager_sent),
            "ratio");
    out.add("nvm.read_latency_ns", lat / n_configs, "ns");
    out.add("nvm.bank_utilization", util / n_configs, "ratio");
    out.add("nvm.drain_fraction", drain / n_configs, "ratio");
    out.add("nvm.slow_write_ratio", ratio(slow, bank_writes), "ratio");
    out.add("nvm.cancelled_per_kwrite",
            ratio(1000.0 * cancelled, bank_writes), "1/kwrite");
    out.add("mellow.quota_slow_only_ratio", ratio(q_slow, q_periods),
            "ratio");
    out.add("wear.lifetime_years", geoMean(lifetimes), "years");
    out.add("energy.pj_per_instr", ratio(energy, instrs), "pJ/instr");

    if (!args.traceOut.empty())
        writeTrace(args.traceOut, plan, passes, origin);
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args args = parseArgs(argc, argv);
        const WorkloadPlan plan = makePlan(args.workload, args.seed,
                                           args.instrs, args.warmup,
                                           args.jobs);
        std::printf("perfbench: workload=%s seed=%llu configs=%zu "
                    "jobs=%u instrs=%llu warmup=%llu trace=%d\n",
                    plan.name.c_str(),
                    static_cast<unsigned long long>(args.seed),
                    plan.configs.size(), plan.jobs,
                    static_cast<unsigned long long>(args.instrs),
                    static_cast<unsigned long long>(args.warmup),
                    args.trace);

        Verdict verdict(plan.configs.size());
        Output out;
        if (args.trace == 0)
            endToEnd(args, plan, verdict, out);
        else
            perLayer(args, plan, verdict, out);

        for (std::size_t i = 0; i < plan.ids.size(); ++i) {
            if (!verdict.reasons[i].empty())
                std::printf("FAILED %s: %s\n", plan.ids[i].c_str(),
                            verdict.reasons[i].c_str());
        }
        std::fflush(stdout);

        // Last line: the machine-readable result for run.py.
        std::printf("{\"workload\":");
        printJsonString(plan.name);
        std::printf(",\"build_type\":");
        printJsonString(PERFBENCH_BUILD_TYPE);
        std::printf(",\"alloc_counter\":%s,\"configs\":[",
                    mellowsim::alloccounter::enabled() ? "true" : "false");
        for (std::size_t i = 0; i < plan.ids.size(); ++i) {
            std::printf("%s{\"id\":", i ? "," : "");
            printJsonString(plan.ids[i]);
            std::printf(",\"hash\":\"%016llx\",\"failure\":",
                        static_cast<unsigned long long>(verdict.hashes[i]));
            printJsonString(verdict.reasons[i]);
            std::printf("}");
        }
        std::printf("],\"metrics\":{");
        for (std::size_t i = 0; i < out.metrics().size(); ++i) {
            const Metric &m = out.metrics()[i];
            std::printf("%s", i ? "," : "");
            printJsonString(m.name);
            std::printf(":{\"value\":");
            printJsonNumber(m.value);
            std::printf(",\"unit\":");
            printJsonString(m.unit);
            std::printf("}");
        }
        std::printf("}}\n");
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}
