#include "system/runner.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "config/device_config.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/sync.hh"

namespace mellowsim
{

namespace
{

/**
 * Deterministic first-error collection across sweep workers.
 *
 * Workers record (sweep index, exception) and keep draining the queue;
 * rethrow() surfaces the error with the LOWEST sweep index, so the
 * reported failure is the one a serial sweep would have hit first —
 * independent of which worker thread happened to fault first.
 */
class ErrorCollector
{
  public:
    void
    record(std::size_t index, std::exception_ptr error)
    {
        sync::LockGuard guard(_mutex);
        if (index < _firstIndex) {
            _firstIndex = index;
            _firstError = error;
        }
    }

    /** Rethrow the lowest-index recorded error, if any. Call only
     * after every worker has been joined. */
    void
    rethrow()
    {
        sync::LockGuard guard(_mutex);
        if (_firstError)
            std::rethrow_exception(_firstError);
    }

  private:
    sync::Mutex _mutex;
    std::size_t _firstIndex MELLOW_GUARDED_BY(_mutex) =
        std::numeric_limits<std::size_t>::max();
    std::exception_ptr _firstError MELLOW_GUARDED_BY(_mutex);
};

/** Process-wide device selection; set before sweeps, read by
 * makeConfig on the main thread only. */
std::string &
deviceOverrideSlot()
{
    // mlint: allow(confinement-global): written only by
    // setDeviceOverride during argv/env processing, strictly before
    // any ThreadGroup worker exists; read on the main thread by
    // makeConfig. No concurrent access is possible.
    static std::string slot;
    return slot;
}

} // namespace

std::uint64_t
envCount(const char *name, std::uint64_t fallback, std::uint64_t max)
{
    const char *v = std::getenv(name);
    if (v == nullptr || *v == '\0')
        return fallback;
    fatal_if(std::isdigit(static_cast<unsigned char>(*v)) == 0,
             "%s must be a positive integer (got '%s')", name, v);
    errno = 0;
    char *end = nullptr;
    unsigned long long parsed = std::strtoull(v, &end, 10);
    fatal_if(*end != '\0', "%s must be a positive integer (got '%s')",
             name, v);
    fatal_if(errno == ERANGE || parsed > max,
             "%s is out of range (got '%s', max %llu)", name, v,
             static_cast<unsigned long long>(max));
    fatal_if(parsed == 0, "%s must be positive", name);
    return parsed;
}

void
setDeviceOverride(const std::string &nameOrPath)
{
    deviceOverrideSlot() = nameOrPath;
}

std::string
activeDeviceName()
{
    if (!deviceOverrideSlot().empty())
        return deviceOverrideSlot();
    const char *env = std::getenv("MELLOWSIM_DEVICE");
    return (env != nullptr) ? std::string(env) : std::string();
}

void
applyDeviceArgs(int &argc, char **argv)
{
    int out = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--list-devices") == 0) {
            for (const std::string &name : deviceConfigNames())
                std::printf("%s\n", name.c_str());
            std::exit(0);
        } else if (std::strcmp(argv[i], "--device") == 0) {
            fatal_if(i + 1 >= argc, "--device requires a value");
            setDeviceOverride(argv[++i]);
        } else if (std::strncmp(argv[i], "--device=", 9) == 0) {
            setDeviceOverride(argv[i] + 9);
        } else {
            argv[out++] = argv[i];
        }
    }
    argc = out;
}

SystemConfig
makeConfig(const std::string &workload, const WritePolicyConfig &policy)
{
    SystemConfig cfg;
    cfg.workloadName = workload;
    cfg.policy = policy;
    cfg.instructions = envCount("MELLOWSIM_INSTRS", cfg.instructions);
    cfg.warmupInstructions =
        envCount("MELLOWSIM_WARMUP", cfg.warmupInstructions);
    applyDeviceSelection(cfg);
    return cfg;
}

void
applyDeviceSelection(SystemConfig &cfg)
{
    const std::string device = activeDeviceName();
    if (device.empty())
        return;
    DeviceConfig dev = loadDeviceConfig(device);
    cfg.memory = dev.controller;
    cfg.numChannels = dev.numChannels;
}

SimReport
runOne(const std::string &workload, const WritePolicyConfig &policy)
{
    return runSystem(makeConfig(workload, policy));
}

std::vector<SimReport>
runConfigs(std::vector<SystemConfig> configs, unsigned jobs)
{
    std::vector<SimReport> reports(configs.size());

    if (jobs <= 1 || configs.size() <= 1) {
        for (std::size_t i = 0; i < configs.size(); ++i)
            reports[i] = runSystem(configs[i]);
        return reports;
    }

    // Each System is fully isolated, so a simple work-stealing index
    // preserves bit-identical results in deterministic slots. Workers
    // keep draining after an error so the collector can pick the
    // lowest-index failure rather than the first to arrive.
    sync::TicketCounter next;
    ErrorCollector errors;
    auto worker = [&] {
        for (;;) {
            std::size_t i = next.take();
            if (i >= configs.size())
                return;
            try {
                reports[i] = runSystem(configs[i]);
            } catch (...) {
                errors.record(i, std::current_exception());
            }
        }
    };
    unsigned n = static_cast<unsigned>(
        std::min<std::size_t>(jobs, configs.size()));
    {
        sync::ThreadGroup threads(n);
        for (unsigned t = 0; t < n; ++t)
            threads.spawn(worker);
        // ThreadGroup's destructor joins, so an exception from
        // spawn() cannot leak already-running workers.
    }
    errors.rethrow();
    return reports;
}

std::vector<SimReport>
runConfigs(std::vector<SystemConfig> configs)
{
    unsigned jobs = static_cast<unsigned>(
        envCount("MELLOWSIM_JOBS", sync::hardwareConcurrency(),
                 std::numeric_limits<unsigned>::max()));
    return runConfigs(std::move(configs), jobs);
}

std::vector<SimReport>
runGrid(const std::vector<std::string> &workloads,
        const std::vector<WritePolicyConfig> &policies,
        const std::function<void(SystemConfig &)> &tweak)
{
    std::vector<SystemConfig> configs;
    configs.reserve(workloads.size() * policies.size());
    for (const WritePolicyConfig &policy : policies) {
        for (const std::string &workload : workloads) {
            SystemConfig cfg = makeConfig(workload, policy);
            if (tweak)
                tweak(cfg);
            configs.push_back(std::move(cfg));
        }
    }
    return runConfigs(std::move(configs));
}

const SimReport &
findReport(const std::vector<SimReport> &reports,
           const std::string &workload, const std::string &policy)
{
    for (const SimReport &r : reports) {
        if (r.workload == workload && r.policy == policy)
            return r;
    }
    fatal("no report for workload '%s' policy '%s'", workload.c_str(),
          policy.c_str());
}

std::vector<double>
normalizedMetric(const std::vector<SimReport> &reports,
                 const std::vector<std::string> &workloads,
                 const std::string &policy, const std::string &baseline,
                 const std::function<double(const SimReport &)> &metric)
{
    std::vector<double> out;
    out.reserve(workloads.size());
    for (const std::string &w : workloads) {
        double value = metric(findReport(reports, w, policy));
        double base = metric(findReport(reports, w, baseline));
        fatal_if(base == 0.0,
                 "baseline metric is zero for workload '%s'", w.c_str());
        out.push_back(value / base);
    }
    return out;
}

double
geoMeanNormalized(
    const std::vector<SimReport> &reports,
    const std::vector<std::string> &workloads, const std::string &policy,
    const std::string &baseline,
    const std::function<double(const SimReport &)> &metric)
{
    return stats::geoMean(normalizedMetric(reports, workloads, policy,
                                           baseline, metric));
}

} // namespace mellowsim
