/**
 * @file
 * Golden-fingerprint regression tests.
 *
 * Each case runs one short configuration (200 k instructions) and
 * compares stateFingerprint() byte for byte against a pinned file in
 * tests/golden/. The cases cover model paths the perfbench digests do
 * not: the decay dead-block eager selector, multi-channel systems
 * (where the eager-queue gate ORs across channels), E-Mellow, an
 * eager queue of depth 1, and fault injection with a capacity floor
 * that is armed but never reached. Built with MELLOWSIM_CHECKS=ON,
 * the same pins must hold with the periodic invariant audits
 * interleaved into the event stream.
 *
 * A mismatch reports the first differing line and writes the new
 * fingerprint next to the test binary (golden_actual/<name>.fp). A
 * change that is meant to move results re-pins by copying those
 * files over tests/golden/ and says so in its change log.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mellow/policy.hh"
#include "sim/logging.hh"
#include "system/report.hh"
#include "system/system.hh"

using namespace mellowsim;

namespace
{

struct GoldenCase
{
    const char *name;
    SystemConfig config;
};

void
PrintTo(const GoldenCase &c, std::ostream *os)
{
    *os << c.name;
}

SystemConfig
baseConfig(const char *workload, const WritePolicyConfig &policy)
{
    SystemConfig cfg;
    cfg.workloadName = workload;
    cfg.policy = policy;
    cfg.instructions = 200'000;
    cfg.warmupInstructions = 50'000;
    cfg.seed = 1;
    // Small caches and a 20 us T_sample, so that dirty lines reach
    // memory and useless stack positions inside the short run (with
    // the stock 500 us period no profiling period would complete and
    // every eager scan would come back empty).
    cfg.hierarchy.l1.sizeBytes = 4 * 1024;
    cfg.hierarchy.l2.sizeBytes = 16 * 1024;
    cfg.hierarchy.llc.cache.sizeBytes = 64 * 1024;
    cfg.hierarchy.llc.profiler.samplePeriod = 20 * kMicrosecond;
    return cfg;
}

std::vector<GoldenCase>
goldenCases()
{
    using namespace policies;
    std::vector<GoldenCase> cases;

    SystemConfig decay = baseConfig("mcf", beMellow().withSC().withWQ());
    decay.hierarchy.llc.selector = EagerSelector::DecayDeadBlock;
    cases.push_back({"decay_dead_block", decay});

    SystemConfig two = baseConfig("gups", beMellow().withSC());
    two.numChannels = 2;
    cases.push_back({"channels2", two});

    SystemConfig four = baseConfig("stream", beMellow().withSC().withWQ());
    four.numChannels = 4;
    cases.push_back({"channels4", four});

    // E-Mellow: eager write backs issued slowly, no bank-aware slow
    // demand writes.
    WritePolicyConfig e_mellow;
    e_mellow.name = "E-Mellow";
    e_mellow.eager = true;
    e_mellow.eagerSlow = true;
    cases.push_back({"e_mellow", baseConfig("lbm", e_mellow.withSC())});

    SystemConfig depth1 = baseConfig("mcf", beMellow().withSC());
    depth1.memory.eagerQueueSize = 1;
    cases.push_back({"eager_queue_depth1", depth1});

    SystemConfig faults = baseConfig("stream", beMellow().withSC().withWQ());
    FaultConfig &f = faults.memory.fault;
    f.enabled = true;
    f.enduranceScale = 1e-9;
    f.enduranceSigma = 1.0;
    f.transientFailProb = 0.02;
    f.maxRetries = 3;
    f.repairEntriesPerLine = 0;
    f.spareLinesPerBank = 2;
    // Lines die and capacity shrinks, but the armed floor stays far
    // out of reach: it is tested after every event and never stops
    // the run.
    f.capacityFloorFraction = 0.5;
    faults.memory.geometry.capacityBytes = 64ull << 20;
    cases.push_back({"faults_floor_unreached", faults});

    return cases;
}

std::string
readFile(const std::filesystem::path &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** "line N: pinned <a> / got <b>" for the first differing line. */
std::string
firstDiff(const std::string &pinned, const std::string &actual)
{
    std::istringstream a(pinned), b(actual);
    std::string la, lb;
    for (unsigned lineno = 1;; ++lineno) {
        bool ga = static_cast<bool>(std::getline(a, la));
        bool gb = static_cast<bool>(std::getline(b, lb));
        if (!ga && !gb)
            return "identical";
        if (ga != gb || la != lb) {
            return "line " + std::to_string(lineno) + ": pinned '" +
                   (ga ? la : "<end>") + "' / got '" +
                   (gb ? lb : "<end>") + "'";
        }
    }
}

class Golden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(Golden, FingerprintMatchesPin)
{
    Logger::setQuiet(true);
    const GoldenCase &c = GetParam();
    System sys(c.config);
    SimReport r = sys.run();
    ASSERT_EQ(r.status, ReportStatus::Ok);
    const std::string actual = stateFingerprint(sys, r);

    const std::filesystem::path pin =
        std::filesystem::path(MELLOWSIM_GOLDEN_DIR) /
        (std::string(c.name) + ".fp");
    ASSERT_TRUE(std::filesystem::exists(pin)) << pin;
    const std::string pinned = readFile(pin);
    if (pinned != actual) {
        const std::filesystem::path out_dir =
            std::filesystem::path(MELLOWSIM_GOLDEN_ACTUAL_DIR);
        std::filesystem::create_directories(out_dir);
        std::ofstream(out_dir / (std::string(c.name) + ".fp"),
                      std::ios::binary)
            << actual;
    }
    EXPECT_TRUE(pinned == actual)
        << c.name << " diverged from its pin at "
        << firstDiff(pinned, actual);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Golden, ::testing::ValuesIn(goldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase> &info) {
        return std::string(info.param.name);
    });

} // namespace
