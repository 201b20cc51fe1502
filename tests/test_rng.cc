/** @file Unit and statistical tests for the xorshift128+ RNG. */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sim/rng.hh"
#include "workload/generators.hh"
#include "workload/workload.hh"

using namespace mellowsim;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, ZeroSeedWorks)
{
    Rng r(0);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 100; ++i)
        seen.insert(r.next());
    EXPECT_GT(seen.size(), 95u);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng r(7);
    for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
        for (int i = 0; i < 1000; ++i)
            EXPECT_LT(r.nextBounded(bound), bound);
    }
}

TEST(Rng, BoundedOneAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.nextBounded(1), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng r(123);
    constexpr int kBuckets = 16;
    constexpr int kDraws = 160000;
    int counts[kBuckets] = {};
    for (int i = 0; i < kDraws; ++i)
        ++counts[r.nextBounded(kBuckets)];
    // Each bucket should be within 5% of the expected count.
    for (int c : counts) {
        EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.05);
    }
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(9);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        double v = r.nextDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BoolRespectsProbability)
{
    Rng r(11);
    int trues = 0;
    for (int i = 0; i < 100000; ++i)
        trues += r.nextBool(0.3);
    EXPECT_NEAR(trues / 100000.0, 0.3, 0.01);
}

TEST(Rng, BoolEdgeProbabilities)
{
    Rng r(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.nextBool(0.0));
        EXPECT_TRUE(r.nextBool(1.0));
        EXPECT_FALSE(r.nextBool(-0.5));
        EXPECT_TRUE(r.nextBool(1.5));
    }
}

TEST(Rng, GeometricMeanMatches)
{
    Rng r(17);
    for (double mean : {0.5, 5.0, 80.0}) {
        double sum = 0.0;
        constexpr int kDraws = 200000;
        for (int i = 0; i < kDraws; ++i)
            sum += static_cast<double>(r.nextGeometric(mean));
        EXPECT_NEAR(sum / kDraws, mean, mean * 0.05 + 0.05);
    }
}

TEST(Rng, GeometricZeroMeanIsZero)
{
    Rng r(19);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.nextGeometric(0.0), 0u);
}

namespace
{

/** Rng::nextGeometric(mean) as written before its constant was hoisted. */
std::uint64_t
perDrawGeometric(Rng &r, double mean)
{
    if (mean <= 0.0)
        return 0;
    double u = r.nextDouble();
    double p = 1.0 / (mean + 1.0);
    double g = std::floor(std::log1p(-u) / std::log1p(-p));
    if (g < 0.0)
        g = 0.0;
    return static_cast<std::uint64_t>(g);
}

} // namespace

TEST(Rng, PrecomputedGeometricMatchesPerDrawFormula)
{
    std::vector<double> means = {0.0, -1.0, 1e-17, 0.5, 5.0, 80.0, 1e6};
    unsigned shipped = 0;
    for (const std::string &name : workloadNames()) {
        WorkloadPtr w = makeWorkload(name);
        if (const auto *s = dynamic_cast<const SyntheticWorkload *>(w.get())) {
            means.push_back(s->params().meanGap);
            ++shipped;
        }
    }
    ASSERT_GE(shipped, 11u);
    for (double mean : means) {
        Rng ref(23);
        Rng hoisted(23);
        const GeometricGap gap(mean);
        for (int i = 0; i < 1'000'000; ++i) {
            ASSERT_EQ(hoisted.nextGeometric(gap), perDrawGeometric(ref, mean))
                << "mean " << mean << " draw " << i;
        }
        // Same number of underlying draws: the generators stay in step.
        ASSERT_EQ(hoisted.next(), ref.next()) << "mean " << mean;
    }
}
