/** @file Unit tests for the statistics primitives. */

#include <gtest/gtest.h>

#include "sim/logging.hh"
#include "sim/stats.hh"

using namespace mellowsim;
using namespace mellowsim::stats;

TEST(Counter, IncrementsAndAdds)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    c++;
    c += 10;
    EXPECT_EQ(c.value(), 12u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Average, MeanMinMax)
{
    Average a;
    EXPECT_EQ(a.mean(), 0.0);
    a.sample(1.0);
    a.sample(2.0);
    a.sample(6.0);
    EXPECT_DOUBLE_EQ(a.mean(), 3.0);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 6.0);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_DOUBLE_EQ(a.sum(), 9.0);
}

TEST(Average, ResetClearsEverything)
{
    Average a;
    a.sample(5.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.mean(), 0.0);
    EXPECT_EQ(a.min(), 0.0);
    EXPECT_EQ(a.max(), 0.0);
}

TEST(BusyTracker, DisjointIntervalsAccumulate)
{
    BusyTracker t;
    t.markBusyUntil(0, 10);
    t.markBusyUntil(20, 30);
    EXPECT_EQ(t.busyTicks(), 20u);
}

TEST(BusyTracker, OverlapMergesNotDoubleCounts)
{
    BusyTracker t;
    t.markBusyUntil(0, 10);
    t.markBusyUntil(5, 15); // extends by 5
    EXPECT_EQ(t.busyTicks(), 15u);
    t.markBusyUntil(6, 12); // fully contained
    EXPECT_EQ(t.busyTicks(), 15u);
}

TEST(BusyTracker, EmptyIntervalIgnored)
{
    BusyTracker t;
    t.markBusyUntil(10, 10);
    t.markBusyUntil(10, 5);
    EXPECT_EQ(t.busyTicks(), 0u);
}

TEST(BusyTracker, TruncateGivesBackFutureTime)
{
    BusyTracker t;
    t.markBusyUntil(0, 100);
    t.truncateAt(40);
    EXPECT_EQ(t.busyTicks(), 40u);
    EXPECT_EQ(t.busyUntil(), 40u);
}

TEST(BusyTracker, UtilizationFraction)
{
    BusyTracker t;
    t.markBusyUntil(0, 25);
    EXPECT_DOUBLE_EQ(t.utilization(100), 0.25);
    EXPECT_DOUBLE_EQ(t.utilization(0), 0.0);
}

TEST(BusyTracker, UtilizationClampedToOne)
{
    BusyTracker t;
    t.markBusyUntil(0, 100);
    // Busy beyond the measured horizon cannot exceed 100%.
    EXPECT_DOUBLE_EQ(t.utilization(50), 1.0);
}

TEST(Histogram, BucketsSamples)
{
    Histogram h(10.0, 5);
    h.sample(0.5);  // bucket 0
    h.sample(3.0);  // bucket 1
    h.sample(9.9);  // bucket 4
    h.sample(15.0); // clamped to bucket 4
    h.sample(-1.0); // clamped to bucket 0
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[4], 2u);
}

TEST(GeoMean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geoMean({2.0, 2.0, 2.0}), 2.0);
    EXPECT_EQ(geoMean({}), 0.0);
}

TEST(GeoMean, RejectsNonPositive)
{
    EXPECT_THROW(geoMean({1.0, 0.0}), PanicError);
    EXPECT_THROW(geoMean({1.0, -2.0}), PanicError);
}
