/** @file Tests for the Equation 2 endurance model (Figure 1). */

#include <gtest/gtest.h>

#include <cmath>

#include "sim/logging.hh"
#include "wear/endurance_model.hh"

using namespace mellowsim;

TEST(EnduranceModel, BaselineEnduranceAtBaselineLatency)
{
    EnduranceModel m;
    EXPECT_DOUBLE_EQ(m.enduranceAt(150 * kNanosecond), 5.0e6);
    EXPECT_DOUBLE_EQ(m.enduranceAtFactor(PulseFactor(1.0)), 5.0e6);
}

TEST(EnduranceModel, QuadraticDefaultMatchesTableII)
{
    // Table II: 1.5x -> 1.125e7, 2x -> 2e7, 3x -> 4.5e7 writes.
    EnduranceModel m;
    EXPECT_NEAR(m.enduranceAtFactor(PulseFactor(1.5)), 1.125e7, 1.0);
    EXPECT_NEAR(m.enduranceAtFactor(PulseFactor(2.0)), 2.0e7, 1.0);
    EXPECT_NEAR(m.enduranceAtFactor(PulseFactor(3.0)), 4.5e7, 1.0);
    EXPECT_NEAR(m.enduranceAt(450 * kNanosecond), 4.5e7, 1.0);
}

TEST(EnduranceModel, LinearAndCubicExponents)
{
    EnduranceParams p;
    p.expoFactor = 1.0;
    EXPECT_NEAR(EnduranceModel(p).enduranceAtFactor(PulseFactor(3.0)),
                1.5e7, 1.0);
    p.expoFactor = 3.0;
    EXPECT_NEAR(EnduranceModel(p).enduranceAtFactor(PulseFactor(3.0)),
                1.35e8, 1.0);
}

TEST(EnduranceModel, WearIsReciprocalOfEndurance)
{
    EnduranceModel m;
    for (double n : {1.0, 1.5, 2.0, 2.5, 3.0}) {
        EXPECT_DOUBLE_EQ(m.wearPerWriteFactor(PulseFactor(n)),
                         1.0 / m.enduranceAtFactor(PulseFactor(n)));
    }
}

/** Property: endurance is monotone non-decreasing in latency. */
TEST(EnduranceModel, MonotoneInLatency)
{
    for (double expo : {0.5, 1.0, 1.5, 2.0, 2.5, 3.0}) {
        EnduranceParams p;
        p.expoFactor = expo;
        EnduranceModel m(p);
        double prev = 0.0;
        for (double n = 1.0; n <= 4.0; n += 0.01) {
            double e = m.enduranceAtFactor(PulseFactor(n));
            EXPECT_GE(e, prev);
            prev = e;
        }
    }
}

/** Property: slowing by a*b multiplies endurance gains. */
TEST(EnduranceModel, ScalingComposes)
{
    EnduranceModel m;
    double e_ab = m.enduranceAtFactor(PulseFactor(2.0 * 1.5));
    double gain_a = m.enduranceAtFactor(PulseFactor(2.0)) /
                    m.enduranceAtFactor(PulseFactor(1.0));
    double gain_b = m.enduranceAtFactor(PulseFactor(1.5)) /
                    m.enduranceAtFactor(PulseFactor(1.0));
    EXPECT_NEAR(e_ab, 5.0e6 * gain_a * gain_b / 1.0, 1e-3 * e_ab);
}

TEST(EnduranceModel, RejectsBadParameters)
{
    EnduranceParams p;
    p.baseWriteLatency = 0;
    EXPECT_THROW(EnduranceModel{p}, FatalError);

    p = EnduranceParams{};
    p.baseEndurance = 0.0;
    EXPECT_THROW(EnduranceModel{p}, FatalError);

    p = EnduranceParams{};
    p.expoFactor = -1.0;
    EXPECT_THROW(EnduranceModel{p}, FatalError);
}

TEST(EnduranceModel, NonPositiveFactorsAreUnrepresentable)
{
    // The PulseFactor type clamps to the baseline at construction, so
    // the factor path can no longer be called with a sub-baseline
    // ratio at all; the raw-latency path still rejects zero loudly.
    EnduranceModel m;
    EXPECT_DOUBLE_EQ(m.enduranceAtFactor(PulseFactor(0.0)), 5.0e6);
    EXPECT_DOUBLE_EQ(m.enduranceAtFactor(PulseFactor(-2.0)), 5.0e6);
    EXPECT_THROW((void)m.enduranceAt(0), FatalError);
}

/**
 * The two-entry wear memo: alternating latencies (more of them than
 * the memo holds, so entries are evicted and recomputed) each give
 * exactly what a fresh model computes, through both entry points.
 */
TEST(EnduranceModel, MemoizedWearMatchesFreshModel)
{
    EnduranceParams p;
    p.expoFactor = 2.5;
    EnduranceModel memo(p);
    const Tick latencies[] = {150 * kNanosecond, 450 * kNanosecond,
                              150 * kNanosecond, 300 * kNanosecond,
                              450 * kNanosecond, 225 * kNanosecond,
                              150 * kNanosecond, 150 * kNanosecond,
                              300 * kNanosecond, 450 * kNanosecond};
    for (int round = 0; round < 3; ++round) {
        for (Tick lat : latencies) {
            const double fresh = EnduranceModel(p).wearPerWrite(lat);
            EXPECT_EQ(memo.wearPerWrite(lat), fresh) << lat;
            // The factor path shares the memo, keyed by the same ratio.
            const double n = static_cast<double>(lat) /
                             static_cast<double>(p.baseWriteLatency);
            EXPECT_EQ(memo.wearPerWriteFactor(PulseFactor(n)),
                      EnduranceModel(p).wearPerWriteFactor(PulseFactor(n)))
                << lat;
        }
    }
}

TEST(EnduranceModel, MemoNeverAnswersAnUncomputedLatency)
{
    // Latency 0 is rejected on a fresh model and after the memo has
    // been filled, and a failed computation leaves the memo usable.
    EXPECT_THROW((void)EnduranceModel().wearPerWrite(0), FatalError);
    EnduranceModel m;
    const double base = m.wearPerWrite(150 * kNanosecond);
    const double slow = m.wearPerWrite(450 * kNanosecond);
    EXPECT_THROW((void)m.wearPerWrite(0), FatalError);
    EXPECT_EQ(m.wearPerWrite(150 * kNanosecond), base);
    EXPECT_EQ(m.wearPerWrite(450 * kNanosecond), slow);
    EXPECT_THROW((void)m.wearPerWrite(0), FatalError);
}

/** Parameterised sweep over the Figure 1 Expo_Factor family. */
class EnduranceSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(EnduranceSweep, FigureOneCurveShape)
{
    EnduranceParams p;
    p.expoFactor = GetParam();
    EnduranceModel m(p);
    // Endurance(N) / Endurance(1) == N^expo for all N.
    for (double n : {1.0, 1.5, 2.0, 2.5, 3.0}) {
        double ratio = m.enduranceAtFactor(PulseFactor(n)) /
                       m.enduranceAtFactor(PulseFactor(1.0));
        EXPECT_NEAR(ratio, std::pow(n, p.expoFactor), 1e-9 * ratio);
    }
}

INSTANTIATE_TEST_SUITE_P(ExpoFactors, EnduranceSweep,
                         ::testing::Values(1.0, 1.5, 2.0, 2.5, 3.0));
