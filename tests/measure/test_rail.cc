/**
 * @file
 * Tests for the rail sensing chain.
 */

#include <iterator>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "common/running_stats.hh"
#include "measure/rail.hh"

namespace tdp {
namespace {

RailChannel::Params
quietParams()
{
    RailChannel::Params p;
    p.adcNoiseSigma = 0.0;
    p.biasWanderSigma = 0.0;
    p.quantizationStep = 0.0;
    p.filterTau = 4e-3;
    return p;
}

TEST(RailChannel, PrimesToFirstValue)
{
    double truth = 50.0;
    RailChannel rail("r", [&] { return truth; }, quietParams(), Rng(1));
    EXPECT_NEAR(rail.sampleAverage(1e-3, 10), 50.0, 1e-9);
}

TEST(RailChannel, RcFilterSmoothsSteps)
{
    double truth = 10.0;
    RailChannel rail("r", [&] { return truth; }, quietParams(), Rng(1));
    rail.sampleAverage(1e-3, 10);
    truth = 20.0;
    const double after_one = rail.sampleAverage(1e-3, 10);
    // One 1 ms step against a 4 ms tau: ~22% of the way.
    EXPECT_GT(after_one, 11.0);
    EXPECT_LT(after_one, 14.0);
    // Converges eventually.
    for (int i = 0; i < 50; ++i)
        rail.sampleAverage(1e-3, 10);
    EXPECT_NEAR(rail.filteredPower(), 20.0, 0.01);
}

TEST(RailChannel, AveragingReducesNoise)
{
    RailChannel::Params noisy = quietParams();
    noisy.adcNoiseSigma = 2.0;
    RailChannel one("one", [] { return 30.0; }, noisy, Rng(2));
    RailChannel many("many", [] { return 30.0; }, noisy, Rng(3));
    RunningStats s1, s100;
    for (int i = 0; i < 4000; ++i) {
        s1.add(one.sampleAverage(1e-3, 1));
        s100.add(many.sampleAverage(1e-3, 100));
    }
    EXPECT_NEAR(s1.stddev(), 2.0, 0.15);
    EXPECT_NEAR(s100.stddev(), 0.2, 0.03);
}

TEST(RailChannel, QuantizationSnapsValues)
{
    RailChannel::Params p = quietParams();
    p.quantizationStep = 0.5;
    RailChannel rail("r", [] { return 10.3; }, p, Rng(4));
    EXPECT_DOUBLE_EQ(rail.sampleAverage(1e-3, 10), 10.5);
}

TEST(RailChannel, BiasWanderIsBoundedInDistribution)
{
    RailChannel::Params p = quietParams();
    p.biasWanderSigma = 0.1;
    p.biasWanderTau = 1.0;
    RailChannel rail("r", [] { return 25.0; }, p, Rng(5));
    RunningStats s;
    for (int i = 0; i < 20000; ++i)
        s.add(rail.sampleAverage(1e-3, 10));
    EXPECT_NEAR(s.mean(), 25.0, 0.05);
    // OU stationary sigma is the configured wander sigma.
    EXPECT_NEAR(s.stddev(), 0.1, 0.05);
}

TEST(RailChannel, AlternatingStepsMatchRecordedValues)
{
    // The per-step constants are cached on (dt, conversions); a
    // channel sampled with changing steps must reproduce, bit for
    // bit, the values recorded before the cache existed.
    RailChannel::Params p;
    p.quantizationStep = 0.0;
    p.biasWanderSigma = 0.5;
    double truth = 40.0;
    RailChannel rail("r", [&] { return truth += 0.5; }, p, Rng(77));
    const double dts[] = {1e-3, 2e-3, 1e-3};
    const int conversions[] = {10, 20, 10};
    const double expected[] = {
        0x1.3ff25b9307aafp+5, 0x1.468e4770ef306p+5,
        0x1.472ed45c89ff1p+5, 0x1.4a46ac08ac072p+5,
        0x1.4c37e459f10e1p+5, 0x1.507ed55ec2259p+5,
        0x1.587817e571cbbp+5, 0x1.58cb108147eabp+5,
        0x1.5c6ae22f786f8p+5,
    };
    for (size_t i = 0; i < std::size(expected); ++i)
        EXPECT_EQ(rail.sampleAverage(dts[i % 3], conversions[i % 3]),
                  expected[i])
            << "step " << i;
}

TEST(RailChannel, NullProviderFatal)
{
    EXPECT_THROW(
        RailChannel("r", nullptr, quietParams(), Rng(1)), FatalError);
}

TEST(RailChannel, BadSamplingRequestPanics)
{
    RailChannel rail("r", [] { return 1.0; }, quietParams(), Rng(1));
    EXPECT_THROW(rail.sampleAverage(0.0, 10), PanicError);
    EXPECT_THROW(rail.sampleAverage(1e-3, 0), PanicError);
}

TEST(Rail, NamesDistinct)
{
    for (int a = 0; a < numRails; ++a)
        for (int b = a + 1; b < numRails; ++b)
            EXPECT_STRNE(railName(static_cast<Rail>(a)),
                         railName(static_cast<Rail>(b)));
}

} // namespace
} // namespace tdp
