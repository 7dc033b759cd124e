/**
 * @file
 * Tests for the deterministic random number generator.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "common/running_stats.hh"

namespace tdp {
namespace {

TEST(Random, Deterministic)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, SeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Random, NamedStreamsIndependent)
{
    Rng a(7, "alpha"), b(7, "beta"), a2(7, "alpha");
    EXPECT_NE(a.next(), b.next());
    Rng a3(7, "alpha");
    EXPECT_EQ(a3.next(), a2.next());
}

TEST(Random, UniformRange)
{
    Rng rng(99);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Random, UniformMeanNearHalf)
{
    Rng rng(5);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.uniform());
    EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(Random, UniformIntBounds)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.uniformInt(-3, 4);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 4);
    }
}

TEST(Random, UniformIntSingleton)
{
    Rng rng(12);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(5, 5), 5);
}

TEST(Random, UniformIntFullSignedRange)
{
    // hi - lo does not fit int64_t here; the draw must still land in
    // range without signed overflow (the sanitizer jobs check that).
    Rng rng(13);
    bool negative = false;
    bool positive = false;
    for (int i = 0; i < 64; ++i) {
        const int64_t v = rng.uniformInt(INT64_MIN, INT64_MAX);
        negative = negative || v < 0;
        positive = positive || v > 0;
    }
    EXPECT_TRUE(negative);
    EXPECT_TRUE(positive);
}

TEST(Random, UniformIntRangeWiderThanInt64Max)
{
    Rng rng(14);
    bool upper_half = false;
    for (int i = 0; i < 1000; ++i) {
        const int64_t v = rng.uniformInt(-10, INT64_MAX);
        EXPECT_GE(v, -10);
        upper_half = upper_half || v > INT64_MAX / 2;
    }
    EXPECT_TRUE(upper_half);
}

TEST(Random, GaussianMoments)
{
    Rng rng(77);
    RunningStats stats;
    for (int i = 0; i < 200000; ++i)
        stats.add(rng.gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Random, GaussianScaled)
{
    Rng rng(78);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.gaussian(10.0, 3.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 3.0, 0.1);
}

TEST(Random, ExponentialMean)
{
    Rng rng(33);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(rng.exponential(4.0));
    EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Random, PoissonSmallMean)
{
    Rng rng(44);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.add(static_cast<double>(rng.poisson(2.5)));
    EXPECT_NEAR(stats.mean(), 2.5, 0.05);
    EXPECT_NEAR(stats.variance(), 2.5, 0.1);
}

TEST(Random, PoissonLargeMeanUsesNormalApprox)
{
    Rng rng(45);
    RunningStats stats;
    for (int i = 0; i < 50000; ++i)
        stats.add(static_cast<double>(rng.poisson(500.0)));
    EXPECT_NEAR(stats.mean(), 500.0, 2.0);
    EXPECT_NEAR(stats.stddev(), std::sqrt(500.0), 1.0);
}

TEST(Random, PoissonAlternatingMeansMatchRecordedDraws)
{
    // exp(-mean) is memoised on the last mean; alternating means
    // must still draw exactly what the unmemoised generator drew.
    Rng rng(0x5eed);
    const double means[] = {0.4, 3.0, 0.4};
    const uint64_t expected[] = {0, 2, 0, 0, 2, 2, 1, 1,
                                 0, 0, 2, 1, 0, 2, 2};
    for (size_t i = 0; i < std::size(expected); ++i)
        EXPECT_EQ(rng.poisson(means[i % 3]), expected[i]) << "draw " << i;
}

TEST(Random, PoissonZeroMean)
{
    Rng rng(46);
    EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Random, BernoulliProbability)
{
    Rng rng(55);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        if (rng.bernoulli(0.3))
            ++hits;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Random, HashStringStable)
{
    EXPECT_EQ(hashString("abc"), hashString("abc"));
    EXPECT_NE(hashString("abc"), hashString("abd"));
    EXPECT_NE(hashString(""), hashString("a"));
}

TEST(MixHashTest, DeterministicAndSensitiveToEveryInput)
{
    EXPECT_EQ(mixHash(1, 2, 3), mixHash(1, 2, 3));
    EXPECT_NE(mixHash(1, 2, 3), mixHash(2, 2, 3));
    EXPECT_NE(mixHash(1, 2, 3), mixHash(1, 3, 3));
    EXPECT_NE(mixHash(1, 2, 3), mixHash(1, 2, 4));
}

TEST(MixHashTest, HashUnitCoversTheUnitInterval)
{
    double lo = 1.0, hi = 0.0;
    for (uint64_t i = 0; i < 1000; ++i) {
        const double u = hashUnit(0x5eed, i, 1);
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.05);
    EXPECT_GT(hi, 0.95);
}

TEST(MixHashTest, OutputsArePinned)
{
    // Stream client sharding, overload shedding and the committed
    // stream digests depend on these exact bits; a changed value
    // re-shards every fleet.
    EXPECT_EQ(mixHash(0, 0, 0), 0x43a934a9a2157f2full);
    EXPECT_EQ(mixHash(1, 2, 3), 0x9edab940473f22a1ull);
    EXPECT_EQ(mixHash(0x5eed, 7, 1), 0x0a7cc2b0db27dd19ull);
    EXPECT_EQ(mixHash(0xc0ffee, 12345, 1), 0x5c91c2cb50733752ull);
    EXPECT_EQ(mixHash(0x5eed2007, 0xdeadbeef, 0x51a7),
              0xb082c243ecbfd289ull);
    EXPECT_EQ(mixHash(~0ull, ~0ull, ~0ull), 0x7342e461a7554671ull);

    EXPECT_EQ(hashUnit(0, 0, 0), 0x1.0ea4d2a68855ep-2);
    EXPECT_EQ(hashUnit(1, 2, 3), 0x1.3db572808e7e4p-1);
    EXPECT_EQ(hashUnit(0x5eed, 7, 1), 0x1.4f98561b64fbp-5);
    EXPECT_EQ(hashUnit(0x5eed2007, 0xdeadbeef, 0x51a7),
              0x1.61058487d97fap-1);
}

} // namespace
} // namespace tdp
