/**
 * @file
 * Unit tests for the util library: RNG determinism, Zipf sampling,
 * saturating counters, statistics helpers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hh"
#include "util/sat_counter.hh"
#include "util/stats.hh"
#include "util/types.hh"

namespace trrip {
namespace {

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
    for (int i = 0; i < 100; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const auto v = rng.range(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng rng(5);
    int hits = 0;
    for (int i = 0; i < 100000; ++i)
        hits += rng.chance(0.3) ? 1 : 0;
    EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Zipf, UniformWhenSkewZero)
{
    Rng rng(9);
    const WeightedSampler zipf(zipfWeights(4, 0.0));
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 40000; ++i)
        ++counts[zipf.sample(rng)];
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
}

TEST(Zipf, SkewFavorsLowIndices)
{
    Rng rng(9);
    const WeightedSampler zipf(zipfWeights(100, 1.0));
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 100000; ++i)
        ++counts[zipf.sample(rng)];
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
}

TEST(Zipf, MonotoneCdfCoversDomain)
{
    Rng rng(13);
    const WeightedSampler zipf(zipfWeights(7, 0.8));
    std::vector<bool> seen(7, false);
    for (int i = 0; i < 20000; ++i)
        seen[zipf.sample(rng)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isMax());
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_TRUE(c.isZero());
}

TEST(SatCounter, IsSetAtMidpoint)
{
    SatCounter c(2, 1);
    EXPECT_FALSE(c.isSet()); // 1 of max 3.
    c.increment();
    EXPECT_TRUE(c.isSet());  // 2 of max 3.
}

TEST(SatCounter, InitialClamped)
{
    SatCounter c(2, 100);
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, WideCounter)
{
    SatCounter c(10, 0);
    EXPECT_EQ(c.max(), 1023u);
    c.increment(2000);
    EXPECT_EQ(c.value(), 1023u);
}

TEST(Stats, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Stats, GeomeanPercentRoundTrip)
{
    // +10% twice has geomean +10%.
    EXPECT_NEAR(geomeanPercent({10.0, 10.0}), 10.0, 1e-9);
    // Mixed signs shrink toward zero.
    const double g = geomeanPercent({10.0, -10.0});
    EXPECT_LT(g, 0.1);
    EXPECT_GT(g, -1.0);
}

TEST(Stats, MeanBasics)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Stats, PercentileNearestRank)
{
    std::vector<double> s{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    EXPECT_DOUBLE_EQ(percentile(s, 50), 5.0);
    EXPECT_DOUBLE_EQ(percentile(s, 90), 9.0);
    EXPECT_DOUBLE_EQ(percentile(s, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(s, 100), 10.0);
}

TEST(Histogram, BucketsMatchPaperFig3)
{
    BucketHistogram h({4, 8, 16});
    EXPECT_EQ(h.numBuckets(), 4u);
    EXPECT_EQ(h.label(0), "0-4");
    EXPECT_EQ(h.label(1), "5-8");
    EXPECT_EQ(h.label(2), "9-16");
    EXPECT_EQ(h.label(3), "16+");
}

TEST(Histogram, SamplesLandInRightBuckets)
{
    BucketHistogram h({4, 8, 16});
    h.add(0);
    h.add(4);
    h.add(5);
    h.add(16);
    h.add(17);
    h.add(1000);
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(1), 1u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_EQ(h.count(3), 2u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_NEAR(h.fraction(0), 2.0 / 6.0, 1e-12);
}

TEST(Temperature, EncodingRoundTrips)
{
    for (auto t : {Temperature::None, Temperature::Cold,
                   Temperature::Warm, Temperature::Hot}) {
        EXPECT_EQ(decodeTemperature(encodeTemperature(t)), t);
    }
}

TEST(Temperature, TwoBitsSuffice)
{
    EXPECT_LE(encodeTemperature(Temperature::Hot), 3);
    EXPECT_EQ(tempBits, 2u);
}

TEST(Temperature, HasTemperature)
{
    EXPECT_FALSE(hasTemperature(Temperature::None));
    EXPECT_TRUE(hasTemperature(Temperature::Cold));
    EXPECT_TRUE(hasTemperature(Temperature::Warm));
    EXPECT_TRUE(hasTemperature(Temperature::Hot));
}

TEST(Temperature, Names)
{
    EXPECT_STREQ(temperatureName(Temperature::Hot), "hot");
    EXPECT_STREQ(temperatureName(Temperature::None), "none");
}

} // namespace
} // namespace trrip
