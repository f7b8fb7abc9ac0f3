/**
 * @file
 * Unit tests for the stats substrate: summary accumulators,
 * percentiles, linear fits, series and knee detection.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "stats/knee.hh"
#include "stats/series.hh"
#include "stats/summary.hh"

namespace skipsim::stats
{
namespace
{

// ---------------------------------------------------------------- summary

TEST(Summary, CountSumMean)
{
    Summary s;
    s.addAll({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(Summary, MinMaxTracked)
{
    Summary s;
    s.addAll({5.0, -2.0, 7.0});
    EXPECT_DOUBLE_EQ(s.min(), -2.0);
    EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(Summary, VarianceMatchesDefinition)
{
    Summary s;
    s.addAll({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    // Known dataset: population var 4, sample var 32/7.
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, SingleSampleVarianceZero)
{
    Summary s;
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, EmptyAccessorsThrow)
{
    Summary s;
    EXPECT_THROW(s.mean(), FatalError);
    EXPECT_THROW(s.min(), FatalError);
    EXPECT_THROW(s.max(), FatalError);
}

TEST(Summary, WelfordStableForLargeOffsets)
{
    Summary s;
    for (int i = 0; i < 1000; ++i)
        s.add(1e9 + (i % 2));
    EXPECT_NEAR(s.variance(), 0.25025, 1e-3);
}

// ------------------------------------------------------------- percentile

TEST(Percentile, MedianOfOddCount)
{
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Percentile, MedianOfEvenCountInterpolates)
{
    EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0, 4.0}), 2.5);
}

TEST(Percentile, Extremes)
{
    std::vector<double> xs{5.0, 1.0, 3.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
}

TEST(Percentile, InterpolatesBetweenOrderStats)
{
    EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(Percentile, SingleSample)
{
    EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, InvalidInputsThrow)
{
    EXPECT_THROW(percentile({}, 50.0), FatalError);
    EXPECT_THROW(percentile({1.0}, -1.0), FatalError);
    EXPECT_THROW(percentile({1.0}, 101.0), FatalError);
}

TEST(Percentile, NanRankRejectedNotUndefined)
{
    // A NaN p compares false against every bound, so a naive
    // (p < 0 || p > 100) guard lets it through into the rank
    // arithmetic and the float->size_t cast becomes UB.
    const double nan = std::nan("");
    EXPECT_THROW(percentile({1.0, 2.0}, nan), FatalError);
    EXPECT_THROW(percentiles({1.0, 2.0}, {50.0, nan}), FatalError);
}

TEST(Percentiles, MatchesSingleCallPerEntry)
{
    std::vector<double> xs{9.0, 1.0, 5.0, 3.0, 7.0};
    std::vector<double> ps{0.0, 25.0, 50.0, 95.0, 100.0};
    std::vector<double> batch = percentiles(xs, ps);
    ASSERT_EQ(batch.size(), ps.size());
    for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_DOUBLE_EQ(batch[i], percentile(xs, ps[i]));
}

TEST(Percentiles, PreservesRequestOrderNotSortedOrder)
{
    std::vector<double> out =
        percentiles({0.0, 10.0}, {99.0, 1.0, 50.0});
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], 9.9);
    EXPECT_DOUBLE_EQ(out[1], 0.1);
    EXPECT_DOUBLE_EQ(out[2], 5.0);
}

TEST(Percentiles, EmptyRequestListIsEmpty)
{
    EXPECT_TRUE(percentiles({1.0, 2.0}, {}).empty());
}

TEST(Percentiles, InvalidInputsThrow)
{
    EXPECT_THROW(percentiles({}, {50.0}), FatalError);
    EXPECT_THROW(percentiles({1.0}, {50.0, 101.0}), FatalError);
    EXPECT_THROW(percentiles({1.0}, {-0.5}), FatalError);
}

/** The sort-based percentile the selecting one replaced. */
double
sortedReference(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs[0];
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    std::size_t lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

/** Bit-for-bit equality, so NaN results (inf * 0) compare too. */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(Percentiles, SelectionMatchesTheSortReferenceBitForBit)
{
    const double inf = std::numeric_limits<double>::infinity();
    // Unsorted, with a repeat, so ranks are selected out of order.
    const std::vector<double> ps = {99.0, 0.0, 50.0, 10.0, 100.0,
                                    95.0, 50.0};
    std::vector<std::vector<double>> sets = {
        {3.5},
        {2.0, -1.0},
        {7.0, 7.0, 1.0},
        {inf, 1.0, -inf},
        {-inf, -inf, 2.0},
        {inf, inf},
    };
    Rng rng(36);
    std::vector<double> uniform(1000), duplicated(1000), infinite(1000);
    for (std::size_t i = 0; i < 1000; ++i) {
        uniform[i] = rng.uniform(-50.0, 50.0);
        duplicated[i] = static_cast<double>(rng.below(12));
        infinite[i] = rng.below(10) == 0 ? (rng.below(2) ? inf : -inf)
                                         : rng.uniform(0.0, 1.0);
    }
    sets.push_back(uniform);
    sets.push_back(duplicated);
    sets.push_back(infinite);
    for (const std::vector<double> &xs : sets) {
        std::vector<double> batch = percentiles(xs, ps);
        ASSERT_EQ(batch.size(), ps.size());
        for (std::size_t i = 0; i < ps.size(); ++i) {
            const double want = sortedReference(xs, ps[i]);
            EXPECT_TRUE(sameBits(batch[i], want))
                << "n " << xs.size() << " p " << ps[i] << ": "
                << batch[i] << " vs " << want;
            EXPECT_TRUE(sameBits(percentile(xs, ps[i]), want))
                << "n " << xs.size() << " p " << ps[i];
        }
    }
}

// ---------------------------------------------------------------- geomean

TEST(Geomean, MatchesClosedForm)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Geomean, RejectsNonPositive)
{
    EXPECT_THROW(geomean({1.0, 0.0}), FatalError);
    EXPECT_THROW(geomean({}), FatalError);
}

// -------------------------------------------------------------- linear fit

TEST(LinearFit, ExactLine)
{
    LinearFit fit = fitLinear({0.0, 1.0, 2.0}, {1.0, 3.0, 5.0});
    EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
    EXPECT_NEAR(fit.slope, 2.0, 1e-12);
    EXPECT_NEAR(fit.at(10.0), 21.0, 1e-12);
}

TEST(LinearFit, LeastSquaresOnNoisyData)
{
    LinearFit fit =
        fitLinear({1.0, 2.0, 3.0, 4.0}, {2.1, 3.9, 6.1, 7.9});
    EXPECT_NEAR(fit.slope, 2.0, 0.1);
}

TEST(LinearFit, DegenerateInputsThrow)
{
    EXPECT_THROW(fitLinear({1.0}, {1.0}), FatalError);
    EXPECT_THROW(fitLinear({1.0, 1.0}, {1.0, 2.0}), FatalError);
    EXPECT_THROW(fitLinear({1.0, 2.0}, {1.0}), FatalError);
}

// ----------------------------------------------------------------- series

TEST(Series, KeepsSortedByX)
{
    Series s("test");
    s.add(4.0, 40.0);
    s.add(1.0, 10.0);
    s.add(2.0, 20.0);
    auto xs = s.xs();
    EXPECT_EQ(xs, (std::vector<double>{1.0, 2.0, 4.0}));
    EXPECT_EQ(s.ys(), (std::vector<double>{10.0, 20.0, 40.0}));
}

TEST(Series, ExactLookup)
{
    Series s;
    s.add(8.0, 80.0);
    EXPECT_DOUBLE_EQ(s.at(8.0), 80.0);
    EXPECT_TRUE(s.hasX(8.0));
    EXPECT_FALSE(s.hasX(9.0));
    EXPECT_THROW(s.at(9.0), FatalError);
}

TEST(Series, InterpolationInside)
{
    Series s;
    s.add(0.0, 0.0);
    s.add(10.0, 100.0);
    EXPECT_DOUBLE_EQ(s.interpolate(5.0), 50.0);
}

TEST(Series, InterpolationClampsOutside)
{
    Series s;
    s.add(1.0, 10.0);
    s.add(2.0, 20.0);
    EXPECT_DOUBLE_EQ(s.interpolate(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.interpolate(9.0), 20.0);
}

TEST(Series, InterpolateEmptyThrows)
{
    Series s;
    EXPECT_THROW(s.interpolate(1.0), FatalError);
    EXPECT_THROW(s.extrapolate(1.0), FatalError);
}

TEST(Series, ExtrapolateFollowsARisingTail)
{
    Series s;
    s.add(1.0, 10.0);
    s.add(2.0, 20.0);
    EXPECT_DOUBLE_EQ(s.extrapolate(0.0), 10.0);
    EXPECT_DOUBLE_EQ(s.extrapolate(1.5), 15.0);
    EXPECT_DOUBLE_EQ(s.extrapolate(4.0), 40.0);
}

TEST(Series, ExtrapolateClampsAFallingTail)
{
    Series s;
    s.add(1.0, 10.0);
    s.add(2.0, 30.0);
    s.add(4.0, 28.0);
    EXPECT_DOUBLE_EQ(s.extrapolate(3.0), 29.0);
    EXPECT_DOUBLE_EQ(s.extrapolate(8.0), 28.0);
}

TEST(Series, FirstCrossBelowFindsCrossover)
{
    Series a("challenger");
    Series b("baseline");
    for (double x : {1.0, 2.0, 4.0, 8.0}) {
        a.add(x, 10.0);       // flat challenger
        b.add(x, 3.0 * x);    // rising baseline
    }
    auto cross = firstCrossBelow(a, b);
    ASSERT_TRUE(cross.has_value());
    EXPECT_DOUBLE_EQ(*cross, 4.0);
}

TEST(Series, FirstCrossBelowNoneWhenAlwaysAbove)
{
    Series a;
    Series b;
    for (double x : {1.0, 2.0}) {
        a.add(x, 100.0);
        b.add(x, 1.0);
    }
    EXPECT_FALSE(firstCrossBelow(a, b).has_value());
}

// ------------------------------------------------------------------- knee

TEST(Knee, DetectsPlateauThenRise)
{
    Series s;
    s.add(1.0, 10.0);
    s.add(2.0, 11.0);
    s.add(4.0, 10.5);
    s.add(8.0, 50.0);
    s.add(16.0, 200.0);
    KneeResult knee = detectKnee(s, 1.5);
    ASSERT_TRUE(knee.kneeX.has_value());
    EXPECT_DOUBLE_EQ(*knee.kneeX, 8.0);
    EXPECT_DOUBLE_EQ(knee.lastPlateauX, 4.0);
    EXPECT_NEAR(knee.plateauLevel, 10.5, 1.0);
}

TEST(Knee, NoKneeOnFlatSeries)
{
    Series s;
    for (double x : {1.0, 2.0, 4.0, 8.0})
        s.add(x, 5.0);
    KneeResult knee = detectKnee(s, 1.5);
    EXPECT_FALSE(knee.kneeX.has_value());
    EXPECT_DOUBLE_EQ(knee.lastPlateauX, 8.0);
}

TEST(Knee, ToleratesSlowDriftWithinMargin)
{
    Series s;
    s.add(1.0, 10.0);
    s.add(2.0, 12.0);
    s.add(4.0, 13.0);
    s.add(8.0, 14.0);
    s.add(16.0, 100.0);
    KneeResult knee = detectKnee(s, 1.6);
    ASSERT_TRUE(knee.kneeX.has_value());
    EXPECT_DOUBLE_EQ(*knee.kneeX, 16.0);
}

TEST(Knee, ImmediateRiseKneesAtSecondPoint)
{
    Series s;
    s.add(1.0, 1.0);
    s.add(2.0, 100.0);
    s.add(4.0, 200.0);
    KneeResult knee = detectKnee(s, 1.5, 1);
    ASSERT_TRUE(knee.kneeX.has_value());
    EXPECT_DOUBLE_EQ(*knee.kneeX, 2.0);
}

TEST(Knee, InvalidArgumentsThrow)
{
    Series s;
    EXPECT_THROW(detectKnee(s), FatalError);
    s.add(1.0, 1.0);
    EXPECT_THROW(detectKnee(s, 1.0), FatalError);
    EXPECT_THROW(detectKnee(s, 0.5), FatalError);
}

TEST(Knee, SeedPointsClampedToSize)
{
    Series s;
    s.add(1.0, 5.0);
    s.add(2.0, 50.0);
    KneeResult knee = detectKnee(s, 1.5, 10);
    // With both points seeding the plateau there is nothing left to
    // rise, so no knee is reported.
    EXPECT_FALSE(knee.kneeX.has_value());
}

} // namespace
} // namespace skipsim::stats
