/**
 * @file
 * Scalar summary statistics: online accumulation of count/mean/variance
 * (Welford), min/max, and batch helpers for percentiles and geometric
 * mean. Used by the SKIP metric reports and bench harnesses.
 */

#ifndef SKIPSIM_STATS_SUMMARY_HH
#define SKIPSIM_STATS_SUMMARY_HH

#include <cstddef>
#include <vector>

namespace skipsim::stats
{

/**
 * Online accumulator for scalar samples. Numerically stable mean and
 * variance via Welford's algorithm.
 */
class Summary
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Add many samples. */
    void addAll(const std::vector<double> &xs);

    std::size_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const;
    double max() const;
    double mean() const;

    /** Sample variance (n-1 denominator); 0 for fewer than 2 samples. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

  private:
    std::size_t _count = 0;
    double _sum = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
};

/**
 * Percentile with linear interpolation between order statistics. The
 * two order statistics are selected (nth_element, then the least
 * sample above), not sorted for, and equal a full sort's bit for bit
 * (samples that compare equal, such as -0 and +0, may trade places).
 * @param xs samples (not required to be sorted; copied internally).
 * @param p percentile in [0, 100].
 * @throws skipsim::FatalError on empty input or p outside [0, 100].
 */
double percentile(std::vector<double> xs, double p);

/**
 * Several percentiles of one sample set, copying the samples once
 * (percentile() copies per call; result code asking for p50/p95/p99
 * of the same latency vector should use this). Ranks are selected in
 * ascending order, each within the samples above the last.
 * @param xs samples (not required to be sorted; copied internally).
 * @param ps percentiles, each in [0, 100], in any order.
 * @return one value per entry of @p ps, in the same order.
 * @throws skipsim::FatalError on empty input or any p outside [0, 100].
 */
std::vector<double> percentiles(std::vector<double> xs,
                                const std::vector<double> &ps);

/** Median shorthand (50th percentile). */
double median(std::vector<double> xs);

/**
 * Geometric mean of strictly positive samples.
 * @throws skipsim::FatalError on empty input or non-positive samples.
 */
double geomean(const std::vector<double> &xs);

/**
 * Ordinary least-squares fit y = a + b*x.
 * @return {intercept a, slope b}.
 * @throws skipsim::FatalError with fewer than 2 points or degenerate x.
 */
struct LinearFit
{
    double intercept;
    double slope;

    double at(double x) const { return intercept + slope * x; }
};

LinearFit fitLinear(const std::vector<double> &xs,
                    const std::vector<double> &ys);

} // namespace skipsim::stats

#endif // SKIPSIM_STATS_SUMMARY_HH
