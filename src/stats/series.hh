/**
 * @file
 * An (x, y) series keyed by a sweep parameter (typically batch size).
 * Provides lookup, interpolation and the crossover search used to find
 * the paper's latency crossover points (CPs) between platforms.
 */

#ifndef SKIPSIM_STATS_SERIES_HH
#define SKIPSIM_STATS_SERIES_HH

#include <optional>
#include <string>
#include <vector>

namespace skipsim::stats
{

/** One sample of a sweep: parameter value x, measurement y. */
struct SeriesPoint
{
    double x;
    double y;
};

/**
 * A named, x-sorted series of measurements. Appending out of order is
 * allowed; points are kept sorted by x.
 */
class Series
{
  public:
    Series() = default;
    explicit Series(std::string name)
        : _name(std::move(name))
    {}

    const std::string &name() const { return _name; }

    /** Insert a point, keeping the series sorted by x. */
    void add(double x, double y);

    std::size_t size() const { return _points.size(); }
    bool empty() const { return _points.empty(); }

    const std::vector<SeriesPoint> &points() const { return _points; }

    /** Exact-x lookup. @throws skipsim::FatalError when x is absent. */
    double at(double x) const;

    /** @return true when a point with this exact x exists. */
    bool hasX(double x) const;

    /** All x values in ascending order. */
    std::vector<double> xs() const;

    /** All y values in x order. */
    std::vector<double> ys() const;

    /**
     * Piecewise-linear interpolation at @p x; clamps to end values
     * outside the x range.
     * @throws skipsim::FatalError on an empty series.
     */
    double interpolate(double x) const;

    /**
     * The batch-latency rule: interpolate() up to the last point;
     * past it, the last segment's slope, clamped at >= 0 so a measured
     * cost curve never falls with more load.
     * @throws skipsim::FatalError on an empty series.
     */
    double extrapolate(double x) const;

  private:
    std::string _name;
    std::vector<SeriesPoint> _points;
};

/**
 * Find the first crossover where series @p a stops being larger than
 * series @p b (i.e. a(x) >= b(x) before, a(x) < b(x) after), scanning
 * the shared x grid in ascending order.
 *
 * This matches the paper's crossover point (CP): the batch size beyond
 * which GH200's latency drops below the loosely-coupled system's.
 *
 * @return the first shared x where a(x) < b(x), provided some earlier
 *         shared x had a(x) >= b(x) or it is the first shared x;
 *         std::nullopt when a never drops below b.
 */
std::optional<double> firstCrossBelow(const Series &a, const Series &b);

} // namespace skipsim::stats

#endif // SKIPSIM_STATS_SERIES_HH
