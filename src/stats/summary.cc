#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace skipsim::stats
{

void
Summary::add(double x)
{
    if (_count == 0) {
        _min = x;
        _max = x;
    } else {
        _min = std::min(_min, x);
        _max = std::max(_max, x);
    }
    ++_count;
    _sum += x;
    double delta = x - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (x - _mean);
}

void
Summary::addAll(const std::vector<double> &xs)
{
    for (double x : xs)
        add(x);
}

double
Summary::min() const
{
    if (_count == 0)
        fatal("Summary::min on empty accumulator");
    return _min;
}

double
Summary::max() const
{
    if (_count == 0)
        fatal("Summary::max on empty accumulator");
    return _max;
}

double
Summary::mean() const
{
    if (_count == 0)
        fatal("Summary::mean on empty accumulator");
    return _mean;
}

double
Summary::variance() const
{
    if (_count < 2)
        return 0.0;
    return _m2 / static_cast<double>(_count - 1);
}

double
Summary::stddev() const
{
    return std::sqrt(variance());
}

namespace
{

void
checkPercentile(double p)
{
    // Negated form so NaN (every comparison false) is rejected too,
    // instead of flowing into the rank arithmetic as UB.
    if (!(p >= 0.0 && p <= 100.0))
        fatal("percentile p must be within [0, 100]");
}

/**
 * Interpolated percentiles of one sample vector, asked for in
 * ascending order of p. Each rank selects its lower order statistic
 * with nth_element and takes the upper one as the least sample above
 * it, which are the two values a full sort puts at lo and lo + 1.
 */
class RankSelector
{
  public:
    explicit RankSelector(std::vector<double> &xs) : _xs(xs) {}

    double
    at(double p)
    {
        if (_xs.size() == 1)
            return _xs[0];
        double rank = p / 100.0 * static_cast<double>(_xs.size() - 1);
        std::size_t lo = static_cast<std::size_t>(rank);
        std::size_t hi = std::min(lo + 1, _xs.size() - 1);
        double frac = rank - static_cast<double>(lo);
        // [_from, end) holds every order statistic not yet placed; a
        // rank below _from repeats the last one placed.
        if (lo >= _from) {
            std::nth_element(_xs.begin() + _from, _xs.begin() + lo,
                             _xs.end());
            _from = lo + 1;
        }
        double upper = hi == lo
            ? _xs[lo]
            : *std::min_element(_xs.begin() + hi, _xs.end());
        return _xs[lo] * (1.0 - frac) + upper * frac;
    }

  private:
    std::vector<double> &_xs;
    std::size_t _from = 0;
};

} // namespace

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        fatal("percentile on empty sample set");
    checkPercentile(p);
    return RankSelector(xs).at(p);
}

std::vector<double>
percentiles(std::vector<double> xs, const std::vector<double> &ps)
{
    if (xs.empty())
        fatal("percentiles on empty sample set");
    for (double p : ps)
        checkPercentile(p);
    std::vector<std::size_t> order(ps.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&ps](std::size_t a, std::size_t b) { return ps[a] < ps[b]; });
    RankSelector select(xs);
    std::vector<double> out(ps.size());
    for (std::size_t i : order)
        out[i] = select.at(ps[i]);
    return out;
}

double
median(std::vector<double> xs)
{
    return percentile(std::move(xs), 50.0);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        fatal("geomean on empty sample set");
    double acc = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            fatal("geomean requires strictly positive samples");
        acc += std::log(x);
    }
    return std::exp(acc / static_cast<double>(xs.size()));
}

LinearFit
fitLinear(const std::vector<double> &xs, const std::vector<double> &ys)
{
    if (xs.size() != ys.size())
        fatal("fitLinear: x and y sizes differ");
    if (xs.size() < 2)
        fatal("fitLinear: need at least 2 points");
    double n = static_cast<double>(xs.size());
    double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        sx += xs[i];
        sy += ys[i];
        sxx += xs[i] * xs[i];
        sxy += xs[i] * ys[i];
    }
    double denom = n * sxx - sx * sx;
    if (std::abs(denom) < 1e-12)
        fatal("fitLinear: degenerate x values");
    double slope = (n * sxy - sx * sy) / denom;
    double intercept = (sy - slope * sx) / n;
    return {intercept, slope};
}

} // namespace skipsim::stats
