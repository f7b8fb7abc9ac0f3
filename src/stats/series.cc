#include "stats/series.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/strutil.hh"

namespace skipsim::stats
{

void
Series::add(double x, double y)
{
    SeriesPoint p{x, y};
    auto it = std::lower_bound(
        _points.begin(), _points.end(), p,
        [](const SeriesPoint &lhs, const SeriesPoint &rhs) {
            return lhs.x < rhs.x;
        });
    _points.insert(it, p);
}

double
Series::at(double x) const
{
    for (const auto &p : _points) {
        if (p.x == x)
            return p.y;
    }
    fatal(strprintf("Series '%s': no point at x=%g", _name.c_str(), x));
}

bool
Series::hasX(double x) const
{
    return std::any_of(_points.begin(), _points.end(),
                       [&](const SeriesPoint &p) { return p.x == x; });
}

std::vector<double>
Series::xs() const
{
    std::vector<double> out;
    out.reserve(_points.size());
    for (const auto &p : _points)
        out.push_back(p.x);
    return out;
}

std::vector<double>
Series::ys() const
{
    std::vector<double> out;
    out.reserve(_points.size());
    for (const auto &p : _points)
        out.push_back(p.y);
    return out;
}

double
Series::interpolate(double x) const
{
    if (_points.empty())
        fatal("Series::interpolate on empty series");
    if (x <= _points.front().x)
        return _points.front().y;
    if (x >= _points.back().x)
        return _points.back().y;
    for (std::size_t i = 1; i < _points.size(); ++i) {
        if (x <= _points[i].x) {
            const auto &lo = _points[i - 1];
            const auto &hi = _points[i];
            double span = hi.x - lo.x;
            if (span <= 0.0)
                return lo.y;
            double frac = (x - lo.x) / span;
            return lo.y * (1.0 - frac) + hi.y * frac;
        }
    }
    return _points.back().y;
}

double
Series::extrapolate(double x) const
{
    double y = interpolate(x);
    if (_points.size() < 2 || x <= _points.back().x)
        return y;
    const SeriesPoint &last = _points.back();
    const SeriesPoint &prev = _points[_points.size() - 2];
    double span = last.x - prev.x;
    double slope = span > 0.0 ? (last.y - prev.y) / span : 0.0;
    return y + (x - last.x) * std::max(slope, 0.0);
}

std::optional<double>
firstCrossBelow(const Series &a, const Series &b)
{
    // Shared ascending x grid.
    std::vector<double> shared;
    for (const auto &p : a.points()) {
        if (b.hasX(p.x))
            shared.push_back(p.x);
    }
    for (double x : shared) {
        if (a.at(x) < b.at(x))
            return x;
    }
    return std::nullopt;
}

} // namespace skipsim::stats
