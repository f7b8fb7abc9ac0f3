#include "serving/probe_replay.hh"

#include <cmath>

#include "obs/collector.hh"

namespace skipsim::serving
{

void
replayProbes(obs::Collector &obs, const ProbeSeries &series,
             const std::vector<double> &arrivals,
             const std::vector<double> &admits,
             const std::vector<IterationRecord> &iters,
             const std::vector<std::pair<double, double>> &ttfts,
             double horizonNs)
{
    for (const IterationRecord &iter : iters)
        obs.span(iter.label, 0, std::llround(iter.beginNs),
                 std::llround(iter.endNs - iter.beginNs));

    obs::Ticker tick = obs.ticker();
    const double window_sec =
        static_cast<double>(obs.intervalNs()) / 1e9;
    std::size_t arr_i = 0;
    std::size_t admit_i = 0;
    std::size_t iter_i = 0; // first iteration not yet ended
    std::size_t ttft_i = 0;
    // Visit through the first boundary at or past the horizon so the
    // final partial window is represented.
    const double stop =
        horizonNs + static_cast<double>(obs.intervalNs()) - 1.0;
    tick.advanceTo(stop, [&](std::int64_t t) {
        const double now = static_cast<double>(t);
        while (arr_i < arrivals.size() && arrivals[arr_i] <= now)
            ++arr_i;
        while (admit_i < admits.size() && admits[admit_i] <= now)
            ++admit_i;
        long long window_tokens = 0;
        while (iter_i < iters.size() && iters[iter_i].endNs <= now)
            window_tokens += iters[iter_i++].tokens;
        // Iterations do not overlap, so the first one ending after
        // the boundary is the only one that can be running at it.
        double active = 0.0;
        if (iter_i < iters.size() && iters[iter_i].beginNs <= now)
            active = static_cast<double>(iters[iter_i].active);
        const std::size_t ttft_begin = ttft_i;
        double window_ttft_ns = 0.0;
        while (ttft_i < ttfts.size() && ttfts[ttft_i].first <= now) {
            window_ttft_ns += ttfts[ttft_i].second;
            ++ttft_i;
        }
        const std::size_t window_ttfts = ttft_i - ttft_begin;

        obs.sample(series.queueDepth, {}, t,
                   static_cast<double>(arr_i) -
                       static_cast<double>(admit_i));
        obs.sample(series.active, {}, t, active);
        obs.sample(series.rate, {}, t,
                   static_cast<double>(window_tokens) / window_sec);
        obs.sample(series.ttftMs, {}, t,
                   window_ttfts > 0
                       ? window_ttft_ns /
                           static_cast<double>(window_ttfts) / 1e6
                       : 0.0);
    });
}

} // namespace skipsim::serving
