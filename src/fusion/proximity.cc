#include "fusion/proximity.hh"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/logging.hh"

namespace skipsim::fusion
{

namespace
{

/**
 * Exact ranks of every window of one width: rank[i] names the window
 * that starts at i, and two windows share a rank exactly when they are
 * equal. Ranks are dense in [0, distinct).
 */
struct WindowRanks
{
    std::size_t width = 0;
    std::size_t distinct = 0;
    std::vector<std::uint32_t> rank;
};

/** Width-1 ranks: the interned sequence itself. */
WindowRanks
unitRanks(const std::vector<int> &seq, std::size_t alphabet)
{
    WindowRanks out;
    out.width = 1;
    out.distinct = alphabet;
    out.rank.assign(seq.begin(), seq.end());
    return out;
}

/**
 * Ranks of the width (base.width + shift) windows, each named by the
 * pair (base rank at i, base rank at i + shift). With shift <= base.width
 * the two base windows cover the whole window, so equal pairs mean equal
 * windows. Linear in the window count plus base.distinct.
 */
WindowRanks
pairRanks(const WindowRanks &base, std::size_t shift)
{
    WindowRanks out;
    out.width = base.width + shift;
    const std::vector<std::uint32_t> &rank = base.rank;
    const std::size_t n = rank.size() > shift ? rank.size() - shift : 0;
    if (n == 0)
        return out;

    // LSD radix sort of the window starts by (rank[i], rank[i + shift]):
    // a counting sort on the second key, then a stable one on the first.
    std::vector<std::uint32_t> bucket(base.distinct + 1);
    std::vector<std::uint32_t> by_second(n);
    std::vector<std::uint32_t> order(n);
    auto counting_sort = [&](const std::uint32_t *key,
                             const std::uint32_t *in, std::uint32_t *to) {
        std::fill(bucket.begin(), bucket.end(), 0);
        for (std::size_t i = 0; i < n; ++i)
            ++bucket[key[in ? in[i] : i] + 1];
        for (std::size_t r = 1; r < bucket.size(); ++r)
            bucket[r] += bucket[r - 1];
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t pos = in ? in[i] : static_cast<std::uint32_t>(i);
            to[bucket[key[pos]]++] = pos;
        }
    };
    counting_sort(rank.data() + shift, nullptr, by_second.data());
    counting_sort(rank.data(), by_second.data(), order.data());

    // Equal pairs are now adjacent; number them in sorted order.
    out.rank.resize(n);
    std::uint32_t next = 0;
    for (std::size_t k = 0; k < n; ++k) {
        std::uint32_t pos = order[k];
        if (k > 0) {
            std::uint32_t prev = order[k - 1];
            if (rank[pos] != rank[prev] ||
                rank[pos + shift] != rank[prev + shift])
                ++next;
        }
        out.rank[pos] = next;
    }
    out.distinct = static_cast<std::size_t>(next) + 1;
    return out;
}

/**
 * Doubles `level` up to the largest power-of-two width <= length
 * (length >= level.width).
 */
void
doubleUpTo(WindowRanks &level, std::size_t length)
{
    while (level.width * 2 <= length)
        level = pairRanks(level, level.width);
}

/** Occurrence count and first start position of every window rank. */
struct WindowClasses
{
    std::vector<std::size_t> freq;
    std::vector<std::size_t> first;
};

WindowClasses
classesOf(const WindowRanks &ranks)
{
    WindowClasses out;
    out.freq.assign(ranks.distinct, 0);
    out.first.assign(ranks.distinct, 0);
    for (std::size_t i = 0; i < ranks.rank.size(); ++i) {
        std::uint32_t r = ranks.rank[i];
        if (out.freq[r]++ == 0)
            out.first[r] = i;
    }
    return out;
}

/** Eq. 6-8 statistics for the windows `ranks` describes. */
ChainStats
statsOf(const WindowRanks &ranks, const std::vector<int> &seq,
        const std::vector<std::size_t> &kernel_freq)
{
    const std::size_t length = ranks.width;
    ChainStats stats;
    stats.length = length;
    stats.kEager = seq.size();
    stats.kFused = seq.size();

    WindowClasses classes = classesOf(ranks);
    stats.uniqueChains = ranks.distinct;
    stats.totalInstances = ranks.rank.size();
    std::vector<char> deterministic(ranks.distinct, 0);
    for (std::size_t r = 0; r < ranks.distinct; ++r) {
        std::size_t f_first =
            kernel_freq[static_cast<std::size_t>(seq[classes.first[r]])];
        if (classes.freq[r] == f_first) {
            deterministic[r] = 1;
            ++stats.deterministicChains;
        }
    }

    // Greedy left-to-right non-overlapping selection of deterministic
    // chain occurrences: matches the paper's "actual deterministic
    // kernel chains that can be fused ... non-overlapping and PS = 1".
    std::size_t i = 0;
    while (i < ranks.rank.size()) {
        if (deterministic[ranks.rank[i]]) {
            ++stats.fusedChains;
            i += length;
        } else {
            ++i;
        }
    }
    stats.kernelsFused = stats.fusedChains * length;
    stats.kFused = stats.kEager - stats.fusedChains * (length - 1);
    stats.idealSpeedup = stats.kFused > 0
        ? static_cast<double>(stats.kEager) /
            static_cast<double>(stats.kFused)
        : 1.0;
    return stats;
}

} // namespace

ProximityAnalyzer::ProximityAnalyzer(std::vector<std::string> sequence)
{
    if (sequence.size() > std::numeric_limits<std::uint32_t>::max())
        fatal("ProximityAnalyzer: sequence longer than 2^32 - 1 kernels");
    _seq.reserve(sequence.size());
    for (auto &name : sequence) {
        auto [it, inserted] =
            _ids.emplace(name, static_cast<int>(_names.size()));
        if (inserted)
            _names.push_back(name);
        _seq.push_back(it->second);
    }
    _kernelFreq.assign(_names.size(), 0);
    for (int id : _seq)
        ++_kernelFreq[static_cast<std::size_t>(id)];
}

int
ProximityAnalyzer::internedId(const std::string &name) const
{
    auto it = _ids.find(name);
    return it == _ids.end() ? -1 : it->second;
}

std::size_t
ProximityAnalyzer::kernelFrequency(const std::string &kernel) const
{
    int id = internedId(kernel);
    return id < 0 ? 0 : _kernelFreq[static_cast<std::size_t>(id)];
}

std::size_t
ProximityAnalyzer::chainFrequency(
    const std::vector<std::string> &chain) const
{
    if (chain.empty() || chain.size() > _seq.size())
        return 0;
    std::vector<int> ids;
    ids.reserve(chain.size());
    for (const auto &name : chain) {
        int id = internedId(name);
        if (id < 0)
            return 0;
        ids.push_back(id);
    }
    std::size_t count = 0;
    for (std::size_t i = 0; i + ids.size() <= _seq.size(); ++i) {
        bool match = true;
        for (std::size_t j = 0; j < ids.size(); ++j) {
            if (_seq[i + j] != ids[j]) {
                match = false;
                break;
            }
        }
        if (match)
            ++count;
    }
    return count;
}

double
ProximityAnalyzer::proximityScore(
    const std::vector<std::string> &chain) const
{
    if (chain.empty())
        fatal("proximityScore: empty chain");
    std::size_t f_chain = chainFrequency(chain);
    if (f_chain == 0)
        return 0.0;
    std::size_t f_first = kernelFrequency(chain.front());
    return static_cast<double>(f_chain) / static_cast<double>(f_first);
}

ChainStats
ProximityAnalyzer::analyze(std::size_t length) const
{
    return sweep({length}).front();
}

std::vector<ChainStats>
ProximityAnalyzer::sweep(const std::vector<std::size_t> &lengths) const
{
    for (std::size_t length : lengths) {
        if (length < 2)
            fatal("ProximityAnalyzer::analyze: chain length must be >= 2");
    }
    // Ascending lengths reuse each doubling level: only the current
    // power-of-two level is kept.
    std::vector<std::size_t> order(lengths.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return lengths[a] < lengths[b];
                     });
    std::vector<ChainStats> out(lengths.size());
    WindowRanks level = unitRanks(_seq, _names.size());
    for (std::size_t idx : order) {
        std::size_t length = lengths[idx];
        doubleUpTo(level, length);
        out[idx] = level.width == length
            ? statsOf(level, _seq, _kernelFreq)
            : statsOf(pairRanks(level, length - level.width), _seq,
                      _kernelFreq);
    }
    return out;
}

std::vector<ChainCandidate>
ProximityAnalyzer::candidates(std::size_t length, double threshold) const
{
    if (threshold < 0.0 || threshold > 1.0)
        fatal("ProximityAnalyzer::candidates: threshold must be in [0,1]");

    std::vector<ChainCandidate> out;
    if (length == 0)
        return out;
    WindowRanks ranks = unitRanks(_seq, _names.size());
    doubleUpTo(ranks, length);
    if (ranks.width != length)
        ranks = pairRanks(ranks, length - ranks.width);
    WindowClasses classes = classesOf(ranks);
    for (std::size_t r = 0; r < ranks.distinct; ++r) {
        std::size_t start = classes.first[r];
        std::size_t f_first =
            _kernelFreq[static_cast<std::size_t>(_seq[start])];
        double ps = static_cast<double>(classes.freq[r]) /
            static_cast<double>(f_first);
        if (ps + 1e-12 < threshold)
            continue;
        ChainCandidate cand;
        cand.frequency = classes.freq[r];
        cand.proximityScore = ps;
        cand.kernels.reserve(length);
        for (std::size_t j = start; j < start + length; ++j)
            cand.kernels.push_back(_names[static_cast<std::size_t>(_seq[j])]);
        out.push_back(std::move(cand));
    }
    // (frequency, kernels) orders distinct windows totally, so the
    // result does not depend on the rank order.
    std::stable_sort(out.begin(), out.end(),
                     [](const ChainCandidate &a, const ChainCandidate &b) {
                         if (a.frequency != b.frequency)
                             return a.frequency > b.frequency;
                         return a.kernels < b.kernels;
                     });
    return out;
}

std::vector<std::size_t>
defaultChainLengths()
{
    return {2, 4, 8, 16, 32, 64, 128, 256};
}

std::vector<std::string>
kernelSequenceFromTrace(const trace::Trace &trace)
{
    std::vector<const trace::TraceEvent *> kernels;
    for (const auto &ev : trace.events()) {
        if (ev.kind == trace::EventKind::Kernel)
            kernels.push_back(&ev);
    }
    std::stable_sort(kernels.begin(), kernels.end(),
                     [](const trace::TraceEvent *a,
                        const trace::TraceEvent *b) {
                         return a->tsBeginNs < b->tsBeginNs;
                     });
    std::vector<std::string> out;
    out.reserve(kernels.size());
    for (const auto *k : kernels)
        out.push_back(k->name);
    return out;
}

} // namespace skipsim::fusion
