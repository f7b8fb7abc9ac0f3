/**
 * @file
 * Unit tests for proximity-score chain mining (paper Eqs. 6-8):
 * PS arithmetic on hand-built sequences, greedy non-overlapping
 * selection, Eq. 7/8 launch accounting, and recommendation reports.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.hh"
#include "fusion/proximity.hh"
#include "fusion/recommend.hh"

namespace skipsim::fusion
{
namespace
{

std::vector<std::string>
seqOf(const std::string &compact)
{
    // One kernel per character: "ABAB" -> {"A","B","A","B"}.
    std::vector<std::string> out;
    for (char c : compact)
        out.emplace_back(1, c);
    return out;
}

// ------------------------------------------------------------- frequencies

TEST(Proximity, KernelFrequencyCounts)
{
    ProximityAnalyzer pa(seqOf("ABCABCAB"));
    EXPECT_EQ(pa.kernelFrequency("A"), 3u);
    EXPECT_EQ(pa.kernelFrequency("C"), 2u);
    EXPECT_EQ(pa.kernelFrequency("Z"), 0u);
    EXPECT_EQ(pa.sequenceLength(), 8u);
}

TEST(Proximity, ChainFrequencyCountsOccurrences)
{
    ProximityAnalyzer pa(seqOf("ABCABCAB"));
    EXPECT_EQ(pa.chainFrequency(seqOf("AB")), 3u);
    EXPECT_EQ(pa.chainFrequency(seqOf("ABC")), 2u);
    EXPECT_EQ(pa.chainFrequency(seqOf("CA")), 2u);
    EXPECT_EQ(pa.chainFrequency(seqOf("ZZ")), 0u);
}

TEST(Proximity, OverlappingOccurrencesCounted)
{
    ProximityAnalyzer pa(seqOf("AAAA"));
    EXPECT_EQ(pa.chainFrequency(seqOf("AA")), 3u);
}

// ---------------------------------------------------------------- Eq. 6 PS

TEST(Proximity, DeterministicChainHasPsOne)
{
    // Every A is followed by B.
    ProximityAnalyzer pa(seqOf("ABxABxAB"));
    EXPECT_DOUBLE_EQ(pa.proximityScore(seqOf("AB")), 1.0);
}

TEST(Proximity, PartialChainHasFractionalPs)
{
    // A followed by B twice out of three As.
    ProximityAnalyzer pa(seqOf("ABABAC"));
    EXPECT_NEAR(pa.proximityScore(seqOf("AB")), 2.0 / 3.0, 1e-12);
}

TEST(Proximity, AbsentChainPsZero)
{
    ProximityAnalyzer pa(seqOf("ABC"));
    EXPECT_DOUBLE_EQ(pa.proximityScore(seqOf("CA")), 0.0);
    EXPECT_DOUBLE_EQ(pa.proximityScore(seqOf("ZZ")), 0.0);
}

TEST(Proximity, EmptyChainThrows)
{
    ProximityAnalyzer pa(seqOf("ABC"));
    EXPECT_THROW(pa.proximityScore({}), FatalError);
}

// ------------------------------------------------------------ analyze (L)

TEST(Analyze, UniqueAndTotalCounts)
{
    ProximityAnalyzer pa(seqOf("ABCABC"));
    ChainStats stats = pa.analyze(2);
    // Windows: AB BC CA AB BC -> unique {AB, BC, CA}, total 5.
    EXPECT_EQ(stats.uniqueChains, 3u);
    EXPECT_EQ(stats.totalInstances, 5u);
}

TEST(Analyze, DeterministicChainsIdentified)
{
    // AB deterministic (every A -> B); BC deterministic; CA is not
    // deterministic: the final C has no successor, so f(CA)=1 < f(C)=2.
    ProximityAnalyzer pa(seqOf("ABCABC"));
    ChainStats stats = pa.analyze(2);
    EXPECT_EQ(stats.deterministicChains, 2u);
}

TEST(Analyze, GreedyNonOverlappingSelection)
{
    // ABABAB: AB is deterministic; greedy fuses at 0, 2, 4.
    ProximityAnalyzer pa(seqOf("ABABAB"));
    ChainStats stats = pa.analyze(2);
    EXPECT_EQ(stats.fusedChains, 3u);
    EXPECT_EQ(stats.kernelsFused, 6u);
    // Eq. 7: K_fused = 6 - 3*(2-1) = 3; Eq. 8: speedup = 2.
    EXPECT_EQ(stats.kFused, 3u);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 2.0);
}

TEST(Analyze, GreedySkipsBrokenOccurrences)
{
    // "ABABAC": f(A)=3, f(AB)=2 -> AB is NOT deterministic and cannot
    // fuse, but BA (f=2, f(B)=2) is; the greedy pass fuses both BA
    // occurrences and skips over every AB window.
    ProximityAnalyzer pa(seqOf("ABABAC"));
    ChainStats stats = pa.analyze(2);
    EXPECT_EQ(stats.fusedChains, 2u);
    EXPECT_EQ(stats.kFused, 4u);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 1.5);
    // And AB itself is indeed not a PS=1 candidate.
    for (const auto &cand : pa.candidates(2, 1.0))
        EXPECT_NE(cand.kernels, seqOf("AB"));
}

TEST(Analyze, UniqueAnchorMakesLongChainFusable)
{
    // "S" occurs once, so the window starting at S is deterministic
    // regardless of its interior.
    ProximityAnalyzer pa(seqOf("SABXABYAB"));
    ChainStats stats = pa.analyze(4);
    EXPECT_GE(stats.fusedChains, 1u);
    EXPECT_EQ(stats.kEager, 9u);
}

TEST(Analyze, ChainLongerThanSequenceYieldsNothing)
{
    ProximityAnalyzer pa(seqOf("ABC"));
    ChainStats stats = pa.analyze(8);
    EXPECT_EQ(stats.uniqueChains, 0u);
    EXPECT_EQ(stats.fusedChains, 0u);
    EXPECT_EQ(stats.kFused, stats.kEager);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 1.0);
}

TEST(Analyze, LengthOneRejected)
{
    ProximityAnalyzer pa(seqOf("AB"));
    EXPECT_THROW(pa.analyze(1), FatalError);
    EXPECT_THROW(pa.analyze(0), FatalError);
}

TEST(Analyze, PeriodicSequenceEq7Accounting)
{
    // Period-3 sequence repeated 5 times: at L=3, windows starting at
    // each A are deterministic; greedy fuses 5 of them.
    ProximityAnalyzer pa(seqOf("ABCABCABCABCABC"));
    ChainStats stats = pa.analyze(3);
    EXPECT_EQ(stats.fusedChains, 5u);
    EXPECT_EQ(stats.kFused, 15u - 5u * 2u);
    EXPECT_DOUBLE_EQ(stats.idealSpeedup, 3.0);
}

TEST(Analyze, SweepCoversAllLengths)
{
    ProximityAnalyzer pa(seqOf("ABCABCABC"));
    auto sweep = pa.sweep({2, 3, 4});
    ASSERT_EQ(sweep.size(), 3u);
    EXPECT_EQ(sweep[0].length, 2u);
    EXPECT_EQ(sweep[2].length, 4u);
}

// -------------------------------------------------------------- candidates

TEST(Candidates, ThresholdFilters)
{
    ProximityAnalyzer pa(seqOf("ABABAC"));
    auto all = pa.candidates(2, 0.0);
    auto strict = pa.candidates(2, 1.0);
    EXPECT_GT(all.size(), strict.size());
    for (const auto &cand : strict)
        EXPECT_DOUBLE_EQ(cand.proximityScore, 1.0);
}

TEST(Candidates, SortedByFrequency)
{
    ProximityAnalyzer pa(seqOf("ABABABxCDx"));
    auto cands = pa.candidates(2, 1.0);
    ASSERT_GE(cands.size(), 2u);
    EXPECT_GE(cands[0].frequency, cands[1].frequency);
    EXPECT_EQ(cands[0].kernels, seqOf("AB"));
}

TEST(Candidates, BadThresholdThrows)
{
    ProximityAnalyzer pa(seqOf("AB"));
    EXPECT_THROW(pa.candidates(2, -0.1), FatalError);
    EXPECT_THROW(pa.candidates(2, 1.1), FatalError);
}

// ------------------------------------------------------------------ report

TEST(Recommend, ReportSelectsBestLength)
{
    // Strongly periodic: longer chains win.
    std::string compact;
    for (int i = 0; i < 16; ++i)
        compact += "ABCD";
    FusionReport report = recommend(seqOf(compact), {2, 4});
    EXPECT_EQ(report.kEager, 64u);
    EXPECT_EQ(report.best().length, 4u);
    EXPECT_DOUBLE_EQ(report.best().idealSpeedup, 4.0);
    EXPECT_FALSE(report.topCandidates.empty());
}

TEST(Recommend, RenderListsAllLengths)
{
    FusionReport report = recommend(seqOf("ABABABAB"), {2, 4});
    std::string text = report.render();
    EXPECT_NE(text.find("K_eager = 8"), std::string::npos);
    EXPECT_NE(text.find("speedup"), std::string::npos);
}

TEST(Recommend, EmptyLengthsThrow)
{
    EXPECT_THROW(recommend(seqOf("AB"), {}), FatalError);
}

TEST(Recommend, CandidateCapRespected)
{
    std::string compact;
    for (int i = 0; i < 30; ++i)
        compact += "AB";
    FusionReport report = recommend(seqOf(compact), {2}, 1.0, 1);
    EXPECT_LE(report.topCandidates.size(), 1u);
}

TEST(Recommend, BestOnEmptyReportThrows)
{
    FusionReport report;
    EXPECT_THROW(report.best(), FatalError);
}

// ------------------------------------------------------- trace integration

TEST(TraceSequence, ExtractsKernelsInStreamOrder)
{
    trace::Trace tr;
    auto add_kernel = [&](const char *name, std::int64_t ts) {
        trace::TraceEvent k;
        k.kind = trace::EventKind::Kernel;
        k.name = name;
        k.tsBeginNs = ts;
        k.durNs = 1;
        k.streamId = 7;
        k.correlationId = static_cast<std::uint64_t>(ts);
        tr.add(k);
    };
    add_kernel("late", 100);
    add_kernel("early", 1);
    trace::TraceEvent mc;
    mc.kind = trace::EventKind::Memcpy;
    mc.name = "Memcpy HtoD";
    mc.tsBeginNs = 0;
    mc.durNs = 1;
    mc.streamId = 7;
    tr.add(mc);

    auto seq = kernelSequenceFromTrace(tr);
    ASSERT_EQ(seq.size(), 2u); // memcpy excluded
    EXPECT_EQ(seq[0], "early");
    EXPECT_EQ(seq[1], "late");
}

TEST(DefaultLengths, MatchPaperSweep)
{
    auto lengths = defaultChainLengths();
    ASSERT_EQ(lengths.size(), 8u);
    EXPECT_EQ(lengths.front(), 2u);
    EXPECT_EQ(lengths.back(), 256u);
}

// ------------------------------------------------- map-based oracle (diff)

/**
 * Reference miner: copies every length-L window into an ordered map, as
 * ProximityAnalyzer did before it ranked windows by prefix doubling.
 */
std::map<std::vector<std::string>, std::size_t>
oracleWindowCounts(const std::vector<std::string> &seq, std::size_t length)
{
    std::map<std::vector<std::string>, std::size_t> counts;
    if (length == 0 || length > seq.size())
        return counts;
    for (std::size_t i = 0; i + length <= seq.size(); ++i)
        ++counts[{seq.begin() + static_cast<long>(i),
                  seq.begin() + static_cast<long>(i + length)}];
    return counts;
}

std::size_t
oracleFrequency(const std::vector<std::string> &seq, const std::string &k)
{
    return static_cast<std::size_t>(std::count(seq.begin(), seq.end(), k));
}

ChainStats
oracleAnalyze(const std::vector<std::string> &seq, std::size_t length)
{
    ChainStats stats;
    stats.length = length;
    stats.kEager = seq.size();
    std::set<std::vector<std::string>> deterministic;
    for (const auto &[window, freq] : oracleWindowCounts(seq, length)) {
        ++stats.uniqueChains;
        stats.totalInstances += freq;
        if (freq == oracleFrequency(seq, window.front()))
            deterministic.insert(window);
    }
    stats.deterministicChains = deterministic.size();
    std::size_t i = 0;
    while (i + length <= seq.size()) {
        std::vector<std::string> window(
            seq.begin() + static_cast<long>(i),
            seq.begin() + static_cast<long>(i + length));
        if (deterministic.count(window)) {
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

std::vector<ChainCandidate>
oracleCandidates(const std::vector<std::string> &seq, std::size_t length,
                 double threshold)
{
    std::vector<ChainCandidate> out;
    for (const auto &[window, freq] : oracleWindowCounts(seq, length)) {
        double ps = static_cast<double>(freq) /
            static_cast<double>(oracleFrequency(seq, window.front()));
        if (ps + 1e-12 < threshold)
            continue;
        out.push_back({window, freq, ps});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const ChainCandidate &a, const ChainCandidate &b) {
                         if (a.frequency != b.frequency)
                             return a.frequency > b.frequency;
                         return a.kernels < b.kernels;
                     });
    return out;
}

void
expectSameStats(const ChainStats &got, const ChainStats &want)
{
    EXPECT_EQ(got.length, want.length);
    EXPECT_EQ(got.uniqueChains, want.uniqueChains);
    EXPECT_EQ(got.totalInstances, want.totalInstances);
    EXPECT_EQ(got.deterministicChains, want.deterministicChains);
    EXPECT_EQ(got.fusedChains, want.fusedChains);
    EXPECT_EQ(got.kernelsFused, want.kernelsFused);
    EXPECT_EQ(got.kEager, want.kEager);
    EXPECT_EQ(got.kFused, want.kFused);
    EXPECT_EQ(got.idealSpeedup, want.idealSpeedup);
}

/**
 * Random sequences: a period-`period` pattern where each kernel is
 * replaced with probability 1/`noise` by one of `alphabet` letters.
 */
std::vector<std::string>
noisyPeriodic(std::size_t n, std::size_t period, std::size_t alphabet,
              std::uint64_t noise, std::uint64_t seed)
{
    std::vector<std::string> out;
    std::uint64_t state = seed;
    auto next = [&] {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        return state >> 33;
    };
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t letter = i % period;
        if (next() % noise == 0)
            letter = next() % alphabet;
        out.emplace_back(1, static_cast<char>('A' + letter % 52));
    }
    return out;
}

TEST(RankOracle, AnalyzeAndCandidatesMatchMapOracle)
{
    struct Case
    {
        std::size_t n, period, alphabet;
        std::uint64_t noise;
    };
    const Case cases[] = {
        {0, 1, 1, 1},    {1, 1, 1, 1},     {7, 3, 3, 2},
        {64, 4, 2, 1},   {150, 5, 5, 9},   {300, 1, 1, 1000000},
        {300, 7, 7, 13}, {300, 12, 40, 4}, {300, 64, 52, 40},
    };
    std::uint64_t seed = 1;
    for (const Case &c : cases) {
        auto seq = noisyPeriodic(c.n, c.period, c.alphabet, c.noise, ++seed);
        ProximityAnalyzer pa(seq);
        std::vector<std::size_t> lengths;
        for (std::size_t length = 2; length <= 300;
             length += length < 20 ? 1 : 7)
            lengths.push_back(length);
        for (std::size_t length : {31, 32, 33, 63, 64, 65, 127, 128, 129,
                                   255, 256, 257, 299, 300})
            lengths.push_back(length);
        lengths.push_back(c.n);
        lengths.push_back(c.n + 1);
        for (std::size_t length : lengths) {
            if (length < 2)
                continue;
            SCOPED_TRACE(::testing::Message()
                         << "n=" << c.n << " period=" << c.period
                         << " L=" << length);
            expectSameStats(pa.analyze(length), oracleAnalyze(seq, length));
            for (double threshold : {0.0, 0.5, 1.0}) {
                auto got = pa.candidates(length, threshold);
                auto want = oracleCandidates(seq, length, threshold);
                ASSERT_EQ(got.size(), want.size());
                for (std::size_t i = 0; i < got.size(); ++i) {
                    EXPECT_EQ(got[i].kernels, want[i].kernels);
                    EXPECT_EQ(got[i].frequency, want[i].frequency);
                    EXPECT_EQ(got[i].proximityScore,
                              want[i].proximityScore);
                }
            }
        }
        // Width 0 and 1 candidates: nothing, and every single kernel.
        EXPECT_TRUE(pa.candidates(0, 0.0).empty());
        auto singles = pa.candidates(1, 0.0);
        auto want_singles = oracleCandidates(seq, 1, 0.0);
        ASSERT_EQ(singles.size(), want_singles.size());
        for (std::size_t i = 0; i < singles.size(); ++i)
            EXPECT_EQ(singles[i].kernels, want_singles[i].kernels);
    }
}

TEST(RankOracle, SweepSharesLevelsInAnyLengthOrder)
{
    auto seq = noisyPeriodic(300, 6, 9, 11, 42);
    ProximityAnalyzer pa(seq);
    // Unsorted, repeated and non-power-of-two lengths, one past N.
    std::vector<std::size_t> lengths = {256, 3, 64, 2, 301, 17, 64, 300,
                                        5, 128, 4, 100};
    auto sweep = pa.sweep(lengths);
    ASSERT_EQ(sweep.size(), lengths.size());
    for (std::size_t i = 0; i < lengths.size(); ++i) {
        SCOPED_TRACE(lengths[i]);
        expectSameStats(sweep[i], oracleAnalyze(seq, lengths[i]));
    }
    EXPECT_THROW(pa.sweep({4, 1, 8}), FatalError);
    EXPECT_TRUE(pa.sweep({}).empty());
}

// --------------------------------------------- property-style parameterized

class GreedyInvariant : public ::testing::TestWithParam<std::size_t>
{};

TEST_P(GreedyInvariant, Eq7AccountingAlwaysConsistent)
{
    // A pseudo-random but deterministic sequence over a small alphabet.
    std::vector<std::string> seq;
    std::uint64_t state = 0x1234;
    for (int i = 0; i < 200; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        seq.emplace_back(1, static_cast<char>('A' + (state >> 60) % 6));
    }
    ProximityAnalyzer pa(seq);
    std::size_t length = GetParam();
    ChainStats stats = pa.analyze(length);

    // Invariants of Eqs. 7/8 and the greedy cover.
    EXPECT_EQ(stats.kernelsFused, stats.fusedChains * length);
    EXPECT_LE(stats.kernelsFused, stats.kEager);
    EXPECT_EQ(stats.kFused,
              stats.kEager - stats.fusedChains * (length - 1));
    EXPECT_GE(stats.idealSpeedup, 1.0);
    EXPECT_LE(stats.deterministicChains, stats.uniqueChains);
    if (stats.uniqueChains > 0) {
        EXPECT_EQ(stats.totalInstances,
                  stats.kEager - length + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, GreedyInvariant,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 64, 128));

} // namespace
} // namespace skipsim::fusion
