/**
 * @file
 * Proximity-score kernel-chain mining (paper Sec. III-C, Eqs. 6-8).
 *
 * Given the kernel execution sequence of a run, a chain C of length L
 * starting with kernel k_i has proximity score
 *
 *     PS(C) = f(C) / f(k_i)
 *
 * where f(C) is the chain's occurrence count and f(k_i) the count of
 * its first kernel. PS(C) = 1 identifies a deterministic pattern:
 * every time k_i executes, the same L-1 kernels follow — an ideal
 * fusion candidate. Fusing C_fused non-overlapping deterministic
 * chains reduces launches to
 *
 *     K_fused = K_eager - C_fused * (L - 1)            (Eq. 7)
 *
 * for an idealized launch-saving speedup K_eager / K_fused (Eq. 8).
 */

#ifndef SKIPSIM_FUSION_PROXIMITY_HH
#define SKIPSIM_FUSION_PROXIMITY_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace skipsim::fusion
{

/** Aggregate chain-mining statistics for one chain length L. */
struct ChainStats
{
    std::size_t length = 0;

    /** Distinct length-L windows observed (irrespective of PS). */
    std::size_t uniqueChains = 0;

    /** Total window occurrences (sum of frequencies). */
    std::size_t totalInstances = 0;

    /** Distinct chains with PS == 1. */
    std::size_t deterministicChains = 0;

    /** Non-overlapping deterministic chains selected for fusion. */
    std::size_t fusedChains = 0;

    /** Kernels covered by the fused chains (fusedChains * L). */
    std::size_t kernelsFused = 0;

    /** Eager-mode launch count. */
    std::size_t kEager = 0;

    /** Post-fusion launch count (Eq. 7). */
    std::size_t kFused = 0;

    /** Idealized launch-saving speedup (Eq. 8). */
    double idealSpeedup = 1.0;
};

/** One recommended fusion chain. */
struct ChainCandidate
{
    std::vector<std::string> kernels;
    std::size_t frequency = 0;
    double proximityScore = 0.0;
};

/**
 * Mines kernel chains of a single execution sequence.
 * Kernel names are interned internally. Every length-L window gets an
 * exact integer rank by prefix doubling over the interned ids (two
 * overlapping power-of-two halves for other L), so mining one length
 * costs O(N log L) and a sweep shares the doubling levels: O(N) per
 * level plus O(N) per length, with no window copies.
 */
class ProximityAnalyzer
{
  public:
    /** Analyze a kernel-name sequence (stream order). */
    explicit ProximityAnalyzer(std::vector<std::string> sequence);

    /** Length of the analyzed sequence (K_eager). */
    std::size_t sequenceLength() const { return _seq.size(); }

    /** Occurrences of one kernel name. */
    std::size_t kernelFrequency(const std::string &kernel) const;

    /** Occurrences of a chain (contiguous subsequence). */
    std::size_t chainFrequency(const std::vector<std::string> &chain) const;

    /**
     * Eq. 6 for an arbitrary chain.
     * @return 0 when the chain never occurs; otherwise
     *         f(C) / f(first kernel).
     */
    double proximityScore(const std::vector<std::string> &chain) const;

    /**
     * Mine all length-L statistics: unique/total/deterministic chains,
     * greedy non-overlapping fusion selection, Eq. 7/8 results.
     * @throws skipsim::FatalError when L < 2.
     */
    ChainStats analyze(std::size_t length) const;

    /** analyze() across several lengths. */
    std::vector<ChainStats> sweep(const std::vector<std::size_t> &lengths)
        const;

    /**
     * Chains of length L with PS >= threshold, sorted by frequency
     * descending (then lexicographically for determinism).
     */
    std::vector<ChainCandidate> candidates(std::size_t length,
                                           double threshold) const;

  private:
    std::vector<int> _seq;                 ///< interned sequence
    std::vector<std::string> _names;       ///< intern table
    std::map<std::string, int> _ids;
    std::vector<std::size_t> _kernelFreq;  ///< per interned id

    int internedId(const std::string &name) const;
};

/** Default chain-length sweep used by the paper's Figs. 7-9. */
std::vector<std::size_t> defaultChainLengths();

/**
 * Kernel names in stream (begin-time) order from a trace, excluding
 * memcpys — the input sequence for proximity mining.
 */
std::vector<std::string> kernelSequenceFromTrace(const trace::Trace &trace);

} // namespace skipsim::fusion

#endif // SKIPSIM_FUSION_PROXIMITY_HH
