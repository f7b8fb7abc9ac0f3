/**
 * @file
 * Indexed min-tree (a winner tree) over a fixed set of leaves. Leaf
 * keys are padded up to a power of two, and every inner node stores
 * the leaf that wins its subtree, so the root names the least leaf in
 * O(1) and re-keying one leaf replays its path in O(log n). Ties go to
 * the lower leaf: a node takes its right child's winner only when that
 * key is strictly less, which is what a scan that keeps the first
 * strictly smaller key returns.
 *
 * Two users share it: the router keeps one tree of loads per dispatch
 * class, and core::EventQueue keeps one tree of keyed slots (one
 * pending iteration end per replica).
 */

#ifndef SKIPSIM_CORE_MIN_TREE_HH
#define SKIPSIM_CORE_MIN_TREE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace skipsim::core
{

/** Winner tree over leaves of @p Key ordered by @p Less. */
template <typename Key, typename Less = std::less<Key>>
class MinTree
{
  public:
    explicit MinTree(Less less = Less()) : _less(less)
    {
        assign({}, Key{});
    }

    /** Leaves @p keys, padded to a power of two (at least one leaf)
     *  with @p pad; builds every winner bottom-up in O(n). */
    void
    assign(const std::vector<Key> &keys, const Key &pad)
    {
        const std::size_t width = std::bit_ceil(std::max<std::size_t>(
            keys.size(), 1));
        _keys.assign(width, pad);
        std::copy(keys.begin(), keys.end(), _keys.begin());
        _win.assign(2 * width, 0);
        for (std::size_t leaf = 0; leaf < width; ++leaf)
            _win[width + leaf] = static_cast<std::uint32_t>(leaf);
        for (std::size_t node = width - 1; node >= 1; --node) {
            const std::uint32_t left = _win[2 * node];
            const std::uint32_t right = _win[2 * node + 1];
            _win[node] = _less(_keys[right], _keys[left]) ? right : left;
        }
    }

    /** The least leaf (the lower one on a tie). */
    std::uint32_t top() const { return _win[1]; }
    const Key &key(std::size_t leaf) const { return _keys[leaf]; }

    /**
     * Re-key @p leaf and replay its path to the root. The path's
     * winner rides up in a register: each level reads only the
     * sibling's winner, which the walk never writes, so no load waits
     * on the store before it, and the lower leaf keeps a tie.
     */
    void
    setLeaf(std::size_t leaf, const Key &key)
    {
        _keys[leaf] = key;
        std::uint32_t best = static_cast<std::uint32_t>(leaf);
        for (std::size_t node = _keys.size() + leaf; node > 1; node >>= 1) {
            const std::uint32_t other = _win[node ^ 1];
            if (_less(_keys[other], _keys[best]) ||
                (!_less(_keys[best], _keys[other]) && other < best))
                best = other;
            _win[node >> 1] = best;
        }
    }

  private:
    std::vector<Key> _keys;          ///< leaf keys, padded
    std::vector<std::uint32_t> _win; ///< node -> winning leaf
    Less _less;
};

} // namespace skipsim::core

#endif // SKIPSIM_CORE_MIN_TREE_HH
