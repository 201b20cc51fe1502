/**
 * @file
 * Open-addressing multiset counter for integer keys.
 *
 * Replaces `std::unordered_map<Key, unsigned>` on hot lookup paths
 * (the controller's buffered-write block index): one flat
 * power-of-two cell array, linear probing, backward-shift deletion
 * (no tombstones), and no per-node allocation — the only allocation
 * is the cell array itself, which grows geometrically and is reused
 * forever after.
 *
 * Determinism: the structure is never iterated, only probed by key,
 * so hash/probe order cannot leak into simulation results.
 */

#ifndef MELLOWSIM_SIM_FLAT_COUNTER_HH
#define MELLOWSIM_SIM_FLAT_COUNTER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace mellowsim
{

/**
 * Counts occurrences of integer keys. increment()/decrement()/count()
 * are O(1) expected; cells hold (key, count) pairs and a zero count
 * marks an empty cell.
 */
template <typename Key = std::uint64_t>
class FlatCounter
{
    static_assert(sizeof(Key) <= sizeof(std::uint64_t));

  public:
    explicit FlatCounter(std::size_t initialCells = 64)
    {
        std::size_t cells = 16;
        while (cells < initialCells)
            cells <<= 1;
        _cells.resize(cells);
    }

    /** Distinct keys currently present. */
    [[nodiscard]] std::size_t size() const { return _used; }

    [[nodiscard]] bool empty() const { return _used == 0; }

    /** Occurrences of @p key (0 when absent). */
    [[nodiscard]] unsigned
    count(Key key) const
    {
        std::size_t mask = _cells.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            const Cell &c = _cells[i];
            if (c.count == 0)
                return 0;
            if (c.key == key)
                return c.count;
        }
    }

    /** Add one occurrence of @p key. */
    void
    increment(Key key)
    {
        if ((_used + 1) * 4 > _cells.size() * 3)
            grow();
        std::size_t mask = _cells.size() - 1;
        for (std::size_t i = hash(key) & mask;; i = (i + 1) & mask) {
            Cell &c = _cells[i];
            if (c.count == 0) {
                c.key = key;
                c.count = 1;
                ++_used;
                return;
            }
            if (c.key == key) {
                ++c.count;
                return;
            }
        }
    }

    /** Remove one occurrence of @p key; panics when absent. */
    void
    decrement(Key key)
    {
        std::size_t mask = _cells.size() - 1;
        std::size_t i = hash(key) & mask;
        for (;; i = (i + 1) & mask) {
            Cell &c = _cells[i];
            panic_if(c.count == 0,
                     "FlatCounter::decrement: key not present");
            if (c.key == key) {
                if (--c.count > 0)
                    return;
                break;
            }
        }
        // Count hit zero: erase cell i by backward-shifting the
        // displaced tail of its probe cluster (no tombstones).
        --_used;
        std::size_t hole = i;
        for (std::size_t j = (hole + 1) & mask;; j = (j + 1) & mask) {
            Cell &c = _cells[j];
            if (c.count == 0)
                break;
            std::size_t home = hash(c.key) & mask;
            // Move c into the hole iff the hole lies on c's probe
            // path from its home cell (cyclic interval test).
            bool movable = hole <= j
                               ? (home <= hole || home > j)
                               : (home <= hole && home > j);
            if (movable) {
                _cells[hole] = c;
                c.count = 0;
                hole = j;
            }
        }
        _cells[hole].count = 0;
    }

  private:
    struct Cell
    {
        Key key{};
        std::uint32_t count = 0; ///< 0 marks an empty cell
    };

    /** SplitMix64 finalizer: well-mixed bits for linear probing. */
    [[nodiscard]] static std::size_t
    hash(Key key)
    {
        std::uint64_t h = static_cast<std::uint64_t>(key);
        h += 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        return static_cast<std::size_t>(h ^ (h >> 31));
    }

    void
    grow()
    {
        std::vector<Cell> old = std::move(_cells);
        _cells.assign(old.size() * 2, Cell{});
        std::size_t mask = _cells.size() - 1;
        for (const Cell &c : old) {
            if (c.count == 0)
                continue;
            for (std::size_t i = hash(c.key) & mask;;
                 i = (i + 1) & mask) {
                if (_cells[i].count == 0) {
                    _cells[i] = c;
                    break;
                }
            }
        }
    }

    std::vector<Cell> _cells;
    std::size_t _used = 0;
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_FLAT_COUNTER_HH
