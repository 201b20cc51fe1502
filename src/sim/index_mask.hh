/**
 * @file
 * Bitmask over a strong ordinal index space.
 *
 * The controller's scheduling pass used to probe every bank on every
 * attempt; an IndexMask maintained incrementally by the request
 * queues lets it visit only banks that can possibly have work.
 * Iteration (forEach) runs in ascending index order, so replacing a
 * full scan with a mask walk is deterministic by construction and
 * visits banks in exactly the order the full scan did.
 *
 * Like IndexedVector, this is typed-index infrastructure: the single
 * .value() escape below is the sanctioned bridge from an ordinal id
 * to a raw bit position (whitelisted in tools/analyze/whitelists.toml).
 */

#ifndef MELLOWSIM_SIM_INDEX_MASK_HH
#define MELLOWSIM_SIM_INDEX_MASK_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace mellowsim
{

/** A fixed-size set of ordinal ids backed by 64-bit words. */
template <typename Id>
class IndexMask
{
  public:
    IndexMask() = default;

    explicit IndexMask(std::size_t count)
        : _words((count + 63) / 64), _bits(count)
    {
    }

    /** Number of indexable ids. */
    [[nodiscard]] std::size_t sizeBits() const { return _bits; }

    [[nodiscard]] bool
    test(Id id) const
    {
        std::size_t raw = checkedIndex(id);
        return (_words[raw >> 6] >> (raw & 63)) & 1u;
    }

    void
    set(Id id)
    {
        std::size_t raw = checkedIndex(id);
        _words[raw >> 6] |= std::uint64_t{1} << (raw & 63);
    }

    void
    clear(Id id)
    {
        std::size_t raw = checkedIndex(id);
        _words[raw >> 6] &= ~(std::uint64_t{1} << (raw & 63));
    }

    [[nodiscard]] bool
    any() const
    {
        for (std::uint64_t w : _words) {
            if (w != 0)
                return true;
        }
        return false;
    }

    /**
     * Copy @p other's bits into this mask in place; both masks must
     * cover the same id range. Unlike copy-assignment (a memmove call
     * even for one word) this is a plain loop over the words, so a
     * per-pass snapshot calls no library code.
     */
    void
    assign(const IndexMask &other)
    {
        panic_if(other._bits != _bits,
                 "IndexMask assign over mismatched sizes (%zu vs %zu)",
                 _bits, other._bits);
        for (std::size_t w = 0; w < _words.size(); ++w)
            _words[w] = other._words[w];
    }

    /** Union; both masks must cover the same id range. */
    IndexMask &
    operator|=(const IndexMask &other)
    {
        panic_if(other._bits != _bits,
                 "IndexMask union over mismatched sizes (%zu vs %zu)",
                 _bits, other._bits);
        for (std::size_t w = 0; w < _words.size(); ++w)
            _words[w] |= other._words[w];
        return *this;
    }

    /** Visit every set id in ascending index order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t w = 0; w < _words.size(); ++w) {
            std::uint64_t bits = _words[w];
            while (bits != 0) {
                unsigned bit =
                    static_cast<unsigned>(std::countr_zero(bits));
                fn(Id(static_cast<typename Id::rep_type>(w * 64 +
                                                         bit)));
                bits &= bits - 1;
            }
        }
    }

  private:
    [[nodiscard]] std::size_t
    checkedIndex(Id id) const
    {
        // mlint: allow(value-escape): the typed-index mask is a
        // sanctioned bridge from an ordinal id to a raw bit position.
        auto raw = static_cast<std::size_t>(id.value());
        panic_if(raw >= _bits, "mask index %zu out of range (size %zu)",
                 raw, _bits);
        return raw;
    }

    std::vector<std::uint64_t> _words;
    std::size_t _bits = 0;
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_INDEX_MASK_HH
