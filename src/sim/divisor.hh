/**
 * @file
 * Division by a divisor fixed at construction.
 *
 * Address decode divides by geometry constants on every request.
 * Every shipped device has power-of-two geometry, where a quotient is
 * a shift and a remainder a mask; device files may still set any
 * geometry, so other divisors keep the hardware divide. The choice is
 * made once, and the branch on it is perfectly predicted.
 */

#ifndef MELLOWSIM_SIM_DIVISOR_HH
#define MELLOWSIM_SIM_DIVISOR_HH

#include <cstdint>

#include "sim/types.hh"

namespace mellowsim
{

/** A non-zero divisor, reduced to a shift and a mask when possible. */
class Divisor
{
  public:
    constexpr Divisor() = default;

    explicit constexpr Divisor(std::uint64_t d)
        : _divisor(d), _pow2(isPowerOfTwo(d)),
          _shift(_pow2 ? floorLog2(d) : 0), _mask(d - 1)
    {
    }

    [[nodiscard]] constexpr std::uint64_t
    divisor() const
    {
        return _divisor;
    }

    /** @p x / divisor(). */
    [[nodiscard]] constexpr std::uint64_t
    quot(std::uint64_t x) const
    {
        return _pow2 ? x >> _shift : x / _divisor;
    }

    /** @p x % divisor(). */
    [[nodiscard]] constexpr std::uint64_t
    rem(std::uint64_t x) const
    {
        return _pow2 ? x & _mask : x % _divisor;
    }

  private:
    std::uint64_t _divisor = 1;
    bool _pow2 = true;
    unsigned _shift = 0;
    std::uint64_t _mask = 0;
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_DIVISOR_HH
