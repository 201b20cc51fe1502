#include "sim/rng.hh"

#include <cmath>

namespace mellowsim
{

std::uint64_t
Rng::splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    _s0 = splitmix64(x);
    _s1 = splitmix64(x);
    // xorshift128+ requires a non-zero state.
    if (_s0 == 0 && _s1 == 0)
        _s1 = 1;
}

std::uint64_t
Rng::next()
{
    std::uint64_t x = _s0;
    const std::uint64_t y = _s1;
    _s0 = y;
    x ^= x << 23;
    _s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
    return _s1 + y;
}

std::uint64_t
Rng::nextBounded(std::uint64_t bound)
{
    if (bound <= 1)
        return 0;
    // Lemire's multiply-shift; the tiny modulo bias is irrelevant for
    // workload synthesis.
    return static_cast<std::uint64_t>(
        (static_cast<__uint128_t>(next()) * bound) >> 64);
}

double
Rng::nextDouble()
{
    // 53 random mantissa bits.
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return nextDouble() < p;
}

GeometricGap::GeometricGap(double mean)
    : logQ(mean <= 0.0 ? 0.0 : std::log1p(-(1.0 / (mean + 1.0))))
{
}

std::uint64_t
Rng::nextGeometric(GeometricGap gap)
{
    // log1p(-p) < 0 for every p in (0, 1): 0 can only mean "mean <= 0".
    if (gap.logQ == 0.0)
        return 0;
    double u = nextDouble();
    // Inverse CDF of the geometric distribution on {0, 1, 2, ...}
    // with success probability p = 1 / (mean + 1).
    double g = std::floor(std::log1p(-u) / gap.logQ);
    if (g < 0.0)
        g = 0.0;
    return static_cast<std::uint64_t>(g);
}

} // namespace mellowsim
