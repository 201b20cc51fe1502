#include "sim/rng.hh"

#include <array>
#include <bit>
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
    if (logQ != 0.0) {
        invLogQ = 1.0 / logQ;
        slack = 0x1.0p-38 / std::fabs(logQ);
    }
}

namespace
{

/**
 * Natural log of y = n * 2^-53 for an integer n in [1, 2^53] (so
 * |ln y| <= 53 ln 2 < 37), with no libm call.
 *
 * y = m * 2^e with m in [1, 2). The top 8 fraction bits of m pick a
 * table entry c near m (the centre of its 1/256-wide interval);
 * t = m * (1/c) - 1 then satisfies |t| < 2^-9 + 2^-52, and
 *     ln y = e ln 2 + ln c' + log1p(t),   c' = 1 / fl(1/c),
 * with log1p(t) from its degree-5 Taylor polynomial. Error budget
 * (absolute): truncation |t|^6 / 6 < 2^-56; t itself is off by at
 * most half an ulp of 1 (2^-53) and the table's ln c' by one ulp of
 * a value below ln 2 (2^-53); e * LN2_HI is exact (LN2_HI carries
 * 32 significant bits and |e| <= 54); the inner sums round by at
 * most 2^-53 each and the final sum, below 37 in magnitude, by at
 * most 2^-48. The total stays below 2^-47.
 */
class FastLog
{
  public:
    FastLog()
    {
        for (unsigned i = 0; i < kEntries; ++i) {
            const double c = 1.0 + (i + 0.5) / kEntries;
            _entries[i].invC = 1.0 / c;
            _entries[i].lnC = -std::log(_entries[i].invC);
        }
    }

    [[nodiscard]] double
    lnScaled(std::uint64_t n) const
    {
        const auto bits = std::bit_cast<std::uint64_t>(
            static_cast<double>(n)); // exact: n <= 2^53
        const int e = static_cast<int>(bits >> 52) - 1023 - 53;
        const Entry &entry = _entries[(bits >> 44) & (kEntries - 1)];
        const double m = std::bit_cast<double>(
            (bits & kFractionMask) | kExponentOfOne);
        const double t = m * entry.invC - 1.0;
        const double poly =
            t + t * t * (-0.5 + t * (1.0 / 3 + t * (-0.25 + t * 0.2)));
        const double de = static_cast<double>(e);
        return de * kLn2Hi + (entry.lnC + (de * kLn2Lo + poly));
    }

  private:
    static constexpr unsigned kEntries = 256;
    static constexpr std::uint64_t kFractionMask =
        (std::uint64_t{1} << 52) - 1;
    static constexpr std::uint64_t kExponentOfOne = std::uint64_t{1023}
                                                    << 52;
    /** ln 2 split as in fdlibm: the high part has 32 significant
     * bits, so e * kLn2Hi is exact for |e| < 2^21. */
    static constexpr double kLn2Hi = 6.93147180369123816490e-01;
    static constexpr double kLn2Lo = 1.90821492927058770002e-10;

    struct Entry
    {
        double invC; ///< fl(1 / c)
        double lnC;  ///< ln(1 / invC), so ln m = lnC + ln(m * invC)
    };
    std::array<Entry, kEntries> _entries{};
};

/** Built once at start-up; read-only afterwards, so a lookup needs no
 * initialization guard and threads can share it. */
const FastLog kFastLog;

/** The inverse CDF exactly as first written: the reference that the
 * fast path must reproduce, and its fallback. */
std::uint64_t
geometricByLog1p(double u, const GeometricGap &gap)
{
    // Inverse CDF of the geometric distribution on {0, 1, 2, ...}
    // with success probability p = 1 / (mean + 1).
    double g = std::floor(std::log1p(-u) / gap.logQ);
    if (g < 0.0)
        g = 0.0;
    return static_cast<std::uint64_t>(g);
}

} // namespace

std::uint64_t
geometricFromDraw(std::uint64_t draw, const GeometricGap &gap)
{
    if (gap.logQ == 0.0)
        return 0;
    const double u = static_cast<double>(draw) * 0x1.0p-53;
    // Exactness. For u = draw * 2^-53, 1 - u = (2^53 - draw) * 2^-53
    // exactly, so log1p(-u) and ln(1 - u) are the same real number L.
    // glibc's log1p (fdlibm s_log1p.c: "error is always less than
    // 1 ulp") is within 2^-47 of L, since |L| < 37 < 64; FastLog is
    // within 2^-47 too (see above). Dividing by logQ, and here
    // multiplying by the rounded 1 / logQ, adds a few 2^-53 relative
    // roundings. So the reference quotient zr and z below both lie
    // within 2^-46 / |logQ| + 2^-50 z of the exact L / logQ, and zr
    // lies inside (z - s, z + s) for s = 2^-38 / |logQ| + 2^-48 z,
    // with room to spare for the rounding of z +- s itself. zr >= 0
    // (L <= 0 and logQ < 0), so the interval may be clamped at 0.
    // When both ends share an integer part, that is floor(zr): the
    // reference result. Otherwise (a draw within s of a boundary,
    // or a result too large for an exact conversion) the reference
    // formula decides.
    const double z = kFastLog.lnScaled((std::uint64_t{1} << 53) - draw) *
                     gap.invLogQ;
    const double s = gap.slack + 0x1.0p-48 * z;
    const double lo = z - s > 0.0 ? z - s : 0.0;
    const double hi = z + s;
    if (hi < 0x1.0p52) {
        const auto floorLo = static_cast<std::uint64_t>(lo);
        if (floorLo == static_cast<std::uint64_t>(hi))
            return floorLo;
    }
    return geometricByLog1p(u, gap);
}

} // namespace mellowsim
