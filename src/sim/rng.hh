/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * All stochastic behaviour in the simulator (workload address streams,
 * random LLC set selection for the eager scanner, ...) draws from
 * seeded xorshift128+ generators so every experiment is
 * bit-reproducible. std::mt19937 is deliberately avoided: its state is
 * large and its distributions are implementation-defined across
 * standard libraries.
 *
 * The geometric gap draw runs once per workload op, warm-up included,
 * so it avoids libm: geometricFromDraw() evaluates the inverse CDF
 * with a table-driven natural log and returns its floor whenever the
 * log's error bound cannot move the result across an integer. Only
 * the rare draw within that bound of a boundary falls back to the
 * std::log1p formula, so every draw equals the formula's bit for bit
 * (the argument is written out in rng.cc).
 */

#ifndef MELLOWSIM_SIM_RNG_HH
#define MELLOWSIM_SIM_RNG_HH

#include <cstdint>

namespace mellowsim
{

/**
 * The per-distribution constant of Rng::nextGeometric: log1p(-p) for
 * success probability p = 1 / (mean + 1). Computing it once per
 * workload instead of once per draw leaves every draw bit-identical,
 * since the same operands reach the same division.
 */
struct GeometricGap
{
    /** Precompute for mean @p mean; a mean <= 0 always draws 0. */
    explicit GeometricGap(double mean);

    /** log1p(-p); exactly 0.0 marks a mean <= 0. */
    double logQ = 0.0;
    /** 1 / logQ (0 for a mean <= 0), for the table-driven fast path. */
    double invLogQ = 0.0;
    /** 2^-38 / |logQ|: the absolute part of the fast path's slack. */
    double slack = 0.0;
};

/**
 * The geometric gap that Rng::nextGeometric(@p gap) returns for the
 * 53-bit draw @p draw (the top 53 bits of Rng::next(), so
 * u = draw * 2^-53 is nextDouble()): floor(log1p(-u) / gap.logQ),
 * clamped at 0, and 0 when gap.logQ is 0. Pure, so tests can aim
 * draws at the integer boundaries of the result.
 */
std::uint64_t geometricFromDraw(std::uint64_t draw, const GeometricGap &gap);

/**
 * xorshift128+ generator (Vigna, 2014). Fast, 16 bytes of state,
 * passes BigCrush except MatrixRank; more than adequate for workload
 * synthesis.
 */
class Rng
{
  public:
    /** Construct from a seed; any 64-bit value (including 0) is fine. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) using Lemire's multiply-shift. */
    std::uint64_t nextBounded(std::uint64_t bound);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw: true with probability @p p. */
    bool nextBool(double p);

    /**
     * Geometrically distributed gap with mean @p mean (>= 0).
     * Used for compute-instruction gaps between memory references.
     * A mean <= 0 returns 0 without drawing.
     */
    std::uint64_t nextGeometric(double mean)
    {
        return nextGeometric(GeometricGap(mean));
    }

    /** The same draw with its constant precomputed. */
    std::uint64_t
    nextGeometric(const GeometricGap &gap)
    {
        // log1p(-p) < 0 for every p in (0, 1]: 0 can only mean
        // "mean <= 0", which returns before drawing.
        if (gap.logQ == 0.0)
            return 0;
        return geometricFromDraw(next() >> 11, gap);
    }

  private:
    std::uint64_t _s0;
    std::uint64_t _s1;

    /** splitmix64 used to expand the single seed into state. */
    static std::uint64_t splitmix64(std::uint64_t &x);
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_RNG_HH
