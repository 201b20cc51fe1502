/**
 * @file
 * Analytic write-latency / endurance trade-off model.
 *
 * Implements Equation 2 of the paper (derived from Strukov's analytic
 * model, Applied Physics A 2016):
 *
 *     Endurance(t_WP) = E0 * (t_WP / t0) ^ Expo_Factor
 *
 * with the paper's ReRAM baseline of t0 = 150 ns and E0 = 5e6 writes,
 * and Expo_Factor in [1.0, 3.0] (default 2.0, the quadratic trade-off
 * used in the paper's main results).
 *
 * wearPerWrite() runs on every write, twice with Wear Quota on (the
 * tracker and the quota share one model), yet a controller issues
 * only two pulses in steady state: tWP and the slow pulse. The model
 * therefore memoizes 1 / Endurance for the last two latency ratios,
 * so the hot path calls std::pow only when the ratio changes. A hit
 * returns the double that the same computation produced before, so
 * it is bit-identical by construction. The memo starts empty (NaN
 * keys, which equal nothing), so a ratio never computed, 0 included,
 * still reaches enduranceAtRatio() and its fatal_if. The memo makes
 * the const accessors write to the model: one model must not be
 * shared between threads.
 */

#ifndef MELLOWSIM_WEAR_ENDURANCE_MODEL_HH
#define MELLOWSIM_WEAR_ENDURANCE_MODEL_HH

#include <array>
#include <limits>

#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/** Parameters for the analytic endurance model (Section II). */
struct EnduranceParams
{
    /** Baseline (normal) write pulse time, t0. 150 ns for ReRAM. */
    // mlint: allow(timing-literal): compiled-in default tied to the
    // tWP config key by the device binding
    Tick baseWriteLatency = 150 * kNanosecond;
    /** Endurance at the baseline latency, in writes. 5e6 for ReRAM. */
    double baseEndurance = 5.0e6;
    /** Expo_Factor = U_F / U_S - 1, in [1.0, 3.0]; 2.0 by default. */
    double expoFactor = 2.0;
};

/**
 * Maps a write pulse latency to the cell endurance it implies.
 *
 * The model is monotone: slower writes never reduce endurance (for
 * expoFactor > 0); tests assert this property over dense sweeps.
 */
class EnduranceModel
{
  public:
    explicit EnduranceModel(const EnduranceParams &params = {});

    /** Endurance (total writes to failure) for a given pulse time. */
    [[nodiscard]] double enduranceAt(Tick writeLatency) const;

    /** Endurance for a latency slow-down factor N (N=1 is baseline). */
    [[nodiscard]] double enduranceAtFactor(PulseFactor n) const;

    /**
     * Wear units contributed by a single write at the given latency:
     * the fraction of the cell's life consumed, 1 / Endurance.
     */
    [[nodiscard]] double
    wearPerWrite(Tick writeLatency) const
    {
        return wearAtRatio(static_cast<double>(writeLatency) /
                           static_cast<double>(_params.baseWriteLatency));
    }

    /** Wear units for a latency factor N. */
    [[nodiscard]] double
    wearPerWriteFactor(PulseFactor n) const
    {
        // mlint: allow(value-escape): sanctioned hand-off of the
        // (>= 1 by construction) factor to the shared ratio path.
        return wearAtRatio(n.value());
    }

    [[nodiscard]] const EnduranceParams &params() const
    {
        return _params;
    }

  private:
    /** Shared power law over the (unclamped) latency ratio. */
    [[nodiscard]] double enduranceAtRatio(double n) const;

    /** 1 / enduranceAtRatio(n), answered from the memo when it can. */
    [[nodiscard]] double
    wearAtRatio(double n) const
    {
        if (_memo[0].ratio == n)
            return _memo[0].wear;
        if (_memo[1].ratio == n)
            return _memo[1].wear;
        return computeWear(n);
    }

    /** Memo miss: compute, then keep it as the most recent entry. */
    double computeWear(double n) const;

    /** One memoized ratio and its wear; a NaN ratio marks it empty. */
    struct WearMemo
    {
        double ratio = std::numeric_limits<double>::quiet_NaN();
        double wear = 0.0;
    };

    EnduranceParams _params;
    /** Most recent first. */
    mutable std::array<WearMemo, 2> _memo{};
};

} // namespace mellowsim

#endif // MELLOWSIM_WEAR_ENDURANCE_MODEL_HH
