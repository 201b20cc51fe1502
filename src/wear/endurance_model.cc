#include "wear/endurance_model.hh"

#include <cmath>

#include "sim/logging.hh"

namespace mellowsim
{

EnduranceModel::EnduranceModel(const EnduranceParams &params)
    : _params(params)
{
    fatal_if(_params.baseWriteLatency == 0,
             "endurance model needs a non-zero baseline write latency");
    fatal_if(_params.baseEndurance <= 0.0,
             "endurance model needs a positive baseline endurance");
    fatal_if(_params.expoFactor < 0.0,
             "Expo_Factor must be non-negative (got %f)",
             _params.expoFactor);
}

double
EnduranceModel::enduranceAtRatio(double n) const
{
    fatal_if(n <= 0.0, "latency factor must be positive (got %f)", n);
    return _params.baseEndurance * std::pow(n, _params.expoFactor);
}

double
EnduranceModel::enduranceAtFactor(PulseFactor n) const
{
    // mlint: allow(value-escape): sanctioned hand-off of the (>= 1 by
    // construction) factor to the unclamped ratio path shared with
    // cancelled/test pulses.
    return enduranceAtRatio(n.value());
}

double
EnduranceModel::enduranceAt(Tick writeLatency) const
{
    // Cancelled or test-driven pulses may be shorter than the
    // baseline; the ratio path deliberately stays unclamped.
    double n = static_cast<double>(writeLatency) /
               static_cast<double>(_params.baseWriteLatency);
    return enduranceAtRatio(n);
}

double
EnduranceModel::computeWear(double n) const
{
    // Computed before the memo changes, so a fatal leaves it intact.
    const double wear = 1.0 / enduranceAtRatio(n);
    _memo[1] = _memo[0];
    _memo[0] = WearMemo{n, wear};
    return wear;
}

} // namespace mellowsim
