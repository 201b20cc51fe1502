#include "cache/eager_profiler.hh"

#include "sim/logging.hh"

namespace mellowsim
{

EagerProfiler::EagerProfiler(const EagerProfilerConfig &config)
    : _config(config), _hits(config.assoc, 0),
      _uselessFrom(config.assoc)
{
    fatal_if(config.assoc == 0, "profiler needs associativity >= 1");
    fatal_if(config.thresholdRatio <= 0.0 || config.thresholdRatio > 1.0,
             "THRESHOLD_RATIO must be in (0, 1] (got %f)",
             config.thresholdRatio);
    fatal_if(config.samplePeriod == 0, "sample period must be positive");
}

void
EagerProfiler::notifyHit(unsigned lruPos)
{
    panic_if(lruPos >= _hits.size(), "LRU position %u out of range",
             lruPos);
    ++_hits[lruPos];
}

void
EagerProfiler::notifyMiss()
{
    ++_misses;
}

void
EagerProfiler::onSamplePeriod()
{
    ++_periods;
    std::uint64_t total = _misses;
    for (std::uint64_t h : _hits)
        total += h;

    if (total == 0) {
        // An idle period tells us nothing; keep the previous verdict.
        return;
    }

    // Find the smallest position p whose suffix hit sum stays below
    // THRESHOLD_RATIO of all requests.
    double threshold =
        _config.thresholdRatio * static_cast<double>(total);
    unsigned p = _config.assoc;
    std::uint64_t suffix = 0;
    while (p > 0) {
        std::uint64_t with_next = suffix + _hits[p - 1];
        if (static_cast<double>(with_next) >= threshold)
            break;
        suffix = with_next;
        --p;
    }
    _uselessFrom = p;

    // A conditional store: an unconditional zeroing loop compiles to
    // a memset call, once per period for the whole run.
    for (auto &h : _hits) {
        if (h != 0)
            h = 0;
    }
    _misses = 0;
}

} // namespace mellowsim
