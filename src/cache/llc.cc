#include "cache/llc.hh"

#include <bit>

#include "sim/logging.hh"

namespace mellowsim
{

Llc::Llc(EventQueue &eventq, const LlcConfig &config,
         MemoryPort &controller, std::uint64_t seed)
    : _eventq(eventq), _config(config), _controller(controller),
      _array(config.cache),
      _profiler([&config] {
          EagerProfilerConfig p = config.profiler;
          p.assoc = config.cache.assoc;
          return p;
      }()),
      _rng(seed ^ 0x11CC11CCull), _cumHits(config.cache.assoc, 0)
{
    _eventq.scheduleIn(_profiler.config().samplePeriod,
                       [this] { onSamplePeriod(); });
    if (_config.eagerEnabled) {
        fatal_if(_config.scanInterval == 0,
                 "eager scan interval must be positive");
        _scan = _eventq.addTimer([this] { onScan(); });
        _eventq.arm(_scan, _eventq.curTick() + _config.scanInterval);
    }
}

void
Llc::onSamplePeriod()
{
    _profiler.onSamplePeriod();
    ++_period;
    _eventq.scheduleIn(_profiler.config().samplePeriod,
                       [this] { onSamplePeriod(); });
}

CacheAccessResult
Llc::access(LogicalAddr addr, bool isWrite)
{
    if (isWrite)
        ++_stats.demandWrites;
    else
        ++_stats.demandReads;

    CacheAccessResult res =
        _array.access(addr, isWrite, /*updateLru=*/true, _period);
    if (res.hit) {
        ++_stats.hits;
        _profiler.notifyHit(res.lruPos);
        ++_cumHits[res.lruPos];
        if (isWrite && _array.lastWriteWastedEager())
            ++_stats.eagerWasted;
    } else {
        ++_stats.misses;
        _profiler.notifyMiss();
    }
    return res;
}

void
Llc::handleVictim(const CacheVictim &victim)
{
    if (!victim.valid)
        return;
    if (victim.dirty) {
        ++_stats.writebacksToMem;
        _controller.writeback(victim.blockAddr);
    } else {
        ++_stats.cleanEvictions;
    }
}

void
Llc::writebackFromUpper(LogicalAddr addr)
{
    ++_stats.demandWrites;
    CacheAccessResult res = _array.access(addr, /*isWrite=*/true,
                                          /*updateLru=*/false, _period);
    if (res.hit) {
        ++_stats.hits;
        _profiler.notifyHit(res.lruPos);
        ++_cumHits[res.lruPos];
        if (_array.lastWriteWastedEager())
            ++_stats.eagerWasted;
        return;
    }
    ++_stats.misses;
    _profiler.notifyMiss();
    // Write-allocate the full-line write back.
    handleVictim(_array.fill(addr, /*dirty=*/true, _period).victim);
}

void
Llc::fillFromMemory(LogicalAddr addr)
{
    // A concurrent upper-level write back may have raced the fill in;
    // then fill() leaves the line alone and reports no victim.
    handleVictim(_array.fill(addr, /*dirty=*/false, _period).victim);
}

void
Llc::prime(LogicalAddr addr, bool dirty)
{
    CacheAccessResult res = _array.access(addr, dirty);
    if (!res.hit) {
        // Victim dropped deliberately: warm-up only.
        (void)_array.fill(addr, dirty);
    }
}

std::optional<LogicalAddr>
Llc::scanPoll()
{
    if (!_controller.eagerQueueHasSpace())
        return std::nullopt;
    ++_stats.eagerScans;

    // UselessLru considers dirty lines from the first useless stack
    // position down; the decay selector considers every dirty line.
    const unsigned from = _config.selector == EagerSelector::UselessLru
                              ? _profiler.uselessFrom()
                              : 0;
    if (from >= _array.assoc())
        return std::nullopt; // nothing is useless this period

    const std::uint64_t set_idx = _rng.nextBounded(_array.numSets());
    std::uint64_t dirty = _array.dirtyMask(set_idx) >> from << from;
    if (dirty == 0)
        return std::nullopt; // no dirty line where a candidate could be

    // Least likely to be used again: take candidates from the LRU end.
    while (dirty != 0) {
        const unsigned pos =
            static_cast<unsigned>(std::bit_width(dirty)) - 1;
        const std::uint32_t stamp = _array.stampAt(set_idx, pos);
        if (_config.selector == EagerSelector::UselessLru ||
            (_period >= stamp &&
             _period - stamp >= _config.deadAfterPeriods)) {
            return _array.blockAt(set_idx, pos);
        }
        dirty &= ~(std::uint64_t{1} << pos);
    }
    return std::nullopt;
}

void
Llc::onScan()
{
    // One pass per poll. A poll that sends nothing changes nothing an
    // event could observe, so while the next poll would also be the
    // queue's next event, tryAdvance() moves time to it and it runs
    // right here instead of as an event of its own. The T_sample
    // event is always pending, so a batch ends at the latest there.
    for (;;) {
        const Tick next = _eventq.curTick() + _config.scanInterval;
        const std::optional<LogicalAddr> candidate = scanPoll();
        if (!candidate && _eventq.tryAdvance(next))
            continue;
        // Arm the successor before the write, which may schedule
        // same-tick controller events after it.
        _eventq.arm(_scan, next);
        if (candidate && _controller.eagerWrite(*candidate)) {
            _array.cleanLineForEagerWrite(*candidate);
            ++_stats.eagerSent;
        }
        return;
    }
}

} // namespace mellowsim
