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
        _eventq.scheduleIn(_config.scanInterval, [this] { onScan(); });
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
    handleVictim(_array.insert(addr, /*dirty=*/true, _period));
}

void
Llc::fillFromMemory(LogicalAddr addr)
{
    // A concurrent upper-level write back may have raced the fill in.
    if (_array.probe(addr))
        return;
    handleVictim(_array.insert(addr, /*dirty=*/false, _period));
}

void
Llc::prime(LogicalAddr addr, bool dirty)
{
    CacheAccessResult res = _array.access(addr, dirty);
    if (!res.hit) {
        // Victim dropped deliberately: warm-up only.
        (void)_array.insert(addr, dirty);
    }
}

const CacheLine *
Llc::scanPoll()
{
    if (!_controller.eagerQueueHasSpace())
        return nullptr;
    ++_stats.eagerScans;

    // UselessLru considers dirty lines from the first useless stack
    // position down; the decay selector considers every dirty line.
    const unsigned from = _config.selector == EagerSelector::UselessLru
                              ? _profiler.uselessFrom()
                              : 0;
    if (from >= _array.assoc())
        return nullptr; // nothing is useless this period

    const std::uint64_t set_idx = _rng.nextBounded(_array.numSets());
    std::uint64_t dirty = _array.dirtyMask(set_idx) >> from << from;
    if (dirty == 0)
        return nullptr; // no dirty line where a candidate could be

    // Least likely to be used again: take candidates from the LRU end.
    const auto &set = _array.set(set_idx);
    while (dirty != 0) {
        const unsigned pos =
            static_cast<unsigned>(std::bit_width(dirty)) - 1;
        const CacheLine &line = set[pos];
        if (_config.selector == EagerSelector::UselessLru ||
            (_period >= line.touchStamp &&
             _period - line.touchStamp >= _config.deadAfterPeriods)) {
            return &line;
        }
        dirty &= ~(std::uint64_t{1} << pos);
    }
    return nullptr;
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
        const CacheLine *line = scanPoll();
        if (line == nullptr && _eventq.tryAdvance(next))
            continue;
        // Schedule the successor before the write, which may schedule
        // same-tick controller events after it.
        _eventq.schedule(next, [this] { onScan(); });
        if (line != nullptr && _controller.eagerWrite(line->blockAddr)) {
            _array.cleanLineForEagerWrite(line->blockAddr);
            ++_stats.eagerSent;
        }
        return;
    }
}

} // namespace mellowsim
