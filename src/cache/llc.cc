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
Llc::candidateIn(std::uint64_t setIdx, unsigned from) const
{
    std::uint64_t dirty = _array.dirtyMask(setIdx) >> from << from;
    // Least likely to be used again: take candidates from the LRU end.
    while (dirty != 0) {
        const unsigned pos =
            static_cast<unsigned>(std::bit_width(dirty)) - 1;
        if (_config.selector == EagerSelector::UselessLru)
            return _array.blockAt(setIdx, pos);
        const std::uint32_t stamp = _array.stampAt(setIdx, pos);
        if (_period >= stamp && _period - stamp >= _config.deadAfterPeriods)
            return _array.blockAt(setIdx, pos);
        dirty &= ~(std::uint64_t{1} << pos);
    }
    return std::nullopt;
}

void
Llc::onScan()
{
    // Polls fall at start, start + interval, ... A poll that sends
    // nothing changes nothing an event could observe, so every poll
    // that would also have been the queue's next event — each one
    // strictly before advanceLimit() — runs in this batch. The first
    // always runs. The T_sample event is always pending, so the
    // limit is finite.
    const Tick start = _eventq.curTick();
    const Tick interval = _config.scanInterval;
    const Tick limit = _eventq.advanceLimit();
    const std::uint64_t polls =
        limit > start ? (limit - start - 1) / interval + 1 : 1;

    // The gate and the useless boundary change only in events, so
    // they hold for the whole batch: a closed gate makes every poll
    // a no-op that counts nothing, and with nothing useless every
    // poll counts a scan and draws nothing.
    std::uint64_t last = polls - 1; // the batch's final poll
    std::optional<LogicalAddr> candidate;
    if (_controller.eagerQueueHasSpace()) {
        // UselessLru considers dirty lines from the first useless
        // stack position down; the decay selector considers every
        // dirty line.
        const unsigned from =
            _config.selector == EagerSelector::UselessLru
                ? _profiler.uselessFrom()
                : 0;
        if (from >= _array.assoc()) {
            _stats.eagerScans += polls;
        } else {
            const std::uint64_t sets = _array.numSets();
            std::uint64_t k = 0;
            do {
                candidate = candidateIn(_rng.nextBounded(sets), from);
            } while (!candidate && ++k < polls);
            if (candidate)
                last = k;
            _stats.eagerScans += last + 1;
        }
    }

    if (last > 0) {
        const bool advanced = _eventq.tryAdvance(start + last * interval);
        panic_if(!advanced, "eager scan batch overran its advance limit");
    }
    // Arm the successor before the write, which may schedule
    // same-tick controller events after it.
    _eventq.arm(_scan, _eventq.curTick() + interval);
    if (candidate && _controller.eagerWrite(*candidate)) {
        _array.cleanLineForEagerWrite(*candidate);
        ++_stats.eagerSent;
    }
}

} // namespace mellowsim
