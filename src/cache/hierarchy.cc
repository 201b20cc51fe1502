#include "cache/hierarchy.hh"

#include "sim/logging.hh"

namespace mellowsim
{

Hierarchy::Hierarchy(EventQueue &eventq, const HierarchyConfig &config,
                     MemoryPort &controller, std::uint64_t seed)
    : _eventq(eventq), _config(config), _controller(controller),
      _l1(config.l1), _l2(config.l2),
      _llc(eventq, config.llc, controller, seed),
      _mshrs(config.llcMshrs)
{
    fatal_if(config.llcMshrs == 0, "hierarchy needs >= 1 MSHR");
    _waiters.reserve(config.llcMshrs);
    _liveMshrs.reserve(config.llcMshrs);
    _freeMshrs.reserve(config.llcMshrs);
    for (std::uint32_t i = config.llcMshrs; i-- > 0;)
        _freeMshrs.push_back(i);
}

std::size_t
Hierarchy::findLive(LogicalAddr block) const
{
    std::size_t i = 0;
    while (i < _liveMshrs.size() && _mshrs[_liveMshrs[i]].block != block)
        ++i;
    return i;
}

void
Hierarchy::addWaiter(Mshr &mshr, bool isWrite, Callback done)
{
    std::uint32_t idx = _freeWaiter;
    if (idx != kNoWaiter) {
        _freeWaiter = _waiters[idx].next;
    } else {
        idx = static_cast<std::uint32_t>(_waiters.size());
        _waiters.emplace_back();
    }
    MshrWaiter &w = _waiters[idx];
    w.isWrite = isWrite;
    w.done = done;
    w.next = kNoWaiter;
    if (mshr.tail == kNoWaiter)
        mshr.head = idx;
    else
        _waiters[mshr.tail].next = idx;
    mshr.tail = idx;
}

void
Hierarchy::writeIntoLlc(LogicalAddr blockAddr)
{
    _llc.writebackFromUpper(blockAddr);
}

void
Hierarchy::writeIntoL2(LogicalAddr blockAddr)
{
    CacheAccessResult res =
        _l2.access(blockAddr, /*isWrite=*/true, /*updateLru=*/false);
    if (res.hit)
        return;
    CacheVictim victim = _l2.fill(blockAddr, /*dirty=*/true).victim;
    if (victim.valid && victim.dirty)
        writeIntoLlc(victim.blockAddr);
}

void
Hierarchy::fillUpper(LogicalAddr blockAddr, bool dirtyInL1)
{
    CacheVictim l2_victim = _l2.fill(blockAddr, /*dirty=*/false).victim;
    if (l2_victim.valid && l2_victim.dirty)
        writeIntoLlc(l2_victim.blockAddr);
    CacheFill l1 = _l1.fill(blockAddr, dirtyInL1);
    if (!l1.inserted) {
        if (dirtyInL1)
            _l1.access(blockAddr, /*isWrite=*/true, /*updateLru=*/false);
    } else if (l1.victim.valid && l1.victim.dirty) {
        writeIntoL2(l1.victim.blockAddr);
    }
}

AccessTicket
Hierarchy::access(LogicalAddr addr, bool isWrite, Callback done)
{
    ++_stats.accesses;
    LogicalAddr block = blockAlign(addr);

    // L1.
    CacheAccessResult l1_res = _l1.access(block, isWrite);
    if (l1_res.hit) {
        ++_stats.l1Hits;
        return {AccessOutcome::Hit, _l1.hitLatency()};
    }

    // L2 (read for the fill; a store dirties the L1 copy only).
    CacheAccessResult l2_res = _l2.access(block, /*isWrite=*/false);
    if (l2_res.hit) {
        ++_stats.l2Hits;
        // Move the line up into L1.
        CacheVictim victim = _l1.fill(block, isWrite).victim;
        if (victim.valid && victim.dirty)
            writeIntoL2(victim.blockAddr);
        return {AccessOutcome::Hit,
                _l1.hitLatency() + _l2.hitLatency()};
    }

    // LLC.
    Tick lookup = _l1.hitLatency() + _l2.hitLatency() +
                  _llc.config().cache.hitLatency;
    CacheAccessResult llc_res = _llc.access(block, /*isWrite=*/false);
    if (llc_res.hit) {
        ++_stats.llcHits;
        fillUpper(block, isWrite);
        return {AccessOutcome::Hit, lookup};
    }

    // LLC miss: merge into an outstanding MSHR if possible.
    if (std::size_t live = findLive(block); live < _liveMshrs.size()) {
        ++_stats.mshrMerges;
        addWaiter(_mshrs[_liveMshrs[live]], isWrite, done);
        return {AccessOutcome::Miss, 0};
    }
    if (_freeMshrs.empty()) {
        ++_stats.blocked;
        _blockedEpisode = true;
        return {AccessOutcome::Blocked, 0};
    }

    ++_stats.llcMisses;
    const std::uint32_t slot = _freeMshrs.back();
    _freeMshrs.pop_back();
    _liveMshrs.push_back(slot);
    Mshr &fresh = _mshrs[slot];
    fresh.block = block;
    addWaiter(fresh, isWrite, done);

    // The memory read departs after the full lookup path.
    _eventq.scheduleIn(lookup, [this, block] {
        _controller.read(block, [this, block] { onFill(block); });
    });
    return {AccessOutcome::Miss, 0};
}

void
Hierarchy::prime(LogicalAddr addr, bool isWrite)
{
    LogicalAddr block = blockAlign(addr);
    // Victims dropped deliberately: warm-up only.
    if (!_l1.access(block, isWrite).hit)
        (void)_l1.fill(block, isWrite);
    if (!_l2.access(block, false).hit)
        (void)_l2.fill(block, false);
    _llc.prime(block, isWrite);
}

void
Hierarchy::onFill(LogicalAddr blockAddr)
{
    const std::size_t live = findLive(blockAddr);
    panic_if(live == _liveMshrs.size(), "fill for an unknown MSHR");
    const std::uint32_t slot = _liveMshrs[live];
    const std::uint32_t head = _mshrs[slot].head;
    _mshrs[slot] = Mshr{};
    _liveMshrs[live] = _liveMshrs.back();
    _liveMshrs.pop_back();
    _freeMshrs.push_back(slot);

    bool any_store = false;
    for (std::uint32_t i = head; i != kNoWaiter; i = _waiters[i].next)
        any_store = any_store || _waiters[i].isWrite;

    _llc.fillFromMemory(blockAddr);
    fillUpper(blockAddr, any_store);

    // A callback may re-enter access(), which can grow _waiters and
    // reuse freed nodes. So each node is unlinked, its callback copied
    // out and the node freed before the callback runs; no reference
    // into the pool is held across the call.
    for (std::uint32_t i = head; i != kNoWaiter;) {
        MshrWaiter &w = _waiters[i];
        const Callback done = w.done;
        std::uint32_t next = w.next;
        w.next = _freeWaiter;
        _freeWaiter = i;
        i = next;
        if (done)
            done();
    }

    if (_blockedEpisode) {
        _blockedEpisode = false;
        if (_retryCb)
            _retryCb();
    }
}

} // namespace mellowsim
