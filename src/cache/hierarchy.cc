#include "cache/hierarchy.hh"

#include <algorithm>

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
}

Hierarchy::Mshr *
Hierarchy::findMshr(LogicalAddr block)
{
    for (Mshr &m : _mshrs) {
        if (m.valid && m.block == block)
            return &m;
    }
    return nullptr;
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
    w.done = std::move(done);
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
    CacheVictim victim = _l2.insert(blockAddr, /*dirty=*/true);
    if (victim.valid && victim.dirty)
        writeIntoLlc(victim.blockAddr);
}

void
Hierarchy::fillUpper(LogicalAddr blockAddr, bool dirtyInL1)
{
    if (!_l2.probe(blockAddr)) {
        CacheVictim victim = _l2.insert(blockAddr, /*dirty=*/false);
        if (victim.valid && victim.dirty)
            writeIntoLlc(victim.blockAddr);
    }
    if (!_l1.probe(blockAddr)) {
        CacheVictim victim = _l1.insert(blockAddr, dirtyInL1);
        if (victim.valid && victim.dirty)
            writeIntoL2(victim.blockAddr);
    } else if (dirtyInL1) {
        _l1.access(blockAddr, /*isWrite=*/true, /*updateLru=*/false);
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
        if (!_l1.probe(block)) {
            CacheVictim victim = _l1.insert(block, isWrite);
            if (victim.valid && victim.dirty)
                writeIntoL2(victim.blockAddr);
        }
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
    if (Mshr *merged = findMshr(block)) {
        ++_stats.mshrMerges;
        addWaiter(*merged, isWrite, std::move(done));
        return {AccessOutcome::Miss, 0};
    }
    if (_liveMshrs >= _mshrs.size()) {
        ++_stats.blocked;
        _blockedEpisode = true;
        return {AccessOutcome::Blocked, 0};
    }

    ++_stats.llcMisses;
    Mshr &fresh = *std::find_if(_mshrs.begin(), _mshrs.end(),
                                [](const Mshr &m) { return !m.valid; });
    fresh.valid = true;
    fresh.block = block;
    ++_liveMshrs;
    addWaiter(fresh, isWrite, std::move(done));

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
        (void)_l1.insert(block, isWrite);
    if (!_l2.access(block, false).hit)
        (void)_l2.insert(block, false);
    _llc.prime(block, isWrite);
}

void
Hierarchy::onFill(LogicalAddr blockAddr)
{
    Mshr *mshr = findMshr(blockAddr);
    panic_if(mshr == nullptr, "fill for an unknown MSHR");
    std::uint32_t head = mshr->head;
    *mshr = Mshr{};
    --_liveMshrs;

    bool any_store = false;
    for (std::uint32_t i = head; i != kNoWaiter; i = _waiters[i].next)
        any_store = any_store || _waiters[i].isWrite;

    _llc.fillFromMemory(blockAddr);
    fillUpper(blockAddr, any_store);

    // A callback may re-enter access(), which can grow _waiters and
    // reuse freed nodes. So each node is unlinked, its callback moved
    // out and the node freed before the callback runs; no reference
    // into the pool is held across the call.
    for (std::uint32_t i = head; i != kNoWaiter;) {
        MshrWaiter &w = _waiters[i];
        Callback done = std::move(w.done);
        w.done = nullptr;
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
