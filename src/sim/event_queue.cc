#include "sim/event_queue.hh"

#include <new>

namespace mellowsim
{

EventQueue::~EventQueue()
{
    // Destroy callables still pending at teardown, then drain the
    // out-of-line pool. Slots themselves die with _chunks.
    for (std::uint32_t i = 0; i < _slotCount; ++i) {
        Slot &s = slotRef(i);
        if (s.invoke != nullptr)
            disarmSlot(s);
    }
    for (unsigned b = 0; b < kOutlineBuckets; ++b) {
        OutlineBlock *block = _outlineFree[b];
        while (block != nullptr) {
            OutlineBlock *next = block->next;
            ::operator delete(static_cast<void *>(block));
            block = next;
        }
        _outlineFree[b] = nullptr;
    }
}

std::uint32_t
EventQueue::acquireSlot()
{
    if (_freeHead != kNoSlot) {
        std::uint32_t index = _freeHead;
        _freeHead = slotRef(index).nextFree;
        return index;
    }
    panic_if(_slotCount > kSlotMask,
             "event pool exceeds %llu concurrent events",
             static_cast<unsigned long long>(kSlotMask) + 1);
    if ((_slotCount & (kChunkSlots - 1)) == 0)
        _chunks.push_back(std::make_unique<Slot[]>(kChunkSlots));
    return _slotCount++;
}

void
EventQueue::releaseSlot(std::uint32_t index)
{
    Slot &s = slotRef(index);
    s.nextFree = _freeHead;
    _freeHead = index;
}

void
EventQueue::disarmSlot(Slot &s)
{
    void *obj = s.outline != nullptr ? s.outline
                                     : static_cast<void *>(s.storage);
    if (s.destroy != nullptr)
        s.destroy(obj);
    if (s.outline != nullptr) {
        outlineRelease(s.outline, s.outlineBucket);
        s.outline = nullptr;
    }
    s.invoke = nullptr;
    s.destroy = nullptr;
    s.pendingKey = 0;
}

bool
EventQueue::deschedule(EventHandle handle)
{
    if (!scheduled(handle))
        return false;
    std::uint32_t slot = slotOf(handle._key);
    disarmSlot(slotRef(slot));
    releaseSlot(slot);
    --_numPending;
    maybeCompact();
    return true;
}

void
EventQueue::popTop()
{
    _heap.front() = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        heapSiftDown(0);
}

void
EventQueue::fireSlot(Slot &s, std::uint32_t index)
{
    auto invoke = s.invoke;
    auto destroy = s.destroy;
    void *outline = s.outline;
    unsigned bucket = s.outlineBucket;
    void *obj = outline != nullptr ? outline
                                   : static_cast<void *>(s.storage);

    // Disarm before invoking: during the callback the handle already
    // reports unscheduled and a deschedule() through it is a no-op.
    // The slot is released only after the callable returns, so a
    // reentrant schedule() cannot overwrite the running callable.
    s.invoke = nullptr;
    s.destroy = nullptr;
    s.outline = nullptr;
    s.pendingKey = 0;
    --_numPending;

    invoke(obj);

    if (destroy != nullptr)
        destroy(obj);
    if (outline != nullptr)
        outlineRelease(outline, bucket);
    releaseSlot(index);
}

void
EventQueue::maybeCompact()
{
    // All pending events own exactly one heap entry, so the stale
    // (lazily-cancelled) fraction is heap size minus pending count.
    if (_heap.size() < kCompactMinEntries ||
        _heap.size() - _numPending <= _heap.size() / 2) {
        return;
    }
    std::erase_if(_heap,
                  [this](const Entry &e) { return !entryLive(e); });
    if (_heap.size() > 1) {
        for (std::size_t i = ((_heap.size() - 2) >> 1) + 1; i-- > 0;)
            heapSiftDown(i);
    }
}

bool
EventQueue::step()
{
    while (!_heap.empty()) {
        Entry top = _heap.front();
        popTop();
        Slot &s = slotRef(slotOf(top.key));
        if (s.pendingKey != top.key)
            continue; // cancelled: discarded lazily
        _curTick = top.when;
        _horizon = MaxTick;
        fireSlot(s, slotOf(top.key));
        _horizon = 0;
        return true;
    }
    return false;
}

std::uint64_t
EventQueue::run(Tick stopAt)
{
    std::uint64_t executed = 0;
    _horizon = stopAt;
    while (!_heap.empty()) {
        Entry top = _heap.front();
        Slot &s = slotRef(slotOf(top.key));
        if (s.pendingKey != top.key) {
            popTop();
            continue;
        }
        if (top.when >= stopAt) {
            _curTick = stopAt;
            break;
        }
        popTop();
        _curTick = top.when;
        fireSlot(s, slotOf(top.key));
        ++executed;
    }
    _horizon = 0;
    if (_heap.empty() && stopAt != MaxTick && _curTick < stopAt)
        _curTick = stopAt;
    return executed;
}

void *
EventQueue::outlineAcquire(std::size_t bytes, unsigned *bucket)
{
    std::size_t size = kOutlineBaseBytes;
    unsigned b = 0;
    while (size < bytes && b + 1 < kOutlineBuckets) {
        size <<= 1;
        ++b;
    }
    panic_if(size < bytes,
             "event callable of %zu bytes exceeds the outline pool's "
             "largest size class (%zu)",
             bytes, size);
    *bucket = b;
    if (_outlineFree[b] != nullptr) {
        OutlineBlock *block = _outlineFree[b];
        _outlineFree[b] = block->next;
        return static_cast<void *>(block);
    }
    return ::operator new(size);
}

void
EventQueue::outlineRelease(void *block, unsigned bucket)
{
    auto *node = static_cast<OutlineBlock *>(block);
    node->next = _outlineFree[bucket];
    _outlineFree[bucket] = node;
}

} // namespace mellowsim
