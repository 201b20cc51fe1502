#include "nvm/queues.hh"

#include <algorithm>

namespace mellowsim
{

RequestQueue::RequestQueue(unsigned numBanks, unsigned capacity)
    : _banks(numBanks, RingDeque<ReqSlot>(capacity)), _nonEmpty(numBanks),
      _capacity(capacity)
{
    fatal_if(numBanks == 0, "request queue needs >= 1 bank");
    fatal_if(capacity == 0, "request queue needs capacity >= 1");
    // Size the pool and every bank FIFO for a full queue up front, so
    // a long run does not keep reaching new high-water marks.
    _arena.reserve(capacity);
    _freeSlots.reserve(capacity);
}

unsigned
RequestQueue::countForBank(BankId bank) const
{
    return static_cast<unsigned>(_banks[bank].size());
}

ReqSlot
RequestQueue::allocSlot(const MemRequest &req)
{
    if (!_freeSlots.empty()) {
        ReqSlot slot = _freeSlots.back();
        _freeSlots.pop_back();
        _arena[slot] = req;
        return slot;
    }
    ReqSlot slot(static_cast<std::uint32_t>(_arena.size()));
    _arena.push_back(req);
    return slot;
}

void
RequestQueue::push(const MemRequest &req)
{
    RingDeque<ReqSlot> &fifo = _banks[req.loc.bank];
    fifo.push_back(allocSlot(req));
    ++_size;
    if (fifo.size() == 1)
        _nonEmpty.set(req.loc.bank);
}

void
RequestQueue::pushFront(const MemRequest &req)
{
    _banks[req.loc.bank].push_front(allocSlot(req));
    ++_size;
    _nonEmpty.set(req.loc.bank);
}

const MemRequest &
RequestQueue::front(BankId bank) const
{
    panic_if(_banks[bank].empty(), "front() on empty bank FIFO");
    return _arena[_banks[bank].front()];
}

MemRequest
RequestQueue::pop(BankId bank)
{
    RingDeque<ReqSlot> &fifo = _banks[bank];
    panic_if(fifo.empty(), "pop() on empty bank FIFO");
    ReqSlot slot = fifo.pop_front();
    _freeSlots.push_back(slot);
    --_size;
    if (fifo.empty())
        _nonEmpty.clear(bank);
    return _arena[slot];
}

Tick
RequestQueue::oldestArrival() const
{
    Tick oldest = MaxTick;
    for (const RingDeque<ReqSlot> &fifo : _banks) {
        if (!fifo.empty())
            oldest = std::min(oldest, _arena[fifo.front()].arrival);
    }
    return oldest;
}

} // namespace mellowsim
