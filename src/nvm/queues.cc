#include "nvm/queues.hh"

#include <algorithm>

namespace mellowsim
{

RequestQueue::RequestQueue(unsigned numBanks, unsigned capacity)
    : _banks(numBanks, RingDeque<ReqSlot>(capacity)), _blockIndex(64),
      _nonEmpty(numBanks), _frontArrival(numBanks, MaxTick),
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
RequestQueue::allocSlot(MemRequest req)
{
    if (!_freeSlots.empty()) {
        ReqSlot slot = _freeSlots.back();
        _freeSlots.pop_back();
        _arena[slot] = std::move(req);
        return slot;
    }
    ReqSlot slot(static_cast<std::uint32_t>(_arena.size()));
    _arena.push_back(std::move(req));
    return slot;
}

void
RequestQueue::push(MemRequest req)
{
    RingDeque<ReqSlot> &fifo = _banks[req.loc.bank];
    BankId bank = req.loc.bank;
    std::uint64_t block = blockNumber(req.addr);
    Tick arrival = req.arrival;
    fifo.push_back(allocSlot(std::move(req)));
    _blockIndex.increment(block);
    ++_size;
    if (fifo.size() == 1) {
        _nonEmpty.set(bank);
        _frontArrival[bank] = arrival;
    }
}

void
RequestQueue::pushFront(MemRequest req)
{
    RingDeque<ReqSlot> &fifo = _banks[req.loc.bank];
    BankId bank = req.loc.bank;
    std::uint64_t block = blockNumber(req.addr);
    Tick arrival = req.arrival;
    fifo.push_front(allocSlot(std::move(req)));
    _blockIndex.increment(block);
    ++_size;
    _nonEmpty.set(bank);
    _frontArrival[bank] = arrival;
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
    MemRequest req = std::move(_arena[slot]);
    // The moved-from slot holds only trivially-copyable residue plus
    // the callback; clear the callback so no captured state outlives
    // the request (a full MemRequest reset would cost a construct +
    // destroy per pop for nothing).
    _arena[slot].onComplete = nullptr;
    _freeSlots.push_back(slot);
    _blockIndex.decrement(blockNumber(req.addr));
    --_size;
    if (fifo.empty()) {
        _nonEmpty.clear(bank);
        _frontArrival[bank] = MaxTick;
    } else {
        _frontArrival[bank] = _arena[fifo.front()].arrival;
    }
    return req;
}

unsigned
RequestQueue::countForBlock(LogicalAddr addr) const
{
    return _blockIndex.count(blockNumber(addr));
}

Tick
RequestQueue::oldestArrival() const
{
    Tick oldest = MaxTick;
    for (Tick arrival : _frontArrival)
        oldest = std::min(oldest, arrival);
    return oldest;
}

} // namespace mellowsim
