/**
 * @file
 * The controller's request queues with per-bank bookkeeping.
 *
 * Each of the read, write and eager queues is a set of per-bank FIFOs
 * with a shared size. Per-bank counts are what the Figure 9 decision
 * logic consumes. A queue keeps only the bookkeeping the scheduling
 * pass reads; the block index that read forwarding probes belongs to
 * the controller, which counts the blocks of its write and eager
 * queues together (MemoryController::read).
 *
 * Data layout (see DESIGN.md "Performance architecture"): requests
 * are pooled in an IndexedVector arena behind typed ReqSlot indices
 * and recycled through a free list, so steady-state traffic allocates
 * nothing. MemRequest is trivially copyable, so a push or pop copies
 * the record and a freed slot needs no clearing. The per-bank FIFOs
 * are ring buffers of slot indices (RingDeque), and the non-empty-bank
 * set is an incrementally maintained IndexMask the controller's
 * scheduling pass walks instead of probing every bank.
 */

#ifndef MELLOWSIM_NVM_QUEUES_HH
#define MELLOWSIM_NVM_QUEUES_HH

#include <cstdint>
#include <vector>

#include "nvm/request.hh"
#include "sim/index_mask.hh"
#include "sim/index_ring.hh"
#include "sim/indexed.hh"
#include "sim/logging.hh"

namespace mellowsim
{

namespace detail
{
struct ReqSlotTag
{
};
} // namespace detail

/** Typed index of a pooled request in a RequestQueue's arena. */
using ReqSlot = StrongOrdinal<detail::ReqSlotTag, std::uint32_t>;

/**
 * A bank-partitioned FIFO request queue.
 *
 * Capacity is advisory: full() reports when the configured size is
 * reached, but push() always succeeds. The controller enforces the
 * policy consequences (drain mode for the write queue, admission
 * control by the LLC for the eager queue, MSHR limits for reads).
 */
class RequestQueue
{
  public:
    RequestQueue(unsigned numBanks, unsigned capacity);

    /** Total queued requests across banks. */
    [[nodiscard]] std::size_t size() const { return _size; }

    [[nodiscard]] bool empty() const { return _size == 0; }
    [[nodiscard]] bool full() const { return _size >= _capacity; }
    [[nodiscard]] unsigned capacity() const { return _capacity; }

    /** Queued requests for one bank. */
    [[nodiscard]] unsigned countForBank(BankId bank) const;

    /** Append a request to its bank FIFO. */
    void push(const MemRequest &req);

    /** Re-insert a request at the front of its bank FIFO (retry). */
    void pushFront(const MemRequest &req);

    /** Oldest request for a bank; bank FIFO must be non-empty. */
    [[nodiscard]] const MemRequest &front(BankId bank) const;

    /** Remove and return the oldest request for a bank. */
    MemRequest pop(BankId bank);

    /**
     * Oldest front-of-FIFO arrival across banks (MaxTick if empty).
     * A scan over the bank FIFOs: only tests and the micro benchmarks
     * ask.
     */
    [[nodiscard]] Tick oldestArrival() const;

    /**
     * Banks with at least one queued request, maintained
     * incrementally. The controller unions these masks to visit only
     * banks that can have issueable work.
     */
    [[nodiscard]] const IndexMask<BankId> &
    nonEmptyBanks() const
    {
        return _nonEmpty;
    }

  private:
    /** Copy @p req into a pooled slot (free list first). */
    ReqSlot allocSlot(const MemRequest &req);

    IndexedVector<ReqSlot, MemRequest> _arena;
    std::vector<ReqSlot> _freeSlots;
    IndexedVector<BankId, RingDeque<ReqSlot>> _banks;
    IndexMask<BankId> _nonEmpty;
    std::size_t _size = 0;
    unsigned _capacity;
};

} // namespace mellowsim

#endif // MELLOWSIM_NVM_QUEUES_HH
