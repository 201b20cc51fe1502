/**
 * @file
 * Discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated system. Events are
 * arbitrary callables scheduled at absolute ticks; events scheduled
 * for the same tick fire in FIFO order of scheduling, which keeps
 * every run bit-deterministic.
 *
 * Components may hold an EventHandle to a scheduled event in order to
 * deschedule or reschedule it (e.g. a memory controller's "try issue"
 * event, or a cancellable write completion).
 *
 * Performance architecture (see DESIGN.md "Performance architecture"):
 * the kernel allocates nothing in steady state. Callables live in a
 * slab-allocated pool of fixed-size slots with inline small-buffer
 * storage (kInlineCallableBytes); callables that do not fit fall back
 * to a size-bucketed out-of-line pool, and both recycle through free
 * lists. EventHandles are generation-tagged (slot index, generation),
 * so deschedule() and scheduled() are O(1) array accesses and a stale
 * handle to a recycled slot is detected, not mis-resolved. Cancelled
 * events are removed lazily from the time heap; when more than half
 * of the heap is stale it is compacted in place.
 *
 * Determinism argument: the heap is ordered by the strict total order
 * (when, seq) where seq is a monotonic schedule counter, so the fire
 * sequence is a pure function of the schedule-call sequence. Slot
 * reuse, free-list order and heap compaction change only *where*
 * callables are stored, never the (when, seq) keys, so they cannot
 * reorder fires. tools/determinism_check audits this end to end.
 */

#ifndef MELLOWSIM_SIM_EVENT_QUEUE_HH
#define MELLOWSIM_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace mellowsim
{

class EventQueue;

/**
 * Generation-tagged reference to a scheduled event. Obtained from
 * EventQueue::schedule() and consumed by deschedule()/scheduled().
 *
 * A handle stays valid-to-inspect forever: once its event fires or is
 * descheduled the slot's key moves on, so the handle simply reports
 * unscheduled and deschedule() through it is a safe no-op — even
 * after the slot has been recycled for a different event.
 *
 * Representation: one 64-bit key packing the monotonic schedule
 * sequence number (high bits, the generation tag) over the pool slot
 * index (low bits). Key 0 is the "never bound" sentinel — sequence
 * numbers start at 1.
 */
class EventHandle
{
  public:
    constexpr EventHandle() = default;

    /** True iff this handle was ever bound to an event. */
    [[nodiscard]] constexpr bool
    valid() const
    {
        return _key != 0;
    }

    friend constexpr bool operator==(EventHandle, EventHandle) = default;

  private:
    friend class EventQueue;

    constexpr explicit EventHandle(std::uint64_t key) : _key(key) {}

    std::uint64_t _key = 0;
};

/** Sentinel for "no event". */
inline constexpr EventHandle InvalidEventHandle{};

/** Legacy names; the handle is the event's identity. */
using EventId = EventHandle;
inline constexpr EventHandle InvalidEventId{};

/**
 * The central event queue.
 *
 * Invariants:
 *  - time never moves backwards: events may only be scheduled at
 *    curTick() or later;
 *  - same-tick events execute in the order they were scheduled.
 */
class EventQueue
{
  public:
    /**
     * Inline callable capacity of one pool slot. Hot-path lambdas
     * (a captured `this` plus a few words) must fit — the controller
     * static_asserts its completion callbacks against this; larger
     * callables transparently use the pooled out-of-line fallback.
     */
    static constexpr std::size_t kInlineCallableBytes = 48;

    /** True iff F is stored inline in the slot (no fallback). */
    template <typename F>
    [[nodiscard]] static constexpr bool
    fitsInline()
    {
        return sizeof(F) <= kInlineCallableBytes &&
               alignof(F) <= alignof(std::max_align_t);
    }

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;
    ~EventQueue();

    /** Current simulation time. */
    [[nodiscard]] Tick curTick() const { return _curTick; }

    /**
     * Schedule @p action to run at absolute tick @p when.
     *
     * @param when  Absolute tick; must be >= curTick().
     * @param action  Callback to execute.
     * @return Handle usable with deschedule()/scheduled().
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&action)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn &>,
                      "event action must be callable with no args");
        panic_if(when < _curTick,
                 "scheduling into the past: when=%llu cur=%llu",
                 static_cast<unsigned long long>(when),
                 static_cast<unsigned long long>(_curTick));

        panic_if(_nextSeq >= kMaxSeq,
                 "event sequence counter exhausted");
        std::uint32_t index = acquireSlot();
        Slot &s = slotRef(index);
        if constexpr (fitsInline<Fn>()) {
            ::new (static_cast<void *>(s.storage))
                Fn(std::forward<F>(action));
            s.outline = nullptr;
        } else {
            static_assert(alignof(Fn) <= alignof(std::max_align_t),
                          "over-aligned event callables are not "
                          "supported");
            unsigned bucket = 0;
            void *mem = outlineAcquire(sizeof(Fn), &bucket);
            ::new (mem) Fn(std::forward<F>(action));
            s.outline = mem;
            s.outlineBucket = bucket;
        }
        s.invoke = [](void *obj) { (*static_cast<Fn *>(obj))(); };
        if constexpr (std::is_trivially_destructible_v<Fn>) {
            s.destroy = nullptr;
        } else {
            s.destroy = [](void *obj) { static_cast<Fn *>(obj)->~Fn(); };
        }

        std::uint64_t key = (_nextSeq++ << kSlotBits) | index;
        s.pendingKey = key;
        _heap.push_back(Entry{when, key});
        heapSiftUp(_heap.size() - 1);
        ++_numPending;
        return EventHandle(key);
    }

    /** Schedule @p action @p delta ticks from now. */
    template <typename F>
    EventHandle
    scheduleIn(Tick delta, F &&action)
    {
        return schedule(_curTick + delta, std::forward<F>(action));
    }

    /**
     * Cancel a previously scheduled event. O(1).
     *
     * @retval true the event existed and was cancelled.
     * @retval false the event already fired, was already cancelled, or
     *               @p handle never referred to an event.
     */
    bool deschedule(EventHandle handle);

    /** True iff the event behind @p handle is still pending. O(1). */
    [[nodiscard]] bool
    scheduled(EventHandle handle) const
    {
        std::uint32_t slot = slotOf(handle._key);
        if (handle._key == 0 || slot >= _slotCount)
            return false;
        return slotRef(slot).pendingKey == handle._key;
    }

    /** Number of pending (non-cancelled) events. */
    [[nodiscard]] std::size_t numPending() const { return _numPending; }

    // --- Audit accessors (src/check/) -----------------------------
    /**
     * Earliest tick present in the heap (MaxTick if empty). Includes
     * lazily-cancelled entries, which is fine for auditing: every
     * entry was scheduled at >= the then-current tick, so even a
     * stale entry must not sit in the past.
     */
    [[nodiscard]] Tick
    minPendingTick() const
    {
        return _heap.empty() ? MaxTick : _heap.front().when;
    }

    /** Heap entries, including cancelled ones awaiting lazy removal. */
    [[nodiscard]] std::size_t rawHeapSize() const { return _heap.size(); }

    /** Pool slots ever created (capacity watermark, for tests). */
    [[nodiscard]] std::size_t slotCount() const { return _slotCount; }

    /** True iff no events remain. */
    [[nodiscard]] bool empty() const { return _numPending == 0; }

    /**
     * Run events until the queue empties or @p stopAt is reached.
     *
     * Events scheduled exactly at @p stopAt are NOT executed; time is
     * left at min(next event tick, stopAt). @p stopAt is also the
     * horizon that bounds tryAdvance() inside the events it runs.
     *
     * @return Number of events executed.
     */
    std::uint64_t run(Tick stopAt = MaxTick);

    /**
     * Execute at most one event.
     *
     * The event may advance time further through tryAdvance() — the
     * LLC's eager scanner runs its no-op polls inline this way — so
     * curTick() after a step can be later than the popped event's
     * tick, but never passes a pending event.
     *
     * @retval true an event was executed.
     * @retval false the queue is empty.
     */
    bool step();

    /**
     * Move time forward to @p when from inside a running event, as if
     * an event scheduled at @p when had been popped next. Succeeds
     * only if that is exactly what the queue would do: no heap entry,
     * live or lazily cancelled, sits at or before @p when, and
     * @p when is below the horizon of the step()/run() call that is
     * executing. Time never moves backwards. Outside step()/run()
     * the horizon is 0, so the call always refuses.
     *
     * The caller then does inline what the scheduled event would
     * have done. Because that event would have been the next to
     * fire, every (when, seq) order among the remaining events is
     * unchanged; only its own sequence number is never drawn.
     *
     * @retval true curTick() is now @p when.
     * @retval false nothing changed; schedule the event instead.
     */
    [[nodiscard]] bool
    tryAdvance(Tick when)
    {
        if (when < _curTick || when >= _horizon ||
            (!_heap.empty() && _heap.front().when <= when)) {
            return false;
        }
        _curTick = when;
        return true;
    }

  private:
    /**
     * One pool slot. Slots live in fixed-size chunks that are never
     * relocated, so a callable's address stays stable while it runs —
     * events may freely schedule further events (growing the pool)
     * from inside their own invocation.
     */
    struct Slot
    {
        alignas(std::max_align_t)
            unsigned char storage[kInlineCallableBytes];
        /** Non-null iff the slot holds a pending callable. */
        void (*invoke)(void *) = nullptr;
        /** Null for trivially-destructible callables. */
        void (*destroy)(void *) = nullptr;
        /** Out-of-line callable storage; null when inline. */
        void *outline = nullptr;
        /**
         * Key of the pending event occupying this slot; 0 when the
         * slot is disarmed. The key's sequence bits act as the
         * generation tag: a stale handle or heap entry into a
         * recycled slot compares unequal.
         */
        std::uint64_t pendingKey = 0;
        /** Free-list link (valid only while the slot is free). */
        std::uint32_t nextFree = kNoSlot;
        /** Size class of the outline block (valid when outline set). */
        unsigned outlineBucket = 0;
    };

    /**
     * Heap key: strict total order by (when, key). The key's high
     * bits are the monotonic schedule sequence, so comparing keys is
     * comparing schedule order — same-tick FIFO — and the 16-byte
     * entry puts all four children of a 4-ary heap node in one cache
     * line.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t key;
    };

    /**
     * Total heap order as one 128-bit integer: (when, key)
     * lexicographic. A single wide compare turns the sift loops'
     * child-selection into conditional moves — the data-dependent
     * branches of a classic comparator mispredict on nearly every
     * level and dominated the kernel's cost.
     */
    [[nodiscard]] static unsigned __int128
    key128(const Entry &e)
    {
        return (static_cast<unsigned __int128>(e.when) << 64) | e.key;
    }

    /** Heap order predicate: true iff @p a fires after @p b. */
    [[nodiscard]] static bool
    after(const Entry &a, const Entry &b)
    {
        return key128(a) > key128(b);
    }

    void
    heapSiftUp(std::size_t i)
    {
        Entry e = _heap[i];
        unsigned __int128 ek = key128(e);
        while (i > 0) {
            std::size_t parent = (i - 1) >> 1;
            if (key128(_heap[parent]) <= ek)
                break;
            _heap[i] = _heap[parent];
            i = parent;
        }
        _heap[i] = e;
    }

    void
    heapSiftDown(std::size_t i)
    {
        Entry e = _heap[i];
        unsigned __int128 ek = key128(e);
        const std::size_t n = _heap.size();
        for (;;) {
            std::size_t left = 2 * i + 1;
            if (left >= n)
                break;
            std::size_t right = left + 1;
            std::size_t best = left;
            unsigned __int128 bk = key128(_heap[left]);
            if (right < n) {
                unsigned __int128 rk = key128(_heap[right]);
                best = rk < bk ? right : left;
                bk = rk < bk ? rk : bk;
            }
            if (ek <= bk)
                break;
            _heap[i] = _heap[best];
            i = best;
        }
        _heap[i] = e;
    }

    /** Slot-index field width of a packed event key. */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask =
        (std::uint64_t{1} << kSlotBits) - 1;
    /** Sequence numbers above this would overflow the key packing. */
    static constexpr std::uint64_t kMaxSeq =
        std::uint64_t{1} << (64 - kSlotBits);
    static constexpr std::uint32_t kNoSlot = 0xffffffffu;

    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;
    /** Compact only heaps at least this large (hysteresis). */
    static constexpr std::size_t kCompactMinEntries = 64;
    /** Out-of-line size classes: 64 B << bucket, up to 64 KiB. */
    static constexpr unsigned kOutlineBuckets = 11;
    static constexpr std::size_t kOutlineBaseBytes = 64;

    [[nodiscard]] Slot &
    slotRef(std::uint32_t index)
    {
        return _chunks[index >> kChunkShift][index &
                                             (kChunkSlots - 1)];
    }

    [[nodiscard]] const Slot &
    slotRef(std::uint32_t index) const
    {
        return _chunks[index >> kChunkShift][index &
                                             (kChunkSlots - 1)];
    }

    /** Slot index packed into an event key. */
    [[nodiscard]] static constexpr std::uint32_t
    slotOf(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key & kSlotMask);
    }

    /** True iff the heap entry still refers to a pending event. */
    [[nodiscard]] bool
    entryLive(const Entry &e) const
    {
        return slotRef(slotOf(e.key)).pendingKey == e.key;
    }

    std::uint32_t acquireSlot();
    void releaseSlot(std::uint32_t index);

    /**
     * Disarm a slot: destroy the callable, release any outline block
     * and bump the generation. The heap entry is left for lazy
     * removal (deschedule) or has already been popped (fire).
     */
    void disarmSlot(Slot &s);

    /** Pop the top heap entry. */
    void popTop();

    /** Fire the pending event in @p s / @p index at the current tick. */
    void fireSlot(Slot &s, std::uint32_t index);

    /** Drop cancelled entries and re-heapify when they dominate. */
    void maybeCompact();

    void *outlineAcquire(std::size_t bytes, unsigned *bucket);
    void outlineRelease(void *block, unsigned bucket);

    Tick _curTick = 0;
    /** tryAdvance() bound: the running step()/run() limit, else 0. */
    Tick _horizon = 0;
    std::uint64_t _nextSeq = 1;
    std::size_t _numPending = 0;

    std::vector<Entry> _heap;

    // --- Slot pool -------------------------------------------------
    std::vector<std::unique_ptr<Slot[]>> _chunks;
    std::uint32_t _slotCount = 0;
    std::uint32_t _freeHead = kNoSlot;

    // --- Out-of-line callable pool (size-bucketed free lists) ------
    struct OutlineBlock
    {
        OutlineBlock *next;
    };
    OutlineBlock *_outlineFree[kOutlineBuckets] = {};
};

} // namespace mellowsim

#endif // MELLOWSIM_SIM_EVENT_QUEUE_HH
