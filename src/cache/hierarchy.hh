/**
 * @file
 * The three-level data-cache hierarchy of Table I.
 *
 * L1D 32 KB / 4-way / 2 cycles, L2 256 KB / 8-way / 12 cycles, LLC
 * 2 MB / 16-way / 35 cycles, 64-byte lines, write-back write-allocate
 * everywhere, LLC misses limited by 32 MSHRs with same-block merging.
 *
 * Timing model: hits complete after the summed lookup latencies of
 * the levels visited; an LLC miss sends a read to the memory
 * controller after the full lookup path and completes when the
 * controller delivers data. The hierarchy is functional (tags, LRU,
 * dirty bits are exact); contention below the LLC is modelled by the
 * controller.
 */

#ifndef MELLOWSIM_CACHE_HIERARCHY_HH
#define MELLOWSIM_CACHE_HIERARCHY_HH

#include <cstdint>
#include <type_traits>
#include <vector>

#include "cache/cache.hh"
#include "cache/llc.hh"
#include "nvm/memory_port.hh"
#include "sim/event_queue.hh"
#include "sim/inline_callback.hh"
#include "sim/stats.hh"

namespace mellowsim
{

/** Configuration of the full hierarchy (Table I defaults). */
struct HierarchyConfig
{
    // mlint: allow(timing-literal): CPU-side SRAM latency (Table I),
    // not an NVM device timing
    CacheConfig l1{"L1D", 32 * 1024, 4, 1 * kNanosecond};
    // mlint: allow(timing-literal): CPU-side SRAM latency (Table I),
    // not an NVM device timing
    CacheConfig l2{"L2", 256 * 1024, 8, 6 * kNanosecond};
    LlcConfig llc;
    /** Outstanding LLC misses (Table I: 32-MSHR LLC). */
    unsigned llcMshrs = 32;
};

/** How an access concluded at issue time. */
enum class AccessOutcome
{
    Hit,     ///< completes after `latency` ticks, no callback
    Miss,    ///< the completion callback will fire
    Blocked, ///< MSHRs full; retry after the retry callback fires
};

/** Issue-time result of Hierarchy::access(). */
struct AccessTicket
{
    AccessOutcome outcome = AccessOutcome::Hit;
    Tick latency = 0; ///< valid for Hit
};

/** Hierarchy statistics. */
struct HierarchyStats
{
    stats::Counter accesses;
    stats::Counter l1Hits;
    stats::Counter l2Hits;
    stats::Counter llcHits;
    stats::Counter llcMisses;  ///< demand misses sent to memory
    stats::Counter mshrMerges; ///< coalesced same-block misses
    stats::Counter blocked;    ///< rejected: MSHRs full
};

/** See file comment. */
class Hierarchy
{
  public:
    /**
     * Completion and retry callbacks: inline, trivially copyable
     * callables (sim/inline_callback.hh), so a waiter record is a
     * plain copy and a miss allocates nothing.
     */
    using Callback = InlineCallback;

    Hierarchy(EventQueue &eventq, const HierarchyConfig &config,
              MemoryPort &controller, std::uint64_t seed);

    /**
     * Perform one demand access.
     *
     * @param addr     Byte address.
     * @param isWrite  Store?
     * @param done     Fired at completion for Miss outcomes.
     * @return Issue-time ticket (see AccessOutcome).
     */
    AccessTicket access(LogicalAddr addr, bool isWrite, Callback done);

    /**
     * Register the (single) consumer to poke when a Blocked access
     * may be retried. Fired at most once per blocking episode.
     */
    void setRetryCallback(Callback cb) { _retryCb = cb; }

    /**
     * Functionally touch a block (warm-up): installs/updates the line
     * in all levels with no timing, statistics, or memory traffic.
     * Victims are dropped silently.
     */
    void prime(LogicalAddr addr, bool isWrite);

    [[nodiscard]] const HierarchyStats &stats() const { return _stats; }
    [[nodiscard]] Llc &llc() { return _llc; }
    [[nodiscard]] const Llc &llc() const { return _llc; }

    /** Outstanding LLC misses (MSHR occupancy). */
    [[nodiscard]] std::size_t outstandingMisses() const
    {
        return _liveMshrs.size();
    }

  private:
    /** End of a waiter list / of the free list. */
    static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};

    /** One access waiting on an MSHR; a singly linked pool node. */
    struct MshrWaiter
    {
        bool isWrite = false;
        Callback done;
        std::uint32_t next = kNoWaiter;
    };
    static_assert(std::is_trivially_copyable_v<MshrWaiter>);

    /** One slot of the flat MSHR table; waiters in arrival order. */
    struct Mshr
    {
        LogicalAddr block;
        std::uint32_t head = kNoWaiter;
        std::uint32_t tail = kNoWaiter;
    };

    /** Position of @p block's MSHR in _liveMshrs, or its size. */
    [[nodiscard]] std::size_t findLive(LogicalAddr block) const;
    /** Append a waiter to @p mshr's list, reusing a freed node. */
    void addWaiter(Mshr &mshr, bool isWrite, Callback done);

    void onFill(LogicalAddr blockAddr);
    void writeIntoL2(LogicalAddr blockAddr);
    void writeIntoLlc(LogicalAddr blockAddr);
    /** Install a block into L2 and L1 after an LLC hit or fill. */
    void fillUpper(LogicalAddr blockAddr, bool dirtyInL1);

    EventQueue &_eventq;
    HierarchyConfig _config;
    MemoryPort &_controller;
    SetAssocCache _l1;
    SetAssocCache _l2;
    Llc _llc;

    /**
     * Outstanding LLC misses: llcMshrs slots. The live ones are
     * listed in _liveMshrs, which a lookup scans; the rest wait on
     * _freeMshrs. Waiters live in a grow-only pool threaded by a free
     * list, so after warm-up a miss allocates nothing.
     */
    std::vector<Mshr> _mshrs;
    std::vector<std::uint32_t> _liveMshrs;
    std::vector<std::uint32_t> _freeMshrs;
    std::vector<MshrWaiter> _waiters;
    std::uint32_t _freeWaiter = kNoWaiter;
    bool _blockedEpisode = false;
    Callback _retryCb;

    HierarchyStats _stats;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_HIERARCHY_HH
