/**
 * @file
 * Set-associative write-back cache array with true-LRU stacks.
 *
 * The LRU stack position of every hit is exposed because the Eager
 * Mellow Writes profiler (Section IV-B1) counts hits per stack
 * position; position 0 is MRU, position (assoc-1) is LRU, matching
 * Figure 7 of the paper.
 *
 * Storage is flat: one tag array per cache holding every set's lines
 * MRU..LRU, a parallel array of touch stamps, and per-set 64-bit
 * masks of the dirty and eagerly cleaned stack positions. An invalid
 * line holds kInvalidTag, which no block-aligned address equals, so
 * a lookup is one compare per way. Lines are only ever inserted at
 * MRU and never invalidated, so the valid lines of a set are always
 * a prefix of it.
 */

#ifndef MELLOWSIM_CACHE_CACHE_HH
#define MELLOWSIM_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/strong_types.hh"
#include "sim/types.hh"

namespace mellowsim
{

/** Geometry and timing of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = 2ull * 1024 * 1024;
    unsigned assoc = 16;
    /** Lookup/hit latency in ticks. */
    Tick hitLatency = 0;
};

/** One cache line, as SetAssocCache::set() reports it. */
struct CacheLine
{
    LogicalAddr blockAddr{0}; ///< block-aligned address
    bool valid = false;
    bool dirty = false;
    /**
     * The line was cleaned by an eager mellow write back; a later
     * store re-dirtying it means that eager write was wasted.
     */
    bool eagerCleaned = false;
    /**
     * Owner-supplied recency stamp (the LLC stores its profiling
     * period number here); drives the decay-based dead-block
     * predictor used as an alternative eager-candidate selector.
     */
    std::uint32_t touchStamp = 0;
};

/** Result of a lookup. */
struct CacheAccessResult
{
    bool hit = false;
    /** LRU stack position of the hit (undefined on miss). */
    unsigned lruPos = 0;
};

/** Victim description returned by insert(). */
struct CacheVictim
{
    bool valid = false; ///< an occupied line was evicted
    bool dirty = false;
    LogicalAddr blockAddr{0};
};

/** Result of SetAssocCache::fill(). */
struct CacheFill
{
    bool inserted = false; ///< the line was absent and is now at MRU
    CacheVictim victim;    ///< valid only if inserted evicted a line
};

/**
 * The cache array. Purely functional state (no timing); the
 * Hierarchy composes arrays into a timed three-level system.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &config);

    /**
     * Look up @p addr. On a hit the line moves to MRU and, if
     * @p isWrite, becomes dirty.
     *
     * @param updateLru  False for write backs arriving from an upper
     *                   level, which should not promote the line.
     * @param stamp      Recency stamp recorded on the line on a hit.
     */
    CacheAccessResult access(LogicalAddr addr, bool isWrite,
                             bool updateLru = true,
                             std::uint32_t stamp = 0);

    /** Non-destructive lookup (no LRU update, no dirtying). */
    [[nodiscard]] bool probe(LogicalAddr addr) const;

    /**
     * Allocate a line for @p addr at MRU (evicting LRU if the set is
     * full) and return the victim. @p addr must not be present.
     */
    CacheVictim insert(LogicalAddr addr, bool dirty,
                       std::uint32_t stamp = 0);

    /**
     * insert() if @p addr is absent, else leave the set untouched:
     * one lookup where probe() then insert() take two or three.
     */
    CacheFill fill(LogicalAddr addr, bool dirty, std::uint32_t stamp = 0);

    /**
     * Mark the line holding @p addr clean and remember it was eagerly
     * cleaned. No-op if absent.
     * @retval true the line was present and dirty.
     */
    bool cleanLineForEagerWrite(LogicalAddr addr);

    /** Number of sets. */
    [[nodiscard]] std::uint64_t numSets() const { return _numSets; }
    [[nodiscard]] unsigned assoc() const { return _config.assoc; }
    [[nodiscard]] Tick hitLatency() const
    {
        return _config.hitLatency;
    }
    [[nodiscard]] const CacheConfig &config() const { return _config; }

    /** A copy of one set's lines ordered by recency: index 0 is MRU. */
    [[nodiscard]] std::vector<CacheLine> set(std::uint64_t index) const;

    /**
     * Block address at stack position @p pos of set @p index, or
     * kInvalidTag. The eager scanner reads its candidate here.
     */
    [[nodiscard]] LogicalAddr
    blockAt(std::uint64_t index, unsigned pos) const
    {
        return _tags[index * _assoc + pos];
    }

    /** Touch stamp at stack position @p pos of set @p index. */
    [[nodiscard]] std::uint32_t
    stampAt(std::uint64_t index, unsigned pos) const
    {
        return _stamps[index * _assoc + pos];
    }

    /**
     * Valid dirty lines of set @p index as a bit mask over LRU stack
     * positions: bit p is set iff set(index)[p] is valid and dirty.
     * Lets the eager scanner rule a set out without touching its
     * lines.
     */
    [[nodiscard]] std::uint64_t
    dirtyMask(std::uint64_t index) const
    {
        return _dirtyMasks[index];
    }

    /** Count of valid dirty lines over the whole array (tests). */
    [[nodiscard]] std::uint64_t countDirtyLines() const;

    /** True iff a store re-dirtied an eagerly cleaned line. */
    [[nodiscard]] bool lastWriteWastedEager() const
    {
        return _lastWriteWastedEager;
    }

    /** Tag of an invalid line; not block-aligned, so never matched. */
    static constexpr LogicalAddr kInvalidTag{~Addr{0}};

  private:
    [[nodiscard]] std::uint64_t setIndex(LogicalAddr addr) const;

    /** Stack position of @p block in set @p index, or assoc() if absent. */
    [[nodiscard]] unsigned find(std::uint64_t index,
                                LogicalAddr block) const;

    /** Insert the absent @p block at MRU of set @p index. */
    CacheVictim insertAt(std::uint64_t index, LogicalAddr block,
                         bool dirty, std::uint32_t stamp);

    CacheConfig _config;
    unsigned _assoc;
    std::uint64_t _numSets;
    /** Every set's tags, set s at [s * assoc, (s + 1) * assoc), MRU first. */
    std::vector<LogicalAddr> _tags;
    /** Touch stamp of each line, parallel to _tags. */
    std::vector<std::uint32_t> _stamps;
    /** dirtyMask() per set. */
    std::vector<std::uint64_t> _dirtyMasks;
    /** Per set, the stack positions holding eagerly cleaned lines. */
    std::vector<std::uint64_t> _eagerMasks;
    bool _lastWriteWastedEager = false;
};

} // namespace mellowsim

#endif // MELLOWSIM_CACHE_CACHE_HH
