/** @file Tests for the set-associative LRU cache array. */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "cache/cache.hh"
#include "sim/logging.hh"

using namespace mellowsim;

namespace
{

CacheConfig
tiny(unsigned assoc = 4, std::uint64_t sets = 2)
{
    CacheConfig c;
    c.name = "tiny";
    c.assoc = assoc;
    c.sizeBytes = sets * assoc * kBlockSize;
    c.hitLatency = 3;
    return c;
}

/** Address landing in set @p set with tag id @p tag (2-set cache). */
LogicalAddr
addrFor(std::uint64_t set, std::uint64_t tag, std::uint64_t num_sets = 2)
{
    return LogicalAddr((tag * num_sets + set) * kBlockSize);
}

} // namespace

TEST(Cache, MissOnEmpty)
{
    SetAssocCache c(tiny());
    EXPECT_FALSE(c.access(LogicalAddr(0x40), false).hit);
    EXPECT_FALSE(c.probe(LogicalAddr(0x40)));
}

TEST(Cache, InsertThenHit)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_TRUE(c.probe(LogicalAddr(0x40)));
    CacheAccessResult r = c.access(LogicalAddr(0x40), false);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.lruPos, 0u);
}

TEST(Cache, SubBlockOffsetsHitSameLine)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_TRUE(c.access(LogicalAddr(0x7F), false).hit);
    EXPECT_TRUE(c.access(LogicalAddr(0x41), false).hit);
}

TEST(Cache, LruStackPositionsReported)
{
    SetAssocCache c(tiny(4, 2));
    // Fill set 0 with tags 0..3; after inserts, tag 3 is MRU.
    for (std::uint64_t t = 0; t < 4; ++t)
        c.insert(addrFor(0, t), false);
    EXPECT_EQ(c.access(addrFor(0, 3), false).lruPos, 0u);
    // tag 0 was inserted first: now LRU... but the access above moved
    // tag 3 to MRU (it already was). Check tag 0 at position 3.
    EXPECT_EQ(c.access(addrFor(0, 0), false).lruPos, 3u);
    // That access promoted tag 0 to MRU.
    EXPECT_EQ(c.access(addrFor(0, 0), false).lruPos, 0u);
}

TEST(Cache, EvictsTrueLruVictim)
{
    SetAssocCache c(tiny(2, 2));
    c.insert(addrFor(0, 1), false);
    c.insert(addrFor(0, 2), false);
    c.access(addrFor(0, 1), false); // promote tag 1
    CacheVictim v = c.insert(addrFor(0, 3), false);
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.blockAddr, addrFor(0, 2));
    EXPECT_TRUE(c.probe(addrFor(0, 1)));
    EXPECT_FALSE(c.probe(addrFor(0, 2)));
}

TEST(Cache, VictimCarriesDirtyBit)
{
    SetAssocCache c(tiny(1, 2));
    c.insert(addrFor(0, 1), false);
    c.access(addrFor(0, 1), true); // dirty it
    CacheVictim v = c.insert(addrFor(0, 2), false);
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, InvalidVictimWhenSetNotFull)
{
    SetAssocCache c(tiny());
    CacheVictim v = c.insert(LogicalAddr(0x40), false);
    EXPECT_FALSE(v.valid);
}

TEST(Cache, DoubleInsertPanics)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_THROW(c.insert(LogicalAddr(0x40), true), PanicError);
}

TEST(Cache, WriteSetsDirty)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), false);
    EXPECT_EQ(c.countDirtyLines(), 0u);
    c.access(LogicalAddr(0x40), true);
    EXPECT_EQ(c.countDirtyLines(), 1u);
}

TEST(Cache, NoLruUpdateOptionKeepsStack)
{
    SetAssocCache c(tiny(2, 2));
    c.insert(addrFor(0, 1), false);
    c.insert(addrFor(0, 2), false); // tag2 MRU, tag1 LRU
    c.access(addrFor(0, 1), true, /*updateLru=*/false);
    // tag 1 stays at LRU and is the next victim.
    CacheVictim v = c.insert(addrFor(0, 3), false);
    EXPECT_EQ(v.blockAddr, addrFor(0, 1));
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, CleanLineForEagerWrite)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), true);
    EXPECT_TRUE(c.cleanLineForEagerWrite(LogicalAddr(0x40)));
    EXPECT_EQ(c.countDirtyLines(), 0u);
    EXPECT_TRUE(c.probe(LogicalAddr(0x40))); // NOT evicted
    // Already clean: returns false.
    EXPECT_FALSE(c.cleanLineForEagerWrite(LogicalAddr(0x40)));
    // Absent line: returns false.
    EXPECT_FALSE(c.cleanLineForEagerWrite(LogicalAddr(0x1000040)));
}

TEST(Cache, RedirtyingEagerCleanedLineFlagsWaste)
{
    SetAssocCache c(tiny());
    c.insert(LogicalAddr(0x40), true);
    c.cleanLineForEagerWrite(LogicalAddr(0x40));
    c.access(LogicalAddr(0x40), false);
    EXPECT_FALSE(c.lastWriteWastedEager()); // reads never waste
    c.access(LogicalAddr(0x40), true);
    EXPECT_TRUE(c.lastWriteWastedEager());
    // Only flagged once per eager clean.
    c.access(LogicalAddr(0x40), true);
    EXPECT_FALSE(c.lastWriteWastedEager());
}

TEST(Cache, SetAccessorExposesRecencyOrder)
{
    SetAssocCache c(tiny(4, 2));
    for (std::uint64_t t = 1; t <= 4; ++t)
        c.insert(addrFor(0, t), t % 2 == 0);
    const auto &set = c.set(0); // set index 0
    EXPECT_EQ(set.size(), 4u);
    EXPECT_EQ(set[0].blockAddr, addrFor(0, 4)); // MRU: last insert
    EXPECT_EQ(set[3].blockAddr, addrFor(0, 1)); // LRU: first insert
    EXPECT_THROW((void)c.set(2), PanicError);
}

TEST(Cache, RejectsBadGeometry)
{
    CacheConfig c;
    c.assoc = 0;
    EXPECT_THROW(SetAssocCache{c}, FatalError);

    c = CacheConfig{};
    c.sizeBytes = 1000; // not a multiple of assoc * 64
    EXPECT_THROW(SetAssocCache{c}, FatalError);

    c = CacheConfig{};
    c.sizeBytes = 3 * 16 * kBlockSize; // 3 sets: not a power of two
    EXPECT_THROW(SetAssocCache{c}, FatalError);
}

/**
 * Property (stack property, Mattson et al.): a larger cache's LRU
 * content is a superset of a smaller one's under the same trace.
 */
TEST(Cache, LruStackInclusionProperty)
{
    SetAssocCache small(tiny(2, 1));
    SetAssocCache large(tiny(4, 1));
    std::uint64_t tags[] = {1, 2, 3, 1, 4, 2, 5, 1, 3, 2, 6, 4, 1};
    for (std::uint64_t t : tags) {
        LogicalAddr a = addrFor(0, t, 1);
        if (!small.access(a, false).hit)
            small.insert(a, false);
        if (!large.access(a, false).hit)
            large.insert(a, false);
    }
    // Every line in the small cache must be in the large cache.
    for (std::uint64_t t = 1; t <= 6; ++t) {
        LogicalAddr a = addrFor(0, t, 1);
        if (small.probe(a)) {
            EXPECT_TRUE(large.probe(a)) << "tag " << t;
        }
    }
}

TEST(Cache, RejectsAssociativityBeyondTheDirtyMask)
{
    EXPECT_THROW(SetAssocCache{tiny(65, 1)}, FatalError);
    SetAssocCache widest(tiny(64, 1));
    EXPECT_EQ(widest.assoc(), 64u);
}

namespace
{

/** dirtyMask() recomputed from set() line by line. */
std::uint64_t
bruteDirtyMask(const SetAssocCache &c, std::uint64_t set)
{
    std::uint64_t mask = 0;
    const auto &lines = c.set(set);
    for (unsigned pos = 0; pos < lines.size(); ++pos) {
        if (lines[pos].valid && lines[pos].dirty)
            mask |= std::uint64_t{1} << pos;
    }
    return mask;
}

} // namespace

/**
 * Property: across random demand accesses, fills, upper-level write
 * backs (the LLC's no-promotion write + dirty allocate) and eager
 * cleans, every set's dirty mask equals a recomputation from set().
 */
TEST(Cache, DirtyMaskMatchesBruteForceUnderRandomTraffic)
{
    for (unsigned assoc : {1u, 2u, 16u, 64u}) {
        constexpr std::uint64_t kSets = 4;
        SetAssocCache c(tiny(assoc, kSets));
        std::uint64_t rng = 0x2545f4914f6cdd1dull + assoc;
        auto next = [&rng] {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            return rng;
        };
        for (int op = 0; op < 20000; ++op) {
            const std::uint64_t set = next() % kSets;
            const LogicalAddr a =
                addrFor(set, next() % (2 * assoc + 1), kSets);
            switch (next() % 4) {
              case 0: { // demand access, allocate clean on a miss
                const bool write = next() % 2 == 0;
                if (!c.access(a, write).hit)
                    (void)c.insert(a, write);
                break;
              }
              case 1: // write back from an upper level
                if (!c.access(a, true, /*updateLru=*/false).hit)
                    (void)c.insert(a, true);
                break;
              case 2: // fill from memory
                if (!c.probe(a))
                    (void)c.insert(a, false);
                break;
              default:
                (void)c.cleanLineForEagerWrite(a);
                break;
            }
            ASSERT_EQ(c.dirtyMask(set), bruteDirtyMask(c, set))
                << "assoc " << assoc << " op " << op;
        }
        for (std::uint64_t s = 0; s < kSets; ++s)
            EXPECT_EQ(c.dirtyMask(s), bruteDirtyMask(c, s));
    }
}

namespace
{

/**
 * The cache array as a vector of lines per set, MRU first: the
 * straightforward model the flat tag arrays must agree with.
 */
class ReferenceCache
{
  public:
    ReferenceCache(unsigned assoc, std::uint64_t sets)
        : _sets(sets, std::vector<CacheLine>(assoc))
    {
    }

    CacheAccessResult
    access(LogicalAddr addr, bool isWrite, bool updateLru,
           std::uint32_t stamp)
    {
        wasted = false;
        auto &set = _sets[index(addr)];
        for (unsigned pos = 0; pos < set.size(); ++pos) {
            CacheLine &line = set[pos];
            if (!line.valid || line.blockAddr != blockAlign(addr))
                continue;
            line.touchStamp = stamp;
            if (isWrite) {
                wasted = line.eagerCleaned;
                line.eagerCleaned = false;
                line.dirty = true;
            }
            if (updateLru) {
                CacheLine moved = line;
                set.erase(set.begin() + pos);
                set.insert(set.begin(), moved);
            }
            return {true, pos};
        }
        return {false, 0};
    }

    [[nodiscard]] bool
    probe(LogicalAddr addr) const
    {
        for (const CacheLine &line : _sets[index(addr)]) {
            if (line.valid && line.blockAddr == blockAlign(addr))
                return true;
        }
        return false;
    }

    CacheVictim
    insert(LogicalAddr addr, bool dirty, std::uint32_t stamp)
    {
        auto &set = _sets[index(addr)];
        CacheVictim victim;
        if (set.back().valid)
            victim = {true, set.back().dirty, set.back().blockAddr};
        set.pop_back();
        CacheLine line;
        line.blockAddr = blockAlign(addr);
        line.valid = true;
        line.dirty = dirty;
        line.touchStamp = stamp;
        set.insert(set.begin(), line);
        return victim;
    }

    bool
    clean(LogicalAddr addr)
    {
        for (CacheLine &line : _sets[index(addr)]) {
            if (line.valid && line.blockAddr == blockAlign(addr)) {
                if (!line.dirty)
                    return false;
                line.dirty = false;
                line.eagerCleaned = true;
                return true;
            }
        }
        return false;
    }

    [[nodiscard]] const std::vector<CacheLine> &
    set(std::uint64_t i) const
    {
        return _sets[i];
    }

    bool wasted = false;

  private:
    [[nodiscard]] std::uint64_t
    index(LogicalAddr addr) const
    {
        return blockNumber(addr) % _sets.size();
    }

    std::vector<std::vector<CacheLine>> _sets;
};

void
expectSameSet(const SetAssocCache &c, const ReferenceCache &ref,
              std::uint64_t s)
{
    const std::vector<CacheLine> got = c.set(s);
    const std::vector<CacheLine> &want = ref.set(s);
    ASSERT_EQ(got.size(), want.size());
    std::uint64_t dirty = 0;
    for (unsigned pos = 0; pos < got.size(); ++pos) {
        SCOPED_TRACE(pos);
        ASSERT_EQ(got[pos].valid, want[pos].valid);
        if (!want[pos].valid) {
            EXPECT_EQ(c.blockAt(s, pos), SetAssocCache::kInvalidTag);
            continue;
        }
        EXPECT_EQ(got[pos].blockAddr, want[pos].blockAddr);
        EXPECT_EQ(c.blockAt(s, pos), want[pos].blockAddr);
        EXPECT_EQ(got[pos].dirty, want[pos].dirty);
        EXPECT_EQ(got[pos].eagerCleaned, want[pos].eagerCleaned);
        EXPECT_EQ(got[pos].touchStamp, want[pos].touchStamp);
        EXPECT_EQ(c.stampAt(s, pos), want[pos].touchStamp);
        if (want[pos].dirty)
            dirty |= std::uint64_t{1} << pos;
    }
    EXPECT_EQ(c.dirtyMask(s), dirty);
}

} // namespace

/**
 * Property: under random demand accesses (with and without LRU
 * promotion), inserts, fills, probes and eager cleans, the flat array
 * reports the same hit positions, victims, dirty and eagerly cleaned
 * state, wasted-eager flags and touch stamps as the vector-of-lines
 * reference, at every associativity the dirty mask allows.
 */
TEST(Cache, FlatArraysMatchAVectorOfLinesReference)
{
    for (unsigned assoc : {1u, 3u, 4u, 16u, 64u}) {
        SCOPED_TRACE(assoc);
        constexpr std::uint64_t kSets = 8;
        SetAssocCache c(tiny(assoc, kSets));
        ReferenceCache ref(assoc, kSets);
        std::mt19937_64 rng(0x5eed + assoc);
        std::uint64_t dirty_lines = 0;
        for (int op = 0; op < 30000; ++op) {
            const std::uint64_t set = rng() % kSets;
            // Sub-block offsets too: every byte of a block hits it.
            const LogicalAddr a(addrFor(set, rng() % (2 * assoc + 2),
                                        kSets)
                                    .value() +
                                rng() % kBlockSize);
            const auto stamp = static_cast<std::uint32_t>(rng() % 7);
            switch (rng() % 6) {
            case 0:
            case 1: {
                const bool write = rng() % 2 == 0;
                const bool lru = rng() % 4 != 0;
                CacheAccessResult got = c.access(a, write, lru, stamp);
                CacheAccessResult want = ref.access(a, write, lru, stamp);
                ASSERT_EQ(got.hit, want.hit) << "op " << op;
                if (want.hit) {
                    ASSERT_EQ(got.lruPos, want.lruPos) << "op " << op;
                }
                ASSERT_EQ(c.lastWriteWastedEager(), ref.wasted)
                    << "op " << op;
                break;
            }
            case 2: {
                ASSERT_EQ(c.probe(a), ref.probe(a)) << "op " << op;
                if (ref.probe(a)) {
                    EXPECT_THROW((void)c.insert(a, false), PanicError);
                    break;
                }
                const bool dirty = rng() % 2 == 0;
                CacheVictim got = c.insert(a, dirty, stamp);
                CacheVictim want = ref.insert(a, dirty, stamp);
                ASSERT_EQ(got.valid, want.valid) << "op " << op;
                ASSERT_EQ(got.dirty, want.dirty) << "op " << op;
                if (want.valid) {
                    ASSERT_EQ(got.blockAddr, want.blockAddr);
                }
                break;
            }
            case 3: {
                const bool present = ref.probe(a);
                const bool dirty = rng() % 2 == 0;
                CacheFill got = c.fill(a, dirty, stamp);
                ASSERT_EQ(got.inserted, !present) << "op " << op;
                CacheVictim want;
                if (!present)
                    want = ref.insert(a, dirty, stamp);
                ASSERT_EQ(got.victim.valid, want.valid) << "op " << op;
                ASSERT_EQ(got.victim.dirty, want.dirty) << "op " << op;
                if (want.valid) {
                    ASSERT_EQ(got.victim.blockAddr, want.blockAddr);
                }
                break;
            }
            default:
                ASSERT_EQ(c.cleanLineForEagerWrite(a), ref.clean(a))
                    << "op " << op;
                break;
            }
            expectSameSet(c, ref, set);
            if (HasFatalFailure() || HasNonfatalFailure())
                FAIL() << "diverged at op " << op;
        }
        for (std::uint64_t s = 0; s < kSets; ++s) {
            expectSameSet(c, ref, s);
            for (const CacheLine &line : ref.set(s))
                dirty_lines += line.valid && line.dirty ? 1 : 0;
        }
        EXPECT_EQ(c.countDirtyLines(), dirty_lines);
    }
}
