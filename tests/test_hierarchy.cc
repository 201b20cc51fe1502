/** @file Integration tests for the three-level cache hierarchy. */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "cache/hierarchy.hh"
#include "mellow/policy.hh"
#include "nvm/controller.hh"
#include "sim/alloc_counter.hh"
#include "sim/event_queue.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace
{

MemControllerConfig
memConfig()
{
    MemControllerConfig c;
    c.geometry.numBanks = 4;
    c.geometry.numRanks = 2;
    c.geometry.capacityBytes = 1ull << 22;
    c.policy = norm();
    return c;
}

HierarchyConfig
smallHierarchy()
{
    HierarchyConfig c;
    c.l1 = {"L1D", 2 * 1024, 2, 1 * kNanosecond}; // 16 sets x 2
    c.l2 = {"L2", 8 * 1024, 4, 6 * kNanosecond};  // 32 sets x 4
    c.llc.cache = {"LLC", 32 * 1024, 8, Tick(17.5 * kNanosecond)};
    c.llcMshrs = 4;
    return c;
}

struct Fixture
{
    EventQueue eq;
    MemoryController ctrl;
    Hierarchy hier;
    Fixture()
        : ctrl(eq, memConfig()), hier(eq, smallHierarchy(), ctrl, 3)
    {
    }
    void run(Tick t = 10 * kMicrosecond) { eq.run(eq.curTick() + t); }
};

/** Memory port whose reads complete only when the test says so. */
class ScriptedPort : public MemoryPort
{
  public:
    void
    read(LogicalAddr addr, ReadCallback onComplete) override
    {
        pending.emplace_back(addr, std::move(onComplete));
    }

    void writeback(LogicalAddr) override {}
    bool eagerWrite(LogicalAddr) override { return false; }
    [[nodiscard]] bool eagerQueueHasSpace() const override { return false; }

    /** Deliver the data of the @p i-th outstanding read. */
    LogicalAddr
    complete(std::size_t i)
    {
        auto [addr, done] = std::move(pending[i]);
        pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
        done();
        return addr;
    }

    std::vector<std::pair<LogicalAddr, ReadCallback>> pending;
};

/** A hierarchy over a ScriptedPort: the test decides fill order. */
struct ScriptedFixture
{
    EventQueue eq;
    ScriptedPort port;
    Hierarchy hier;
    ScriptedFixture() : hier(eq, smallHierarchy(), port, 3) {}
    /** Let issued misses travel the lookup path to the port. */
    void deliver() { eq.run(eq.curTick() + kMicrosecond); }
};

/** The @p n-th never-touched block (cold in every level). */
LogicalAddr
freshBlock(unsigned n)
{
    return LogicalAddr(static_cast<Addr>(1000 + n) * kBlockSize);
}

} // namespace

TEST(Hierarchy, ColdLoadMissesToMemoryThenHitsInL1)
{
    Fixture f;
    bool filled = false;
    AccessTicket t = f.hier.access(LogicalAddr(0x40), false, [&] { filled = true; });
    EXPECT_EQ(t.outcome, AccessOutcome::Miss);
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 1u);
    f.run();
    EXPECT_TRUE(filled);

    AccessTicket t2 = f.hier.access(LogicalAddr(0x40), false, nullptr);
    EXPECT_EQ(t2.outcome, AccessOutcome::Hit);
    EXPECT_EQ(t2.latency, 1 * kNanosecond);
    EXPECT_EQ(f.hier.stats().l1Hits.value(), 1u);
}

TEST(Hierarchy, L2HitLatencyIsCumulative)
{
    Fixture f;
    f.hier.access(LogicalAddr(0x40), false, nullptr);
    f.run();
    // Evict 0x40 from the tiny L1 (16 sets): two more lines in the
    // same L1 set (stride = 16 blocks).
    f.hier.access(LogicalAddr(0x40 + 16 * kBlockSize), false, nullptr);
    f.run();
    f.hier.access(LogicalAddr(0x40 + 32 * kBlockSize), false, nullptr);
    f.run();
    AccessTicket t = f.hier.access(LogicalAddr(0x40), false, nullptr);
    EXPECT_EQ(t.outcome, AccessOutcome::Hit);
    EXPECT_EQ(t.latency, 7 * kNanosecond); // L1 + L2
    EXPECT_EQ(f.hier.stats().l2Hits.value(), 1u);
}

TEST(Hierarchy, StoreMissFetchesLineThenDirtiesL1)
{
    Fixture f;
    bool done = false;
    AccessTicket t = f.hier.access(LogicalAddr(0x80), true, [&] { done = true; });
    EXPECT_EQ(t.outcome, AccessOutcome::Miss);
    f.run();
    EXPECT_TRUE(done);
    // The store-miss generated a memory *read* (fill), no write yet.
    EXPECT_EQ(f.ctrl.stats().demandReads.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Hierarchy, DirtyLineWritesBackOnLlcEviction)
{
    Fixture f;
    // Dirty one line, then stream enough lines through the same LLC
    // set to evict it everywhere.
    f.hier.access(LogicalAddr(0x40), true, nullptr);
    f.run();
    // LLC: 64 sets x 8 ways; same-set stride is 64 blocks.
    for (int i = 1; i <= 12; ++i) {
        f.hier.access(LogicalAddr(0x40 +
                                  static_cast<Addr>(i) * 64 * kBlockSize),
                      false, nullptr);
        f.run();
    }
    EXPECT_GE(f.ctrl.stats().acceptedWritebacks.value(), 1u);
}

TEST(Hierarchy, MshrMergesSameBlockMisses)
{
    Fixture f;
    int completions = 0;
    auto cb = [&] { ++completions; };
    f.hier.access(LogicalAddr(0x100), false, cb);
    f.hier.access(LogicalAddr(0x100), true, cb);
    f.hier.access(LogicalAddr(0x11F), false, cb); // same block, odd offset
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 1u);
    EXPECT_EQ(f.hier.stats().mshrMerges.value(), 2u);
    EXPECT_EQ(f.hier.outstandingMisses(), 1u);
    f.run();
    EXPECT_EQ(completions, 3);
    // One memory read served all three.
    EXPECT_EQ(f.ctrl.stats().demandReads.value(), 1u);
}

TEST(Hierarchy, MshrLimitBlocksAndRetries)
{
    Fixture f;
    int completions = 0;
    auto cb = [&] { ++completions; };
    for (int i = 0; i < 4; ++i) {
        AccessTicket t = f.hier.access(
            LogicalAddr(static_cast<Addr>(i) * 4096 + 0x40), false, cb);
        EXPECT_EQ(t.outcome, AccessOutcome::Miss);
    }
    AccessTicket blocked =
        f.hier.access(LogicalAddr(5 * 4096 + 0x40), false, cb);
    EXPECT_EQ(blocked.outcome, AccessOutcome::Blocked);
    EXPECT_EQ(f.hier.stats().blocked.value(), 1u);

    bool retried = false;
    f.hier.setRetryCallback([&] { retried = true; });
    f.run();
    EXPECT_TRUE(retried);
    EXPECT_EQ(completions, 4);
}

TEST(Hierarchy, MergedStoreDirtiesTheFill)
{
    Fixture f;
    f.hier.access(LogicalAddr(0x200), false, nullptr);
    f.hier.access(LogicalAddr(0x200), true, nullptr); // merged store
    f.run();
    // The L1 line must be dirty: evicting it must produce an L2 write.
    // Touch two more same-L1-set lines to evict 0x200 from L1.
    f.hier.access(LogicalAddr(0x200 + 16 * kBlockSize), false, nullptr);
    f.run();
    f.hier.access(LogicalAddr(0x200 + 32 * kBlockSize), false, nullptr);
    f.run();
    // ...then push it out of L2 (32 sets x 4 ways; stride 32 blocks)
    // and out of the LLC. Simplest check: the dirty bit still lives
    // somewhere below L1 — count dirty lines across arrays via LLC
    // eviction pressure later. Here we just assert no write back has
    // been *lost* (nothing reached memory yet).
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Hierarchy, PrimeInstallsInAllLevels)
{
    Fixture f;
    f.hier.prime(LogicalAddr(0x40), false);
    AccessTicket t = f.hier.access(LogicalAddr(0x40), false, nullptr);
    EXPECT_EQ(t.outcome, AccessOutcome::Hit);
    EXPECT_EQ(t.latency, 1 * kNanosecond);
    // Prime produced no stats and no memory traffic.
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 0u);
    EXPECT_EQ(f.ctrl.stats().demandReads.value(), 0u);
}

TEST(Hierarchy, ReadLatencyIncludesLookupPath)
{
    Fixture f;
    Tick start = f.eq.curTick();
    Tick done_at = 0;
    f.hier.access(LogicalAddr(0x40), false, [&] { done_at = f.eq.curTick(); });
    f.run();
    // Lookup path 1+6+17.5 = 24.5 ns, memory read 142.5 ns.
    EXPECT_EQ(done_at - start, Tick(24.5 * kNanosecond) +
                                   Tick(142.5 * kNanosecond));
}

TEST(Hierarchy, LlcMissRateMatchesStreamingPattern)
{
    Fixture f;
    // Stream 1000 distinct blocks: every access must miss the LLC.
    for (int i = 0; i < 1000; ++i) {
        f.hier.access(LogicalAddr(static_cast<Addr>(i + 100) * kBlockSize),
                      false,
                      nullptr);
        f.run(kMicrosecond);
    }
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 1000u);
    EXPECT_EQ(f.hier.stats().l1Hits.value(), 0u);
}

TEST(Hierarchy, MshrTableMatchesReferenceModel)
{
    // Random accesses and out-of-order fills against a std::map model
    // of the MSHRs: merges, waiter firing order, blocking at exactly
    // llcMshrs, and one retry per blocking episode. Fills free slots
    // from anywhere in the live list, and some misses go to blocks
    // whose earlier MSHR was freed long ago (evicted since), so slots
    // and block addresses are reused in every order.
    ScriptedFixture f;
    const std::size_t mshrs = smallHierarchy().llcMshrs;
    std::map<Addr, std::vector<int>> ref; // block -> waiter tokens
    std::vector<int> fired;
    bool blockedEpisode = false;
    int retries = 0;
    int expectedRetries = 0;
    std::uint64_t misses = 0, merges = 0, blocked = 0;
    f.hier.setRetryCallback([&] { ++retries; });

    std::mt19937_64 rng(42);
    unsigned nextFresh = 0;
    int nextToken = 0;
    // Filled blocks in fill order, and each block's latest position
    // there. A block filled kEvicted fills ago has left every level
    // (the fixture's LLC holds 512 blocks), so it misses afresh.
    constexpr std::size_t kEvicted = 2000;
    std::vector<Addr> filledOrder;
    std::map<Addr, std::size_t> lastFill;
    std::uint64_t refills = 0;
    for (int step = 0; step < 20000; ++step) {
        bool fill = !f.port.pending.empty() && rng() % 5 < 2;
        if (fill) {
            std::size_t i = rng() % f.port.pending.size();
            Addr block = f.port.pending[i].first.value();
            std::vector<int> expect = ref.at(block);
            std::size_t before = fired.size();
            f.port.complete(i);
            ref.erase(block);
            lastFill[block] = filledOrder.size();
            filledOrder.push_back(block);
            ASSERT_EQ(fired.size(), before + expect.size());
            EXPECT_TRUE(std::equal(expect.begin(), expect.end(),
                                   fired.begin() +
                                       static_cast<std::ptrdiff_t>(before)));
            if (blockedEpisode) {
                blockedEpisode = false;
                ++expectedRetries;
            }
        } else {
            bool merge = !ref.empty() && rng() % 3 == 0;
            LogicalAddr addr = freshBlock(nextFresh);
            if (merge) {
                auto it = ref.begin();
                std::advance(it, static_cast<std::ptrdiff_t>(
                                     rng() % ref.size()));
                // Any byte of the block merges.
                addr = LogicalAddr(it->first + rng() % kBlockSize);
            } else if (filledOrder.size() > kEvicted && rng() % 4 == 0) {
                // Re-miss a long-evicted block, unless it was filled
                // again since or is outstanding right now.
                const std::size_t at =
                    rng() % (filledOrder.size() - kEvicted);
                const Addr old_block = filledOrder[at];
                if (lastFill.at(old_block) != at ||
                    ref.count(old_block) != 0) {
                    continue;
                }
                addr = LogicalAddr(old_block);
                ++refills;
            } else {
                ++nextFresh;
            }
            int token = nextToken++;
            AccessTicket t = f.hier.access(
                addr, rng() % 2 == 0, [&fired, token] {
                    fired.push_back(token);
                });
            Addr block = blockAlign(addr).value();
            if (merge) {
                EXPECT_EQ(t.outcome, AccessOutcome::Miss);
                ref[block].push_back(token);
                ++merges;
            } else if (ref.size() >= mshrs) {
                EXPECT_EQ(t.outcome, AccessOutcome::Blocked);
                blockedEpisode = true;
                ++blocked;
            } else {
                EXPECT_EQ(t.outcome, AccessOutcome::Miss);
                ref[block].push_back(token);
                ++misses;
            }
            f.deliver();
        }
        ASSERT_EQ(f.hier.outstandingMisses(), ref.size());
        ASSERT_EQ(f.port.pending.size(), ref.size());
        ASSERT_EQ(retries, expectedRetries);
    }
    EXPECT_EQ(f.hier.stats().llcMisses.value(), misses);
    EXPECT_EQ(f.hier.stats().mshrMerges.value(), merges);
    EXPECT_EQ(f.hier.stats().blocked.value(), blocked);
    // The walk must have exercised every path.
    EXPECT_GT(misses, 1000u);
    EXPECT_GT(merges, 1000u);
    EXPECT_GT(expectedRetries, 100);
    EXPECT_GT(refills, 200u);
}

TEST(Hierarchy, FreedMshrsAndWaitersAreReused)
{
    ScriptedFixture f;
    const unsigned mshrs = smallHierarchy().llcMshrs;
    unsigned fresh = 0;
    int fired = 0;
    auto round = [&] {
        // Occupy every MSHR with three waiters, then drain.
        for (unsigned m = 0; m < mshrs; ++m) {
            LogicalAddr block = freshBlock(fresh++);
            for (int w = 0; w < 3; ++w) {
                AccessTicket t = f.hier.access(block, w == 1,
                                               [&fired] { ++fired; });
                EXPECT_EQ(t.outcome, AccessOutcome::Miss);
            }
        }
        f.deliver();
        EXPECT_EQ(f.hier.outstandingMisses(), mshrs);
        while (!f.port.pending.empty())
            f.port.complete(f.port.pending.size() - 1);
        EXPECT_EQ(f.hier.outstandingMisses(), 0u);
    };
    f.port.pending.reserve(mshrs);
    round();

    std::uint64_t allocs0 = alloccounter::allocations();
    for (int r = 0; r < 100; ++r)
        round();
    std::uint64_t allocs = alloccounter::allocations() - allocs0;

    EXPECT_EQ(fired, 101 * static_cast<int>(mshrs) * 3);
    EXPECT_EQ(f.hier.stats().blocked.value(), 0u);
    // Entries and waiter nodes are recycled, never reallocated.
    if (alloccounter::enabled()) {
        EXPECT_EQ(allocs, 0u);
    }
}

TEST(Hierarchy, CallbackMissingTheSameBlockStartsAFreshMshr)
{
    // A completion callback re-enters access() for the block being
    // filled. The MSHR is already free, so this is a new miss; the
    // extra waiters grow the pool mid-walk, which must neither lose
    // the remaining waiter of the first fill nor fire anything twice.
    ScriptedFixture f;
    const LogicalAddr block(0x40);
    std::vector<char> log;
    auto reissue = [&] {
        log.push_back('A');
        // Evict the block from every level: the same set in L1, L2
        // and the LLC recurs every 64 blocks.
        for (Addr k = 1; k <= 16; ++k)
            f.hier.prime(LogicalAddr(0x40 + k * 64 * kBlockSize), false);
        // More waiters than the pool has held so far: it reallocates.
        for (char c : {'u', 'v', 'w', 'x', 'y', 'z'}) {
            AccessTicket t = f.hier.access(
                block, c == 'y', [&log, c] { log.push_back(c); });
            EXPECT_EQ(t.outcome, AccessOutcome::Miss);
        }
    };
    f.hier.access(block, false, reissue);
    f.hier.access(block, true, [&log] { log.push_back('B'); });
    f.deliver();
    ASSERT_EQ(f.port.pending.size(), 1u);
    f.port.complete(0);

    EXPECT_EQ(log, (std::vector<char>{'A', 'B'}));
    EXPECT_EQ(f.hier.outstandingMisses(), 1u);
    EXPECT_EQ(f.hier.stats().llcMisses.value(), 2u);
    EXPECT_EQ(f.hier.stats().mshrMerges.value(), 6u);

    f.deliver();
    ASSERT_EQ(f.port.pending.size(), 1u);
    EXPECT_EQ(f.port.complete(0), block);
    EXPECT_EQ(log, (std::vector<char>{'A', 'B', 'u', 'v', 'w', 'x', 'y',
                                      'z'}));
    EXPECT_EQ(f.hier.outstandingMisses(), 0u);
}
