/** @file Tests for the LLC with the Eager Mellow Writes machinery. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <iterator>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "cache/llc.hh"
#include "mellow/policy.hh"
#include "nvm/controller.hh"
#include "sim/event_queue.hh"

using namespace mellowsim;
using namespace mellowsim::policies;

namespace mellowsim
{

/**
 * Reaches the LLC's scan timer: re-registers it with a test action,
 * runs the per-poll reference scan, and reads the scan's RNG and
 * successor.
 */
struct LlcScanProbe
{
    /**
     * Re-register @p llc's scan timer with @p action, armed where the
     * old one was. Arming draws one sequence number, so two LLCs that
     * both go through this stay in lockstep.
     */
    static void
    install(Llc &llc, InlineCallback action)
    {
        const Tick at = llc._eventq.armedAt(llc._scan);
        llc._eventq.disarm(llc._scan);
        llc._scan = llc._eventq.addTimer(action);
        llc._eventq.arm(llc._scan, at);
    }

    static void batch(Llc &llc) { llc.onScan(); }

    /**
     * One poll as its own unit: the gate, a scan count, the useless
     * boundary, one set draw and its candidate search.
     */
    static std::optional<LogicalAddr>
    poll(Llc &llc)
    {
        if (!llc._controller.eagerQueueHasSpace())
            return std::nullopt;
        ++llc._stats.eagerScans;
        const unsigned from =
            llc._config.selector == EagerSelector::UselessLru
                ? llc._profiler.uselessFrom()
                : 0;
        if (from >= llc._array.assoc())
            return std::nullopt;
        const std::uint64_t set =
            llc._rng.nextBounded(llc._array.numSets());
        std::uint64_t dirty = llc._array.dirtyMask(set) >> from << from;
        while (dirty != 0) {
            const unsigned pos =
                static_cast<unsigned>(std::bit_width(dirty)) - 1;
            const std::uint32_t stamp = llc._array.stampAt(set, pos);
            if (llc._config.selector == EagerSelector::UselessLru ||
                (llc._period >= stamp &&
                 llc._period - stamp >= llc._config.deadAfterPeriods)) {
                return llc._array.blockAt(set, pos);
            }
            dirty &= ~(std::uint64_t{1} << pos);
        }
        return std::nullopt;
    }

    /**
     * The reference scan: one poll per tryAdvance(), exactly as one
     * event per poll would run them.
     */
    static void
    reference(Llc &llc)
    {
        for (;;) {
            const Tick next =
                llc._eventq.curTick() + llc._config.scanInterval;
            const std::optional<LogicalAddr> candidate = poll(llc);
            if (!candidate && llc._eventq.tryAdvance(next))
                continue;
            llc._eventq.arm(llc._scan, next);
            if (candidate && llc._controller.eagerWrite(*candidate)) {
                llc._array.cleanLineForEagerWrite(*candidate);
                ++llc._stats.eagerSent;
            }
            return;
        }
    }

    /** The next two draws of the scan's RNG, from a copy. */
    static std::pair<std::uint64_t, std::uint64_t>
    rngState(const Llc &llc)
    {
        Rng copy = llc._rng;
        const std::uint64_t a = copy.next();
        return {a, copy.next()};
    }

    static Tick successor(const Llc &llc)
    {
        return llc._eventq.armedAt(llc._scan);
    }
};

} // namespace mellowsim

namespace
{

MemControllerConfig
memConfig(const WritePolicyConfig &policy)
{
    MemControllerConfig c;
    c.geometry.numBanks = 4;
    c.geometry.numRanks = 2;
    c.geometry.capacityBytes = 1ull << 20;
    c.policy = policy;
    return c;
}

LlcConfig
llcConfig(bool eager)
{
    LlcConfig c;
    c.cache.name = "LLC";
    c.cache.sizeBytes = 16 * 4 * kBlockSize; // 16 sets x 4 ways
    c.cache.assoc = 4;
    c.cache.hitLatency = Tick(17.5 * kNanosecond);
    c.eagerEnabled = eager;
    c.scanInterval = 4 * kNanosecond;
    return c;
}

struct Fixture
{
    EventQueue eq;
    MemoryController ctrl;
    Llc llc;
    Fixture(const WritePolicyConfig &policy, bool eager)
        : ctrl(eq, memConfig(policy)), llc(eq, llcConfig(eager), ctrl, 7)
    {
    }
};

} // namespace

TEST(Llc, DemandAccessCountsHitsAndMisses)
{
    Fixture f(norm(), false);
    EXPECT_FALSE(f.llc.access(LogicalAddr(0x40), false).hit);
    f.llc.fillFromMemory(LogicalAddr(0x40));
    EXPECT_TRUE(f.llc.access(LogicalAddr(0x40), false).hit);
    EXPECT_EQ(f.llc.stats().demandReads.value(), 2u);
    EXPECT_EQ(f.llc.stats().hits.value(), 1u);
    EXPECT_EQ(f.llc.stats().misses.value(), 1u);
}

TEST(Llc, ProfilerSeesDemandTraffic)
{
    Fixture f(norm(), false);
    f.llc.access(LogicalAddr(0x40), false); // miss
    f.llc.fillFromMemory(LogicalAddr(0x40));
    f.llc.access(LogicalAddr(0x40), false); // hit at MRU
    EXPECT_EQ(f.llc.profiler().missCounter(), 1u);
    EXPECT_EQ(f.llc.profiler().hitCounters()[0], 1u);
}

TEST(Llc, DirtyEvictionWritesBackToMemory)
{
    Fixture f(norm(), false);
    // Fill one set (4 ways) with dirty lines, then evict.
    // Set index = (addr>>6) & 15; use set 0: block addr multiples of
    // 16 blocks.
    for (std::uint64_t i = 0; i < 4; ++i)
        f.llc.writebackFromUpper(LogicalAddr(i * 16 * kBlockSize));
    EXPECT_EQ(f.llc.stats().writebacksToMem.value(), 0u);
    f.llc.writebackFromUpper(LogicalAddr(4 * 16 * kBlockSize));
    EXPECT_EQ(f.llc.stats().writebacksToMem.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 1u);
}

TEST(Llc, CleanEvictionIsSilent)
{
    Fixture f(norm(), false);
    for (std::uint64_t i = 0; i < 5; ++i)
        f.llc.fillFromMemory(LogicalAddr(i * 16 * kBlockSize));
    EXPECT_EQ(f.llc.stats().cleanEvictions.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Llc, WritebackFromUpperAllocatesOnMiss)
{
    Fixture f(norm(), false);
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x40)));
    EXPECT_EQ(f.llc.array().countDirtyLines(), 1u);
    // A second write back to the same line hits.
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    EXPECT_EQ(f.llc.stats().hits.value(), 1u);
}

TEST(Llc, EagerScanSendsUselessDirtyLine)
{
    Fixture f(beMellow().withSC(), true);
    // Make every position useless: one period of pure misses.
    for (int i = 0; i < 100; ++i)
        f.llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                     false);
    f.eq.run(f.eq.curTick() + 510 * kMicrosecond);
    EXPECT_EQ(f.llc.profiler().uselessFrom(), 0u);

    // Install a dirty line and let the scanner find it.
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    f.eq.run(f.eq.curTick() + 200 * kMicrosecond);
    EXPECT_GE(f.llc.stats().eagerSent.value(), 1u);
    EXPECT_EQ(f.ctrl.stats().acceptedEager.value(),
              f.llc.stats().eagerSent.value());
    // The line stays resident but is now clean.
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x40)));
    EXPECT_EQ(f.llc.array().countDirtyLines(), 0u);
}

TEST(Llc, EagerScanRespectsUselessBoundary)
{
    Fixture f(beMellow().withSC(), true);
    // Build a period where MRU position is useful: hits at pos 0.
    f.llc.writebackFromUpper(LogicalAddr(0x40)); // dirty line, MRU of its set
    for (int i = 0; i < 1000; ++i)
        f.llc.access(LogicalAddr(0x40), false); // keeps hitting at position 0
    f.eq.run(f.eq.curTick() + 510 * kMicrosecond);
    ASSERT_GE(f.llc.profiler().uselessFrom(), 1u);
    // The dirty line sits at MRU (position 0) of its set: not useless,
    // so the scanner must never send it.
    f.eq.run(f.eq.curTick() + 200 * kMicrosecond);
    EXPECT_EQ(f.llc.stats().eagerSent.value(), 0u);
}

TEST(Llc, NoEagerMachineryWhenDisabled)
{
    Fixture f(norm(), false);
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    for (int i = 0; i < 100; ++i)
        f.llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                     false);
    f.eq.run(f.eq.curTick() + kMillisecond);
    EXPECT_EQ(f.llc.stats().eagerSent.value(), 0u);
    EXPECT_EQ(f.llc.stats().eagerScans.value(), 0u);
}

TEST(Llc, WastedEagerWriteDetected)
{
    Fixture f(beMellow().withSC(), true);
    for (int i = 0; i < 100; ++i)
        f.llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                     false);
    f.eq.run(f.eq.curTick() + 510 * kMicrosecond);
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    f.eq.run(f.eq.curTick() + 100 * kMicrosecond);
    ASSERT_GE(f.llc.stats().eagerSent.value(), 1u);
    // Re-dirty the eagerly cleaned line: the eager write was wasted.
    f.llc.writebackFromUpper(LogicalAddr(0x40));
    EXPECT_EQ(f.llc.stats().eagerWasted.value(), 1u);
}

TEST(Llc, PrimeWarmsWithoutStatsOrTraffic)
{
    Fixture f(norm(), false);
    f.llc.prime(LogicalAddr(0x40), true);
    f.llc.prime(LogicalAddr(0x80), false);
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x40)));
    EXPECT_TRUE(f.llc.array().probe(LogicalAddr(0x80)));
    EXPECT_EQ(f.llc.array().countDirtyLines(), 1u);
    EXPECT_EQ(f.llc.stats().demandReads.value(), 0u);
    EXPECT_EQ(f.llc.stats().demandWrites.value(), 0u);
    EXPECT_EQ(f.ctrl.stats().acceptedWritebacks.value(), 0u);
}

TEST(Llc, SamplePeriodsAdvanceOverTime)
{
    Fixture f(norm(), false);
    f.eq.run(f.eq.curTick() + Tick(2.6 * kMillisecond));
    EXPECT_EQ(f.llc.profiler().periods(), 5u);
}

// --- Decay dead-block predictor selector (paper's future work) ------

TEST(LlcDbp, RecentlyTouchedDirtyLineIsNotSent)
{
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 2;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40)); // dirty, stamped period 0
    // Within the same period the line is never a candidate.
    eq.run(eq.curTick() + 400 * kMicrosecond);
    EXPECT_EQ(llc.stats().eagerSent.value(), 0u);
}

TEST(LlcDbp, UntouchedDirtyLineIsSentAfterDecay)
{
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 2;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40));
    // After two full periods of silence the line is predicted dead.
    eq.run(eq.curTick() + Tick(2.5 * kMillisecond));
    EXPECT_GE(llc.stats().eagerSent.value(), 1u);
    EXPECT_TRUE(llc.array().probe(LogicalAddr(0x40)));
    EXPECT_EQ(llc.array().countDirtyLines(), 0u);
}

TEST(LlcDbp, TouchingResetsTheDecayClock)
{
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 2;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40));
    // Keep touching the line each period: never predicted dead.
    for (int period = 0; period < 6; ++period) {
        eq.run(eq.curTick() + 450 * kMicrosecond);
        llc.access(LogicalAddr(0x40), /*isWrite=*/true);
    }
    EXPECT_EQ(llc.stats().eagerSent.value(), 0u);
}

TEST(LlcDbp, IgnoresTheUselessPositionVerdict)
{
    // Even when the profiler says nothing is useless, the decay
    // selector still harvests dead dirty lines.
    EventQueue eq;
    MemoryController ctrl(eq, memConfig(beMellow().withSC()));
    LlcConfig cfg = llcConfig(true);
    cfg.selector = EagerSelector::DecayDeadBlock;
    cfg.deadAfterPeriods = 1;
    Llc llc(eq, cfg, ctrl, 7);

    llc.writebackFromUpper(LogicalAddr(0x40));
    // Uniform hits keep every stack position useful.
    for (unsigned pos = 0; pos < 4; ++pos) {
        for (int i = 0; i < 100; ++i)
            llc.access(LogicalAddr(0x1000 + pos * 16 * kBlockSize), false);
    }
    eq.run(eq.curTick() + Tick(1.6 * kMillisecond));
    EXPECT_GE(llc.stats().eagerSent.value(), 1u);
}

TEST(Llc, EagerScansCountEveryPollInsideARunWindow)
{
    // No dirty line anywhere and an empty eager queue: every poll
    // passes the gate and sends nothing, so polls run batched. The
    // count must still be one per scanInterval tick strictly before
    // each run() stop, whether the stop is on the poll grid or not.
    Fixture f(beMellow().withSC(), true);
    const Tick interval = llcConfig(true).scanInterval;
    auto polls_before = [interval](Tick stop) {
        return (stop - 1) / interval;
    };
    for (Tick stop : {Tick(3 * kNanosecond), Tick(1 * kMicrosecond),
                      Tick(1 * kMicrosecond + 1),
                      Tick(600 * kMicrosecond),
                      Tick(600 * kMicrosecond + 2 * kNanosecond)}) {
        f.eq.run(stop);
        EXPECT_EQ(f.eq.curTick(), stop);
        EXPECT_EQ(f.llc.stats().eagerScans.value(), polls_before(stop))
            << "stop " << stop;
    }
    EXPECT_EQ(f.llc.stats().eagerSent.value(), 0u);
}

namespace
{

/**
 * Memory port that logs gate calls and, on every accepted eager
 * write, schedules a controller-side event one scan interval later.
 */
class OrderLoggingPort : public MemoryPort
{
  public:
    OrderLoggingPort(EventQueue &eq, Tick delay) : _eq(eq), _delay(delay)
    {
    }

    void read(LogicalAddr, ReadCallback) override {}
    void writeback(LogicalAddr) override {}

    bool
    eagerWrite(LogicalAddr) override
    {
        _eq.schedule(_eq.curTick() + _delay,
                     [this] { log.emplace_back('c', _eq.curTick()); });
        return true;
    }

    [[nodiscard]] bool
    eagerQueueHasSpace() const override
    {
        log.emplace_back('g', _eq.curTick());
        return true;
    }

    mutable std::vector<std::pair<char, Tick>> log;

  private:
    EventQueue &_eq;
    Tick _delay;
};

} // namespace

TEST(Llc, EagerScanSchedulesItsSuccessorBeforeTheWrite)
{
    // The poll that sends schedules the next poll first, so a
    // controller event the write schedules for that same tick fires
    // after the next poll's gate call, never before it.
    EventQueue eq;
    const LlcConfig cfg = llcConfig(true);
    OrderLoggingPort port(eq, cfg.scanInterval);
    Llc llc(eq, cfg, port, 7);
    for (int i = 0; i < 100; ++i)
        llc.access(LogicalAddr(static_cast<Addr>(i + 1000) * kBlockSize),
                   false);
    eq.run(eq.curTick() + 510 * kMicrosecond);
    ASSERT_EQ(llc.profiler().uselessFrom(), 0u);

    llc.writebackFromUpper(LogicalAddr(0x40));
    eq.run(eq.curTick() + 10 * kMicrosecond);
    ASSERT_EQ(llc.stats().eagerSent.value(), 1u);
    auto ctrl = std::find_if(port.log.begin(), port.log.end(),
                             [](const auto &e) { return e.first == 'c'; });
    ASSERT_NE(ctrl, port.log.end());
    ASSERT_NE(ctrl, port.log.begin());
    EXPECT_EQ(*std::prev(ctrl), std::make_pair('g', ctrl->second));
}

namespace
{

/**
 * Memory port whose eager-queue gate is a flag. It logs every eager
 * write, refuses every fifth, and answers each with a same-tick
 * controller-side event, as the real controller's pass would be.
 */
class GatePort : public MemoryPort
{
  public:
    explicit GatePort(EventQueue &eq) : _eq(eq) {}

    void read(LogicalAddr, ReadCallback) override {}
    void writeback(LogicalAddr) override {}

    bool
    eagerWrite(LogicalAddr addr) override
    {
        sent.emplace_back(addr, _eq.curTick());
        _eq.schedule(_eq.curTick(), [] {});
        return sent.size() % 5 != 0;
    }

    [[nodiscard]] bool
    eagerQueueHasSpace() const override
    {
        return open;
    }

    bool open = true;
    std::vector<std::pair<LogicalAddr, Tick>> sent;

  private:
    EventQueue &_eq;
};

/**
 * One LLC under scripted traffic, its scan timer running either the
 * batch or the per-poll reference. The script depends only on a
 * fixed seed, so two scenarios draw identical event sequences. Over
 * 20-us profiling periods it alternates a hot phase (blocks that fit
 * the cache, hits at every stack position: nothing useless) with a
 * cold one (mostly misses); it toggles the gate and schedules events
 * on a poll tick and one tick after it. The dispatcher then ahead of
 * every seventh scan schedules an event and cancels it, which leaves a
 * cancelled entry as the heap top (the kernel pops cancelled tops only
 * when it picks the next event).
 */
struct ScanScenario
{
    static constexpr Tick kPeriod = 20 * kMicrosecond;
    static constexpr Tick kEnd = 12 * kPeriod;

    EventQueue eq;
    GatePort port{eq};
    Llc llc;
    bool batched;
    unsigned scans = 0;
    std::set<Tick> cancelledTicks;
    // Batches by the case they exercise (batched scenario only).
    unsigned gateClosed = 0;
    unsigned nothingUseless = 0;
    unsigned cutNextTick = 0;
    unsigned cutByCancelled = 0;

    static LlcConfig
    config(EagerSelector selector)
    {
        LlcConfig c = llcConfig(true);
        c.profiler.samplePeriod = kPeriod;
        c.selector = selector;
        c.deadAfterPeriods = 1;
        return c;
    }

    ScanScenario(EagerSelector selector, bool batch)
        : llc(eq, config(selector), port, 7), batched(batch)
    {
        LlcScanProbe::install(llc, [this] { scan(); });

        const Tick interval = llc.config().scanInterval;
        Rng script(99);
        for (int i = 0; i < 2400; ++i) {
            const Tick when = script.nextBounded(kEnd);
            const bool hot = (when / kPeriod) % 2 == 0;
            const std::uint64_t block =
                script.nextBounded(hot ? 64 : 1024);
            const LogicalAddr addr(block * kBlockSize);
            switch (script.nextBounded(8)) {
              case 0:
                eq.schedule(when, [this] { port.open = !port.open; });
                break;
              case 1: {
                const Tick grid = when - when % interval;
                eq.schedule(grid, [] {});
                eq.schedule(grid + 1, [] {});
                break;
              }
              case 2:
              case 3:
                eq.schedule(when,
                            [this, addr] { llc.writebackFromUpper(addr); });
                break;
              default:
                eq.schedule(when, [this, addr, block] {
                    llc.access(addr, block % 3 == 0);
                    llc.fillFromMemory(addr);
                });
                break;
            }
        }
    }

    void
    scan()
    {
        if (++scans % 7 == 0) {
            const Tick dead = eq.curTick() + 1 + scans % 40;
            eq.deschedule(eq.schedule(dead, [] {}));
            cancelledTicks.insert(dead);
        }
        if (batched) {
            noteBatch();
            LlcScanProbe::batch(llc);
        } else {
            LlcScanProbe::reference(llc);
        }
    }

    void
    noteBatch()
    {
        const Tick start = eq.curTick();
        const Tick limit = eq.advanceLimit();
        if (!port.open) {
            ++gateClosed;
        } else if (llc.config().selector == EagerSelector::UselessLru &&
                   llc.profiler().uselessFrom() >= llc.array().assoc()) {
            ++nothingUseless;
        }
        cutNextTick += limit == start + 1;
        cutByCancelled += cancelledTicks.count(limit) != 0;
    }
};

void
expectSameScan(const ScanScenario &batch, const ScanScenario &ref)
{
    ASSERT_EQ(batch.eq.curTick(), ref.eq.curTick());
    ASSERT_EQ(batch.llc.stats().eagerScans.value(),
              ref.llc.stats().eagerScans.value());
    ASSERT_EQ(batch.llc.stats().eagerSent.value(),
              ref.llc.stats().eagerSent.value());
    ASSERT_EQ(LlcScanProbe::rngState(batch.llc),
              LlcScanProbe::rngState(ref.llc));
    ASSERT_EQ(LlcScanProbe::successor(batch.llc),
              LlcScanProbe::successor(ref.llc));
    ASSERT_EQ(batch.port.sent, ref.port.sent);
}

} // namespace

TEST(Llc, ScanBatchMatchesPerPollReference)
{
    // The batch against one poll per tryAdvance(), compared after
    // every step() and every run() window: same tick, RNG state,
    // eagerScans, sent candidates and armed successor.
    for (EagerSelector selector :
         {EagerSelector::UselessLru, EagerSelector::DecayDeadBlock}) {
        SCOPED_TRACE(selector == EagerSelector::UselessLru ? "UselessLru"
                                                           : "DecayDeadBlock");
        ScanScenario batch(selector, true);
        ScanScenario ref(selector, false);
        for (unsigned round = 0; batch.eq.curTick() < ScanScenario::kEnd;
             ++round) {
            if (round % 50 == 49) {
                // A horizon off the poll grid.
                const Tick stop = batch.eq.curTick() + 997;
                batch.eq.run(stop);
                ref.eq.run(stop);
            } else {
                ASSERT_TRUE(batch.eq.step());
                ASSERT_TRUE(ref.eq.step());
            }
            ASSERT_NO_FATAL_FAILURE(expectSameScan(batch, ref))
                << "round " << round;
        }
        EXPECT_GT(batch.llc.stats().eagerSent.value(), 20u);
        EXPECT_GT(batch.gateClosed, 0u);
        EXPECT_GT(batch.cutNextTick, 0u);
        EXPECT_GT(batch.cutByCancelled, 0u);
        if (selector == EagerSelector::UselessLru) {
            EXPECT_GT(batch.nothingUseless, 0u);
        }
    }
}
