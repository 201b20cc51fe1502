/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

using namespace mellowsim;

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.curTick(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.curTick(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, SchedulingIntoThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(5, [] {}), PanicError);
}

TEST(EventQueue, ScheduleAtCurrentTickAllowed)
{
    EventQueue eq;
    bool ran = false;
    eq.schedule(10, [&] { eq.schedule(10, [&] { ran = true; }); });
    eq.run();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, DescheduleCancelsEvent)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(eq.scheduled(id));
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.scheduled(id));
    eq.run();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, DescheduleTwiceReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(id));
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, DescheduleAfterFireReturnsFalse)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.run();
    EXPECT_FALSE(eq.deschedule(id));
}

TEST(EventQueue, RunStopsBeforeStopAt)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(20, [&] { ++fired; });
    eq.schedule(30, [&] { ++fired; });
    std::uint64_t executed = eq.run(20);
    EXPECT_EQ(executed, 1u);
    EXPECT_EQ(fired, 1);
    // Events exactly at stopAt are not executed.
    EXPECT_EQ(eq.curTick(), 20u);
    eq.run();
    EXPECT_EQ(fired, 3);
}

TEST(EventQueue, RunOnEmptyQueueAdvancesToStopAt)
{
    EventQueue eq;
    eq.run(100);
    EXPECT_EQ(eq.curTick(), 100u);
}

TEST(EventQueue, StepExecutesExactlyOne)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            eq.scheduleIn(1, chain);
    };
    eq.schedule(0, chain);
    eq.run();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(eq.curTick(), 99u);
}

TEST(EventQueue, NumPendingTracksCancellations)
{
    EventQueue eq;
    EventId a = eq.schedule(5, [] {});
    eq.schedule(6, [] {});
    EXPECT_EQ(eq.numPending(), 2u);
    eq.deschedule(a);
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue eq;
    Tick last = 0;
    bool monotone = true;
    for (int i = 0; i < 10000; ++i) {
        Tick when = static_cast<Tick>((i * 7919) % 1000);
        eq.schedule(when, [&, when] {
            monotone = monotone && when >= last;
            last = when;
        });
    }
    eq.run();
    EXPECT_TRUE(monotone);
}

TEST(EventQueue, ScheduleInUsesCurrentTick)
{
    EventQueue eq;
    Tick observed = 0;
    eq.schedule(40, [&] {
        eq.scheduleIn(5, [&] { observed = eq.curTick(); });
    });
    eq.run();
    EXPECT_EQ(observed, 45u);
}

TEST(EventQueue, StaleHandleAfterSlotReuseIsInert)
{
    EventQueue eq;
    // Cancel an event, then schedule another: the pool hands the
    // freed slot back, but the stale handle must neither report
    // scheduled nor cancel the new occupant.
    bool ranNew = false;
    EventHandle stale = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(stale));
    EventHandle fresh = eq.schedule(20, [&] { ranNew = true; });
    EXPECT_FALSE(eq.scheduled(stale));
    EXPECT_TRUE(eq.scheduled(fresh));
    EXPECT_FALSE(eq.deschedule(stale));
    EXPECT_TRUE(eq.scheduled(fresh));
    eq.run();
    EXPECT_TRUE(ranNew);
}

TEST(EventQueue, HandleFromFiredSlotIsInert)
{
    EventQueue eq;
    EventHandle fired = eq.schedule(10, [] {});
    eq.run();
    bool ranNew = false;
    EventHandle fresh = eq.schedule(20, [&] { ranNew = true; });
    EXPECT_FALSE(eq.scheduled(fired));
    EXPECT_FALSE(eq.deschedule(fired));
    EXPECT_TRUE(eq.scheduled(fresh));
    eq.run();
    EXPECT_TRUE(ranNew);
}

TEST(EventQueue, DefaultHandleIsInvalid)
{
    EventQueue eq;
    EventHandle h;
    EXPECT_FALSE(h.valid());
    EXPECT_EQ(h, InvalidEventHandle);
    EXPECT_FALSE(eq.scheduled(h));
    EXPECT_FALSE(eq.deschedule(h));
    EventHandle bound = eq.schedule(1, [] {});
    EXPECT_TRUE(bound.valid());
    EXPECT_NE(bound, InvalidEventHandle);
}

TEST(EventQueue, SlotReuseUnderChurnKeepsHandlesDistinct)
{
    EventQueue eq;
    // Burn through the same few slots thousands of times; every old
    // handle must stay dead and every live one must fire exactly
    // once.
    int fired = 0;
    std::vector<EventHandle> dead;
    for (int round = 0; round < 2000; ++round) {
        EventHandle cancelled = eq.schedule(10 + round, [] {});
        eq.schedule(10 + round, [&] { ++fired; });
        EXPECT_TRUE(eq.deschedule(cancelled));
        dead.push_back(cancelled);
    }
    for (const EventHandle &h : dead)
        EXPECT_FALSE(eq.scheduled(h));
    eq.run();
    EXPECT_EQ(fired, 2000);
    for (const EventHandle &h : dead)
        EXPECT_FALSE(eq.deschedule(h));
}

TEST(EventQueue, CompactionPreservesSurvivorOrder)
{
    EventQueue eq;
    // Cancel far more than half the backlog to force heap
    // compaction, then check the survivors still fire in (when,
    // schedule-order) sequence.
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 4096; ++i) {
        Tick when = static_cast<Tick>(1 + (i * 2654435761u) % 977);
        handles.push_back(eq.schedule(when, [&order, i] {
            order.push_back(i);
        }));
    }
    std::vector<std::pair<Tick, int>> expect;
    for (int i = 0; i < 4096; ++i) {
        if (i % 8 != 0) {
            EXPECT_TRUE(eq.deschedule(handles[i]));
        } else {
            expect.emplace_back(
                static_cast<Tick>(1 + (i * 2654435761u) % 977), i);
        }
    }
    std::stable_sort(expect.begin(), expect.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    eq.run();
    ASSERT_EQ(order.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i)
        EXPECT_EQ(order[i], expect[i].second);
}

TEST(EventQueue, StressAgainstMultimapReference)
{
    // Randomized schedule/cancel rounds checked against a
    // std::multimap reference model: multimap keeps equal keys in
    // insertion order, exactly the kernel's same-tick FIFO contract.
    EventQueue eq;
    std::multimap<Tick, int> ref;
    std::vector<int> firedOrder;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    int token = 0;
    for (int round = 0; round < 40; ++round) {
        std::vector<std::pair<EventHandle, std::multimap<Tick, int>::iterator>>
            live;
        unsigned batch = 50 + next() % 200;
        for (unsigned i = 0; i < batch; ++i) {
            Tick when = eq.curTick() + 1 + next() % 50;
            int id = token++;
            EventHandle h = eq.schedule(when, [&firedOrder, id] {
                firedOrder.push_back(id);
            });
            live.emplace_back(h, ref.emplace(when, id));
        }
        // Cancel a random ~third of this round's batch.
        for (auto &[handle, it] : live) {
            if (next() % 3 == 0) {
                EXPECT_TRUE(eq.deschedule(handle));
                ref.erase(it);
            }
        }
        // Drain up to (not including) a random stop tick.
        Tick stop = eq.curTick() + 1 + next() % 40;
        eq.run(stop);
        std::vector<int> expect;
        while (!ref.empty() && ref.begin()->first < stop) {
            expect.push_back(ref.begin()->second);
            ref.erase(ref.begin());
        }
        ASSERT_EQ(firedOrder, expect) << "round " << round;
        firedOrder.clear();
    }
    eq.run();
    std::vector<int> expect;
    for (const auto &[when, id] : ref)
        expect.push_back(id);
    EXPECT_EQ(firedOrder, expect);
    EXPECT_EQ(eq.numPending(), 0u);
}

// --- tryAdvance: inline time advance for periodic pollers ------------

TEST(EventQueue, TryAdvanceRefusesOutsideStepOrRun)
{
    EventQueue eq;
    EXPECT_FALSE(eq.tryAdvance(10));
    EXPECT_EQ(eq.curTick(), 0u);
}

TEST(EventQueue, TryAdvanceRefusesAtOrPastAPendingEntry)
{
    EventQueue eq;
    std::vector<bool> got;
    eq.schedule(10, [] {});
    eq.schedule(0, [&] {
        got.push_back(eq.tryAdvance(10)); // live entry at 10
        got.push_back(eq.tryAdvance(11)); // ... and past it
        got.push_back(eq.tryAdvance(9));
        got.push_back(eq.curTick() == 9);
    });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(got, (std::vector<bool>{false, false, true, true}));
}

TEST(EventQueue, TryAdvanceRefusesAtACancelledEntry)
{
    EventQueue eq;
    std::vector<bool> got;
    EventHandle h = eq.schedule(10, [] {});
    EXPECT_TRUE(eq.deschedule(h)); // stays in the heap, lazily
    ASSERT_EQ(eq.rawHeapSize(), 1u);
    eq.schedule(0, [&] {
        got.push_back(eq.tryAdvance(10));
        got.push_back(eq.tryAdvance(9));
    });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(got, (std::vector<bool>{false, true}));
}

TEST(EventQueue, TryAdvanceStopsBelowTheRunHorizon)
{
    EventQueue eq;
    std::vector<bool> got;
    eq.schedule(5, [&] {
        got.push_back(eq.tryAdvance(30));
        got.push_back(eq.tryAdvance(29));
    });
    EXPECT_EQ(eq.run(30), 1u);
    EXPECT_EQ(got, (std::vector<bool>{false, true}));
    EXPECT_EQ(eq.curTick(), 30u);
    EXPECT_FALSE(eq.tryAdvance(31));
}

TEST(EventQueue, TryAdvanceNeverMovesTimeBackwards)
{
    EventQueue eq;
    std::vector<bool> got;
    eq.schedule(5, [&] {
        got.push_back(eq.tryAdvance(3));
        got.push_back(eq.curTick() == 5);
        got.push_back(eq.tryAdvance(5)); // standing still is allowed
    });
    eq.run();
    EXPECT_EQ(got, (std::vector<bool>{false, true, true}));
}

namespace
{

/**
 * Random events plus a self-re-arming timer. Every fire walks
 * tryAdvance() up from the current tick, one tick at a time, and
 * checks each answer against advanceLimit() read before the walk.
 * Every third fire first schedules an event and cancels it: the
 * kernel drops cancelled entries only when it picks the next event,
 * so that entry can be the heap top during the walk.
 */
class AdvanceLimitWalk
{
  public:
    AdvanceLimitWalk()
    {
        std::mt19937_64 gen(2024);
        _timer = _eq.addTimer([this] {
            walk();
            _eq.arm(_timer, _eq.curTick() + 1 + _eq.curTick() % 37);
        });
        _eq.arm(_timer, 3);
        for (int i = 0; i < 400; ++i)
            _eq.schedule(gen() % 6000, [this] { walk(); });
    }

    EventQueue &eq() { return _eq; }
    std::uint64_t advanced() const { return _advanced; }
    std::uint64_t refused() const { return _refused; }
    std::uint64_t cutByCancelled() const { return _cutByCancelled; }

  private:
    void
    walk()
    {
        Tick dead = MaxTick;
        if (++_fires % 3 == 0) {
            dead = _eq.curTick() + 1 + _fires % 29;
            _eq.deschedule(_eq.schedule(dead, [] {}));
        }
        const Tick limit = _eq.advanceLimit();
        _cutByCancelled += limit == dead;
        const Tick from = _eq.curTick();
        for (Tick when = from; when < from + 48; ++when) {
            const bool ok = _eq.tryAdvance(when);
            EXPECT_EQ(ok, when < limit)
                << "from " << from << " when " << when << " limit "
                << limit;
            ++(ok ? _advanced : _refused);
        }
    }

    EventQueue _eq;
    TimerHandle _timer;
    std::uint64_t _fires = 0;
    std::uint64_t _advanced = 0;
    std::uint64_t _refused = 0;
    std::uint64_t _cutByCancelled = 0;
};

} // namespace

TEST(EventQueue, AdvanceLimitAgreesWithTryAdvance)
{
    EventQueue idle;
    EXPECT_EQ(idle.advanceLimit(), 0u); // outside step()/run()

    // Under run(stopAt) windows, whose horizon bounds the limit, on
    // and off the timer's ticks; then under bare step() calls.
    AdvanceLimitWalk w;
    for (Tick stop : {Tick(17), Tick(400), Tick(401), Tick(1234),
                      Tick(3000)})
        w.eq().run(stop);
    EXPECT_EQ(w.eq().advanceLimit(), 0u);
    for (int i = 0; i < 500; ++i)
        ASSERT_TRUE(w.eq().step());
    EXPECT_GT(w.advanced(), 1000u);
    EXPECT_GT(w.refused(), 1000u);
    EXPECT_GT(w.cutByCancelled(), 10u);
}

namespace
{

/**
 * A periodic poller mixed with unrelated events, run either as one
 * event per poll (the reference) or batched through tryAdvance().
 * Every fire is logged as (id, tick); polls log id -1. Some polls
 * "send": like the LLC's eager scanner they schedule their successor
 * first and then a same-tick event. The other events spawn follow-ups
 * at deltas that land on and off the poll grid, including delta 0.
 */
class PollChain
{
  public:
    static constexpr Tick kPeriod = 4;
    static constexpr Tick kEnd = 4000;

    explicit PollChain(bool batched) : _batched(batched)
    {
        for (int i = 0; i < 150; ++i) {
            Tick when = mix(static_cast<std::uint64_t>(i)) % kEnd;
            if (i % 3 == 0)
                when -= when % kPeriod; // on the grid
            spawn(when, 2);
        }
        _eq.schedule(kPeriod, [this] { onPoll(); });
    }

    EventQueue &eq() { return _eq; }
    const std::vector<std::pair<int, Tick>> &log() const { return _log; }

  private:
    static std::uint64_t
    mix(std::uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    void
    spawn(Tick when, int depth)
    {
        const int id = _nextId++;
        _eq.schedule(when, [this, id, depth] {
            _log.emplace_back(id, _eq.curTick());
            if (depth == 0)
                return;
            static constexpr Tick kDeltas[] = {0, 1, 3, 4, 8, 13};
            const std::uint64_t h = mix(static_cast<std::uint64_t>(id));
            for (std::uint64_t k = 0; k < h % 3; ++k)
                spawn(_eq.curTick() + kDeltas[(h >> (8 * k)) % 6],
                      depth - 1);
        });
    }

    void
    onPoll()
    {
        for (;;) {
            _log.emplace_back(-1, _eq.curTick());
            const Tick next = _eq.curTick() + kPeriod;
            const bool sends =
                mix(static_cast<std::uint64_t>(_polls++) + 7777) % 5 == 0;
            if (next >= kEnd)
                return;
            if (sends) {
                _eq.schedule(next, [this] { onPoll(); });
                spawn(_eq.curTick(), 0);
                return;
            }
            if (!_batched || !_eq.tryAdvance(next)) {
                _eq.schedule(next, [this] { onPoll(); });
                return;
            }
        }
    }

    EventQueue _eq;
    bool _batched;
    int _nextId = 0;
    std::uint64_t _polls = 0;
    std::vector<std::pair<int, Tick>> _log;
};

} // namespace

TEST(EventQueue, BatchedPollChainKeepsTheGlobalFireOrder)
{
    PollChain reference(false);
    reference.eq().run();

    // Batched under run(stopAt) windows that end on and off the grid.
    PollChain windows(true);
    for (Tick stop : {Tick(17), Tick(400), Tick(401), Tick(1234),
                      Tick(2000), Tick(3999)})
        windows.eq().run(stop);
    windows.eq().run();
    EXPECT_EQ(windows.log(), reference.log());

    // Batched under bare step() calls.
    PollChain steps(true);
    while (steps.eq().step()) {
    }
    EXPECT_EQ(steps.log(), reference.log());
    EXPECT_GT(reference.log().size(), 1000u);
}

// --- Timers: re-armable singletons outside the event heap ------------

TEST(EventQueue, TimerFiresAtItsArmedTick)
{
    EventQueue eq;
    std::vector<Tick> fired;
    TimerHandle t = eq.addTimer([&] { fired.push_back(eq.curTick()); });
    EXPECT_TRUE(t.valid());
    EXPECT_FALSE(TimerHandle{}.valid());
    EXPECT_FALSE(eq.armed(t));
    EXPECT_EQ(eq.armedAt(t), MaxTick);
    EXPECT_TRUE(eq.empty());

    eq.arm(t, 40);
    EXPECT_TRUE(eq.armed(t));
    EXPECT_EQ(eq.armedAt(t), 40u);
    EXPECT_EQ(eq.numPending(), 1u);
    EXPECT_EQ(eq.numArmedTimers(), 1u);
    EXPECT_EQ(eq.rawHeapSize(), 0u);
    EXPECT_FALSE(eq.empty());
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(fired, (std::vector<Tick>{40}));
    EXPECT_FALSE(eq.armed(t));
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.step());
}

TEST(EventQueue, ReArmingReplacesThePendingInstance)
{
    EventQueue eq;
    std::vector<Tick> fired;
    TimerHandle t = eq.addTimer([&] { fired.push_back(eq.curTick()); });
    eq.arm(t, 50);
    eq.arm(t, 20); // earlier
    eq.arm(t, 70); // later
    EXPECT_EQ(eq.numPending(), 1u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{70}));

    eq.arm(t, 80);
    EXPECT_TRUE(eq.disarm(t));
    EXPECT_FALSE(eq.disarm(t));
    EXPECT_TRUE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{70}));
}

TEST(EventQueue, TimerMayReArmItselfWhileRunning)
{
    EventQueue eq;
    std::vector<Tick> fired;
    TimerHandle t;
    t = eq.addTimer([&] {
        fired.push_back(eq.curTick());
        EXPECT_FALSE(eq.armed(t)); // disarmed before it runs
        if (fired.size() < 3)
            eq.arm(t, eq.curTick() + 5);
    });
    eq.arm(t, 1);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Tick>{1, 6, 11}));
}

TEST(EventQueue, ArmingIntoThePastPanics)
{
    EventQueue eq;
    TimerHandle t = eq.addTimer([] {});
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.arm(t, 50), PanicError);
    EXPECT_FALSE(eq.armed(t));
    EXPECT_THROW((void)eq.armed(TimerHandle{}), PanicError);
}

TEST(EventQueue, TimersAndEventsShareSameTickScheduleOrder)
{
    // Same tick: whichever was scheduled or armed first fires first,
    // and re-arming moves a timer behind everything scheduled before.
    EventQueue eq;
    std::vector<char> order;
    TimerHandle t = eq.addTimer([&] { order.push_back('T'); });
    eq.schedule(10, [&] { order.push_back('a'); });
    eq.arm(t, 10);
    eq.schedule(10, [&] { order.push_back('b'); });
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'a', 'T', 'b'}));

    order.clear();
    eq.arm(t, 20);
    eq.schedule(20, [&] { order.push_back('c'); });
    eq.arm(t, 20); // re-armed: a fresh sequence number
    eq.run();
    EXPECT_EQ(order, (std::vector<char>{'c', 'T'}));
}

TEST(EventQueue, MinPendingTickAndNumPendingCountTimers)
{
    EventQueue eq;
    TimerHandle a = eq.addTimer([] {});
    TimerHandle b = eq.addTimer([] {});
    EXPECT_EQ(eq.minPendingTick(), MaxTick);
    eq.schedule(30, [] {});
    eq.arm(a, 50);
    EXPECT_EQ(eq.minPendingTick(), 30u);
    eq.arm(b, 20);
    EXPECT_EQ(eq.minPendingTick(), 20u);
    EXPECT_EQ(eq.numPending(), 3u);
    EXPECT_EQ(eq.rawHeapSize(), 1u);
    eq.disarm(b);
    EXPECT_EQ(eq.minPendingTick(), 30u);
    EXPECT_EQ(eq.numPending(), 2u);
    eq.run();
    EXPECT_EQ(eq.curTick(), 50u);
    EXPECT_EQ(eq.numPending(), 0u);
}

TEST(EventQueue, TryAdvanceRefusesAtAnArmedTimer)
{
    EventQueue eq;
    std::vector<bool> got;
    TimerHandle t = eq.addTimer([] {});
    eq.arm(t, 10);
    eq.schedule(0, [&] {
        got.push_back(eq.tryAdvance(10)); // armed timer at 10
        got.push_back(eq.tryAdvance(12)); // ... and past it
        got.push_back(eq.tryAdvance(9));
    });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(got, (std::vector<bool>{false, false, true}));

    // A disarmed timer leaves nothing behind to refuse at.
    got.clear();
    eq.disarm(t);
    eq.schedule(eq.curTick(), [&] { got.push_back(eq.tryAdvance(20)); });
    ASSERT_TRUE(eq.step());
    EXPECT_EQ(got, (std::vector<bool>{true}));
}

namespace
{

/**
 * Self-rescheduling actors mixed with one-shot events, each actor
 * either a timer or the plain-event pattern a timer replaces:
 * deschedule the pending instance, schedule a new one. Every random
 * draw happens at the same point in both, so they must fire the same
 * (tick, id) sequence if timers keep the (when, seq) order. Deltas
 * 0..15 put many items on one tick.
 */
class TimerCrossCheck
{
  public:
    static constexpr unsigned kActors = 9;

    TimerCrossCheck(bool timers, std::uint64_t seed)
        : _timers(timers), _rng(seed)
    {
        for (unsigned a = 0; a < kActors; ++a) {
            if (_timers)
                _timer.push_back(_eq.addTimer([this, a] { fired(a); }));
            else
                _actorEvent.emplace_back();
        }
    }

    EventQueue &eq() { return _eq; }
    const std::vector<std::pair<Tick, int>> &log() const { return _log; }

    /** Apply @p n random operations at the current tick. */
    void
    randomOps(unsigned n)
    {
        for (unsigned i = 0; i < n; ++i) {
            const Tick when = _eq.curTick() + _rng() % 16;
            switch (_rng() % 6) {
            case 0: {
                const int id = _nextId++;
                _oneShots.push_back(_eq.schedule(when, [this, id] {
                    fired(kActors + static_cast<unsigned>(id));
                }));
                break;
            }
            case 1:
                if (!_oneShots.empty())
                    _eq.deschedule(_oneShots[_rng() % _oneShots.size()]);
                break;
            case 2:
            case 3:
            case 4:
                arm(static_cast<unsigned>(_rng() % kActors), when);
                break;
            default:
                disarm(static_cast<unsigned>(_rng() % kActors));
                break;
            }
        }
        _pending.push_back(_eq.numPending());
    }

    const std::vector<std::size_t> &pending() const { return _pending; }

  private:
    void
    fired(unsigned id)
    {
        _log.emplace_back(_eq.curTick(), static_cast<int>(id));
        randomOps(static_cast<unsigned>(_rng() % 3));
    }

    void
    arm(unsigned a, Tick when)
    {
        if (_timers) {
            _eq.arm(_timer[a], when);
        } else {
            _eq.deschedule(_actorEvent[a]);
            _actorEvent[a] = _eq.schedule(when, [this, a] { fired(a); });
        }
    }

    void
    disarm(unsigned a)
    {
        if (_timers)
            _eq.disarm(_timer[a]);
        else
            _eq.deschedule(_actorEvent[a]);
    }

    EventQueue _eq;
    bool _timers;
    std::mt19937_64 _rng;
    std::vector<TimerHandle> _timer;
    std::vector<EventHandle> _actorEvent;
    std::vector<EventHandle> _oneShots;
    int _nextId = 0;
    std::vector<std::pair<Tick, int>> _log;
    std::vector<std::size_t> _pending;
};

} // namespace

TEST(EventQueue, TimersFireExactlyLikeReschedulingEvents)
{
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        // Under step().
        TimerCrossCheck ev(false, seed), tm(true, seed);
        for (auto *h : {&ev, &tm}) {
            for (int round = 0; round < 3000; ++round) {
                h->randomOps(2);
                h->eq().step();
            }
        }
        ASSERT_EQ(tm.log(), ev.log()) << "seed " << seed;
        ASSERT_EQ(tm.pending(), ev.pending()) << "seed " << seed;
        EXPECT_GT(ev.log().size(), 2900u);
        const auto actor_fires = std::count_if(
            tm.log().begin(), tm.log().end(), [](const auto &e) {
                return e.second < static_cast<int>(TimerCrossCheck::kActors);
            });
        EXPECT_GT(actor_fires, 1000);

        // Under run(stopAt) windows that end on and between ticks.
        TimerCrossCheck evw(false, seed), tmw(true, seed);
        for (auto *h : {&evw, &tmw}) {
            for (int round = 0; round < 1500; ++round) {
                h->randomOps(3);
                h->eq().run(h->eq().curTick() + 1 + round % 23);
            }
        }
        ASSERT_EQ(tmw.log(), evw.log()) << "seed " << seed;
        ASSERT_EQ(tmw.pending(), evw.pending()) << "seed " << seed;
        EXPECT_EQ(tmw.eq().curTick(), evw.eq().curTick());
    }
}
