/**
 * @file
 * Measurement seams wrapped around the library from outside: a
 * timing/counting Workload decorator, a timing/counting MemoryPort
 * shim, and a bounded in-memory span log. Nothing here changes what
 * the wrapped object computes; every call is forwarded unchanged.
 */

#ifndef PERFBENCH_PROBES_HH
#define PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

#include "nvm/memory_port.hh"
#include "workload/workload.hh"

namespace perfbench
{

/** Host monotonic time in nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** One recorded interval, in host nanoseconds. */
struct Span
{
    const char *name = "";
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Index of the enclosing span in the same log; -1 for a root. */
    int parent = -1;
};

/**
 * Spans of one configuration, kept in memory and written out when the
 * benchmark ends. Capacity is reserved up front so that recording
 * never allocates while the model runs; spans beyond it are dropped
 * and counted.
 */
class SpanLog
{
  public:
    static constexpr std::size_t kCapacity = 4096;
    /** Every kStride-th call across a boundary is kept as a span. */
    static constexpr std::uint64_t kStride = 1u << 12;

    SpanLog() { _spans.reserve(kCapacity); }

    int
    add(const char *name, std::uint64_t startNs, std::uint64_t endNs,
        int parent)
    {
        if (_spans.size() == kCapacity) {
            ++_dropped;
            return -1;
        }
        _spans.push_back(Span{name, startNs, endNs, parent});
        return static_cast<int>(_spans.size()) - 1;
    }

    /** Parent of the per-call spans recorded from now on. */
    void setPhase(int phase) { _phase = phase; }

    void
    sampleCall(const char *name, std::uint64_t calls,
               std::uint64_t startNs, std::uint64_t endNs)
    {
        if (calls % kStride == 0)
            add(name, startNs, endNs, _phase);
    }

    [[nodiscard]] const std::vector<Span> &spans() const { return _spans; }
    [[nodiscard]] std::vector<Span> &spans() { return _spans; }
    [[nodiscard]] std::uint64_t dropped() const { return _dropped; }

  private:
    std::vector<Span> _spans;
    std::uint64_t _dropped = 0;
    int _phase = -1;
};

/** Calls across one boundary and the host time spent inside them. */
struct Probe
{
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

inline Probe
operator-(const Probe &a, const Probe &b)
{
    return Probe{a.calls - b.calls, a.ns - b.ns};
}

/** Times and counts a call to @p fn as one crossing of @p probe. */
template <typename F>
auto
timedCall(Probe &probe, SpanLog &log, const char *name, F &&fn)
{
    std::uint64_t t0 = nowNs();
    auto result = fn();
    std::uint64_t t1 = nowNs();
    ++probe.calls;
    probe.ns += t1 - t0;
    log.sampleCall(name, probe.calls, t0, t1);
    return result;
}

/** Workload decorator: forwards next()/info(), timing each next(). */
class TimedWorkload final : public mellowsim::Workload
{
  public:
    TimedWorkload(mellowsim::WorkloadPtr inner, SpanLog &log)
        : _inner(std::move(inner)), _log(log)
    {
    }

    mellowsim::Op
    next() override
    {
        return timedCall(_next, _log, "workload.next",
                         [&] { return _inner->next(); });
    }

    const mellowsim::WorkloadInfo &
    info() const override
    {
        return _inner->info();
    }

    [[nodiscard]] const Probe &nextProbe() const { return _next; }

  private:
    mellowsim::WorkloadPtr _inner;
    SpanLog &_log;
    Probe _next;
};

/**
 * MemoryPort shim between the cache hierarchy and the memory system:
 * forwards every call, timing and counting it per kind.
 */
class PortShim final : public mellowsim::MemoryPort
{
  public:
    struct Counts
    {
        Probe read;
        Probe writeback;
        Probe eagerWrite;
        /** eagerQueueHasSpace(): one per LLC eager-scan poll. */
        Probe poll;
        std::uint64_t pollPassed = 0;
        std::uint64_t eagerAccepted = 0;
    };

    PortShim(mellowsim::MemoryPort &inner, SpanLog &log)
        : _inner(inner), _log(log)
    {
    }

    void
    read(mellowsim::LogicalAddr addr,
         mellowsim::ReadCallback onComplete) override
    {
        timedCall(_c.read, _log, "port.read", [&] {
            _inner.read(addr, std::move(onComplete));
            return 0;
        });
    }

    void
    writeback(mellowsim::LogicalAddr addr) override
    {
        timedCall(_c.writeback, _log, "port.writeback", [&] {
            _inner.writeback(addr);
            return 0;
        });
    }

    bool
    eagerWrite(mellowsim::LogicalAddr addr) override
    {
        bool ok = timedCall(_c.eagerWrite, _log, "port.eagerWrite",
                            [&] { return _inner.eagerWrite(addr); });
        _c.eagerAccepted += ok ? 1 : 0;
        return ok;
    }

    [[nodiscard]] bool
    eagerQueueHasSpace() const override
    {
        bool ok = timedCall(_c.poll, _log, "port.eagerQueueHasSpace",
                            [&] { return _inner.eagerQueueHasSpace(); });
        _c.pollPassed += ok ? 1 : 0;
        return ok;
    }

    [[nodiscard]] const Counts &counts() const { return _c; }

    /** Host time inside every forwarded call. */
    [[nodiscard]] std::uint64_t
    totalNs() const
    {
        return _c.read.ns + _c.writeback.ns + _c.eagerWrite.ns +
               _c.poll.ns;
    }

  private:
    mellowsim::MemoryPort &_inner;
    SpanLog &_log;
    // eagerQueueHasSpace() is const in the interface but still counts.
    mutable Counts _c;
};

} // namespace perfbench

#endif // PERFBENCH_PROBES_HH
