/**
 * @file
 * Concurrency primitives and capability annotations for mellowsim.
 *
 * This header is the ONLY sanctioned home of raw standard-library
 * synchronization primitives (std::mutex, std::thread, ...);
 * tools/mellow_lint.py's `raw-sync-primitive` rule rejects them
 * anywhere else. Everything that shares state across threads goes
 * through these wrappers, for two reasons:
 *
 *  1. The wrappers carry Clang Thread Safety Analysis attributes
 *     (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), so a
 *     Clang build with MELLOWSIM_THREAD_SAFETY=ON (the `thread-safety`
 *     preset, errors in CI) statically proves that every access to a
 *     MELLOW_GUARDED_BY field happens with its mutex held. Under
 *     other compilers the attributes expand to nothing and the
 *     wrappers are zero-cost forwarding shims.
 *
 *  2. They give the confinement analysis
 *     (tools/analyze/confinement.toml) a closed vocabulary of
 *     "synchronized" types: mutable state shared across threads must
 *     be one of these types (or std::atomic / thread_local), or the
 *     `confinement-global` rule flags it.
 *
 * The concurrency model itself (what one simulation owns, what is
 * shared immutable, what must be synchronized) is documented in
 * DESIGN.md §11 and declared machine-checkably in
 * tools/analyze/confinement.toml.
 */

#ifndef MELLOWSIM_SIM_SYNC_HH
#define MELLOWSIM_SIM_SYNC_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

// --- Clang Thread Safety Analysis attribute macros -------------------
//
// MELLOW_-prefixed so they cannot collide with other libraries'
// spellings of the same attributes. No-ops on compilers without the
// capability attribute family (GCC, MSVC).

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define MELLOW_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef MELLOW_THREAD_ANNOTATION
#define MELLOW_THREAD_ANNOTATION(x)
#endif

/** Marks a class as a lockable capability (e.g. a mutex type). */
#define MELLOW_CAPABILITY(x) MELLOW_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class that acquires in its ctor, releases in dtor. */
#define MELLOW_SCOPED_CAPABILITY MELLOW_THREAD_ANNOTATION(scoped_lockable)

/** Field may only be accessed while holding @p x. */
#define MELLOW_GUARDED_BY(x) MELLOW_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be accessed while holding @p x. */
#define MELLOW_PT_GUARDED_BY(x) MELLOW_THREAD_ANNOTATION(pt_guarded_by(x))

/** Caller must hold the given capabilities to call this function. */
#define MELLOW_REQUIRES(...) \
    MELLOW_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the given capabilities (and doesn't release). */
#define MELLOW_ACQUIRE(...) \
    MELLOW_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the given capabilities. */
#define MELLOW_RELEASE(...) \
    MELLOW_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability when it returns @p result. */
#define MELLOW_TRY_ACQUIRE(...) \
    MELLOW_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the given capabilities (deadlock guard). */
#define MELLOW_EXCLUDES(...) \
    MELLOW_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Escape hatch; every use needs a comment explaining why. */
#define MELLOW_NO_THREAD_SAFETY_ANALYSIS \
    MELLOW_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace mellowsim::sync
{

/**
 * Plain mutual-exclusion capability wrapping std::mutex.
 *
 * Use together with MELLOW_GUARDED_BY on the state it protects and
 * LockGuard for scoped acquisition; bare lock()/unlock() pairs are for
 * the rare site an RAII scope cannot express.
 */
class MELLOW_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() MELLOW_ACQUIRE() { _mutex.lock(); }
    void unlock() MELLOW_RELEASE() { _mutex.unlock(); }
    [[nodiscard]] bool tryLock() MELLOW_TRY_ACQUIRE(true)
    {
        return _mutex.try_lock();
    }

  private:
    std::mutex _mutex;
};

/** Scoped acquisition of a Mutex (RAII std::lock_guard equivalent). */
class MELLOW_SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mutex) MELLOW_ACQUIRE(mutex) : _mutex(mutex)
    {
        _mutex.lock();
    }
    ~LockGuard() MELLOW_RELEASE() { _mutex.unlock(); }
    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &_mutex;
};

/**
 * Monotonic event tally safe to bump from any thread.
 *
 * Relaxed ordering: the count is a statistic, not a synchronization
 * point — readers only ever see it quiescent (after a join) or accept
 * an instantaneous sample (the allocation counter's steady-state
 * delta check).
 */
class RelaxedCounter
{
  public:
    void increment() { _value.fetch_add(1, std::memory_order_relaxed); }
    void add(std::uint64_t n)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/**
 * Owning group of worker threads, joined in the destructor.
 *
 * The RAII join is the point: if spawning thread k throws (resource
 * exhaustion) or the spawning scope unwinds for any other reason,
 * threads 0..k-1 are still joined instead of leaking into
 * std::terminate at std::thread destruction.
 */
class ThreadGroup
{
  public:
    ThreadGroup() = default;
    explicit ThreadGroup(std::size_t expected)
    {
        _threads.reserve(expected);
    }
    ~ThreadGroup() { joinAll(); }
    ThreadGroup(const ThreadGroup &) = delete;
    ThreadGroup &operator=(const ThreadGroup &) = delete;

    /** Start one worker running @p fn. */
    template <typename Fn>
    void
    spawn(Fn &&fn)
    {
        _threads.emplace_back(std::forward<Fn>(fn));
    }

    /** Join every still-joinable worker (idempotent). */
    void
    joinAll()
    {
        for (std::thread &t : _threads) {
            if (t.joinable())
                t.join();
        }
    }

    [[nodiscard]] std::size_t size() const { return _threads.size(); }

  private:
    std::vector<std::thread> _threads;
};

/**
 * Process-wide boolean toggle readable from any thread.
 *
 * Relaxed ordering: the flag is advisory configuration (e.g. log
 * verbosity), never a synchronization point — a reader that misses a
 * concurrent toggle by one message is correct behavior.
 */
class RelaxedFlag
{
  public:
    constexpr explicit RelaxedFlag(bool initial) : _value(initial) {}

    void set(bool value) { _value.store(value, std::memory_order_relaxed); }
    [[nodiscard]] bool get() const
    {
        return _value.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<bool> _value;
};

/**
 * Monotonic work-index dispenser for self-scheduling worker pools.
 *
 * Each take() hands out the next index exactly once. Relaxed ordering
 * suffices because the index only partitions work; the data handoff
 * happens through thread creation before and join after.
 */
class TicketCounter
{
  public:
    [[nodiscard]] std::size_t
    take()
    {
        return _next.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::size_t> _next{0};
};

/** Hardware thread count, never zero. */
[[nodiscard]] inline unsigned
hardwareConcurrency()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1u;
}

} // namespace mellowsim::sync

#endif // MELLOWSIM_SIM_SYNC_HH
