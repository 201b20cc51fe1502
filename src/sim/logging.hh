/**
 * @file
 * gem5-style status/error reporting: panic, fatal, warn, inform.
 *
 * panic()  — a simulator bug; never the user's fault. Throws
 *            PanicError (so tests can assert on it) unless
 *            Logger::abortOnPanic() is set, in which case it aborts.
 * fatal()  — the simulation cannot continue because of a user error
 *            (bad configuration, invalid arguments). Throws FatalError.
 * warn()   — something is suspicious but the simulation continues.
 * inform() — normal operating status.
 *
 * panic()/fatal() expand to a single call of a cold, out-of-line,
 * printf-style function (panicFormat/fatalFormat) that formats the
 * message itself, and panic_if()/fatal_if() mark their branch
 * [[unlikely]]. A check site therefore costs one compare and a
 * branch to a call, with no std::string built inline, so the small
 * accessors that carry bounds checks (IndexedVector, IndexMask,
 * EventQueue::drawSeq) stay small enough to inline into the hot
 * path.
 */

#ifndef MELLOWSIM_SIM_LOGGING_HH
#define MELLOWSIM_SIM_LOGGING_HH

#include <cstdio>
#include <stdexcept>
#include <string>

#include "sim/sync.hh"

namespace mellowsim
{

/** Error thrown by panic(): an internal invariant was violated. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Error thrown by fatal(): the user asked for something impossible. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

/** Process-wide logging configuration. Safe to query and toggle from
 * any thread; output from parallel sweep workers is serialized by a
 * mutex internal to logging.cc. */
class Logger
{
  public:
    /** Suppress warn()/inform() output (useful in tests and sweeps). */
    static void setQuiet(bool quiet);
    static bool quiet();

  private:
    static sync::RelaxedFlag _quiet;
};

/** Format a message with printf semantics into a std::string. */
std::string logFormat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report an internal simulator bug and throw PanicError; the
 * message is formatted with printf semantics. */
// mlint: allow(raw-addr-param): source location, not a memory address
[[noreturn, gnu::cold]] void panicFormat(const char *file, int line,
                                         const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Report an unrecoverable user error and throw FatalError; the
 * message is formatted with printf semantics. */
// mlint: allow(raw-addr-param): source location, not a memory address
[[noreturn, gnu::cold]] void fatalFormat(const char *file, int line,
                                         const char *fmt, ...)
    __attribute__((format(printf, 3, 4)));

/** Print a warning to stderr (unless quiet). */
void warnImpl(const std::string &msg);

/** Print an informational message to stdout (unless quiet). */
void informImpl(const std::string &msg);

} // namespace mellowsim

#define panic(...) \
    ::mellowsim::panicFormat(__FILE__, __LINE__, __VA_ARGS__)

#define fatal(...) \
    ::mellowsim::fatalFormat(__FILE__, __LINE__, __VA_ARGS__)

#define warn(...) \
    ::mellowsim::warnImpl(::mellowsim::logFormat(__VA_ARGS__))

#define inform(...) \
    ::mellowsim::informImpl(::mellowsim::logFormat(__VA_ARGS__))

/** panic() unless the given condition holds. */
#define panic_if(cond, ...) \
    do { \
        if (cond) [[unlikely]] { \
            panic(__VA_ARGS__); \
        } \
    } while (0)

/** fatal() unless the given condition holds. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) [[unlikely]] { \
            fatal(__VA_ARGS__); \
        } \
    } while (0)

#endif // MELLOWSIM_SIM_LOGGING_HH
