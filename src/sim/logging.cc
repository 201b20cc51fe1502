#include "sim/logging.hh"

#include <cstdarg>
#include <cstdio>
#include <vector>

#include "sim/sync.hh"

namespace mellowsim
{

sync::RelaxedFlag Logger::_quiet{false};

namespace
{

/** Serializes message emission so lines from parallel sweep workers
 * interleave whole, never mid-line. Guards the emit helpers below,
 * not the streams themselves: each message is a single fprintf. */
sync::Mutex outputMutex;

void
emitLine(std::FILE *stream, const char *prefix, const std::string &msg)
{
    sync::LockGuard guard(outputMutex);
    std::fprintf(stream, "%s%s\n", prefix, msg.c_str());
}

/** logFormat() over a va_list; consumes @p args. */
std::string
vlogFormat(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args);
    if (needed < 0) {
        va_end(args_copy);
        return std::string("<format error>");
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args_copy);
    va_end(args_copy);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

/** Print "<kind>: <msg> (<file>:<line>)" and throw it as @p Error. */
template <typename Error>
[[noreturn]] void
reportAndThrow(const char *kind, const char *file, int line,
               const std::string &msg)
{
    std::string full =
        logFormat("%s: %s (%s:%d)", kind, msg.c_str(), file, line);
    emitLine(stderr, "", full);
    throw Error(full);
}

} // namespace

void
Logger::setQuiet(bool quiet)
{
    _quiet.set(quiet);
}

bool
Logger::quiet()
{
    return _quiet.get();
}

std::string
logFormat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vlogFormat(fmt, args);
    va_end(args);
    return msg;
}

void
panicFormat(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vlogFormat(fmt, args);
    va_end(args);
    reportAndThrow<PanicError>("panic", file, line, msg);
}

void
fatalFormat(const char *file, int line, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    const std::string msg = vlogFormat(fmt, args);
    va_end(args);
    reportAndThrow<FatalError>("fatal", file, line, msg);
}

void
warnImpl(const std::string &msg)
{
    if (!Logger::quiet())
        emitLine(stderr, "warn: ", msg);
}

void
informImpl(const std::string &msg)
{
    if (!Logger::quiet())
        emitLine(stdout, "info: ", msg);
}

} // namespace mellowsim
