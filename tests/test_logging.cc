/** @file Unit tests for the logging/error helpers. */

#include <gtest/gtest.h>

#include <string>

#include "sim/logging.hh"

using namespace mellowsim;

TEST(Logging, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("boom %d", 42), PanicError);
}

TEST(Logging, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config %s", "x"), FatalError);
}

TEST(Logging, PanicMessageContainsTextAndLocation)
{
    try {
        panic("custom message %d", 7);
        FAIL() << "panic did not throw";
    } catch (const PanicError &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("custom message 7"), std::string::npos);
        EXPECT_NE(what.find("test_logging.cc"), std::string::npos);
    }
}

TEST(Logging, PanicIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(panic_if(false, "no"));
    EXPECT_THROW(panic_if(true, "yes"), PanicError);
}

TEST(Logging, FatalIfOnlyFiresWhenTrue)
{
    EXPECT_NO_THROW(fatal_if(false, "no"));
    EXPECT_THROW(fatal_if(true, "yes"), FatalError);
}

TEST(Logging, FormatHandlesLongStrings)
{
    std::string big(10000, 'x');
    std::string out = logFormat("%s", big.c_str());
    EXPECT_EQ(out.size(), big.size());
}

TEST(Logging, WarnAndInformDoNotThrow)
{
    Logger::setQuiet(true);
    EXPECT_NO_THROW(warn("just a warning %d", 1));
    EXPECT_NO_THROW(inform("just info"));
    Logger::setQuiet(false);
}

TEST(Logging, QuietFlagRoundTrips)
{
    Logger::setQuiet(true);
    EXPECT_TRUE(Logger::quiet());
    Logger::setQuiet(false);
    EXPECT_FALSE(Logger::quiet());
}

namespace
{

/** What panic_if/fatal_if have always thrown: the formatted message,
 * then the call site. */
std::string
expectedText(const char *kind, const std::string &msg, int line)
{
    return std::string(kind) + ": " + msg + " (" + __FILE__ + ":" +
           std::to_string(line) + ")";
}

} // namespace

TEST(Logging, PanicIfTextAndTypeAreExact)
{
    int line = 0;
    try {
        line = __LINE__ + 1;
        panic_if(true, "queue %s overflowed at %d (%.2f)", "read", 32, 1.5);
        FAIL() << "panic_if did not throw";
    } catch (const PanicError &e) {
        EXPECT_EQ(std::string(e.what()),
                  expectedText("panic", "queue read overflowed at 32 (1.50)",
                               line));
    }
}

TEST(Logging, FatalIfTextAndTypeAreExact)
{
    int line = 0;
    try {
        line = __LINE__ + 1;
        fatal_if(true, "config %s: %s must be positive", "x.config", "ROWS");
        FAIL() << "fatal_if did not throw";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  expectedText("fatal", "config x.config: ROWS must be positive",
                               line));
    }
}

TEST(Logging, LongMessagesAreNotTruncated)
{
    // Longer than any fixed buffer a formatter might use.
    const std::string big(700, 'y');
    int line = 0;
    try {
        line = __LINE__ + 1;
        panic_if(true, "long %s end", big.c_str());
        FAIL() << "panic_if did not throw";
    } catch (const PanicError &e) {
        EXPECT_EQ(std::string(e.what()),
                  expectedText("panic", "long " + big + " end", line));
    }
    const std::string huge(5000, 'z');
    try {
        line = __LINE__ + 1;
        fatal("%s|%s", huge.c_str(), big.c_str());
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()),
                  expectedText("fatal", huge + "|" + big, line));
    }
}

TEST(Logging, ChecksEvaluateTheirConditionOnce)
{
    int evaluations = 0;
    EXPECT_NO_THROW(panic_if(++evaluations > 1, "twice"));
    EXPECT_EQ(evaluations, 1);
    EXPECT_THROW(fatal_if(++evaluations > 1, "fired"), FatalError);
    EXPECT_EQ(evaluations, 2);
}
