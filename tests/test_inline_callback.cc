/** @file Unit tests for the inline completion callable. */

#include <gtest/gtest.h>

#include <type_traits>
#include <vector>

#include "sim/inline_callback.hh"

using namespace mellowsim;

static_assert(std::is_trivially_copyable_v<InlineCallback>);
static_assert(sizeof(InlineCallback) ==
              InlineCallback::kStorageBytes + sizeof(void *));

TEST(InlineCallback, DefaultAndNullAreEmpty)
{
    InlineCallback a;
    InlineCallback b = nullptr;
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    int hits = 0;
    InlineCallback c = [&hits] { ++hits; };
    EXPECT_TRUE(c);
    c = nullptr;
    EXPECT_FALSE(c);
    EXPECT_EQ(hits, 0);
}

TEST(InlineCallback, InvokesTheStoredCallable)
{
    int hits = 0;
    InlineCallback cb = [&hits] { ++hits; };
    cb();
    cb();
    EXPECT_EQ(hits, 2);
}

TEST(InlineCallback, CopyCarriesCapturedState)
{
    // A full 24-byte capture: three words, all of which must survive
    // copies and assignment.
    std::vector<long> log;
    long a = 7;
    long b = -3;
    InlineCallback original = [&log, a, b] {
        log.push_back(a);
        log.push_back(b);
    };
    InlineCallback copy = original;
    InlineCallback assigned;
    assigned = copy;
    a = 100; // captured by value: later changes do not leak in
    original();
    copy();
    assigned();
    EXPECT_EQ(log, (std::vector<long>{7, -3, 7, -3, 7, -3}));
}

TEST(InlineCallback, CopiesAreIndependentOfTheSource)
{
    int first = 0;
    int second = 0;
    InlineCallback cb = [&first] { ++first; };
    InlineCallback saved = cb;
    cb = [&second] { ++second; };
    saved();
    cb();
    EXPECT_EQ(first, 1);
    EXPECT_EQ(second, 1);
}
