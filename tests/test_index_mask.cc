/** @file Unit tests for IndexMask, the controller's per-bank bitmask. */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/index_mask.hh"
#include "sim/logging.hh"
#include "sim/strong_types.hh"

using namespace mellowsim;

namespace
{

std::vector<unsigned>
members(const IndexMask<BankId> &mask)
{
    std::vector<unsigned> out;
    mask.forEach([&](BankId id) { out.push_back(id.value()); });
    return out;
}

} // namespace

TEST(IndexMask, AssignCopiesEveryWordInPlace)
{
    // 130 bits span three words, the last one partial.
    IndexMask<BankId> src(130);
    IndexMask<BankId> dst(130);
    for (unsigned i : {0u, 5u, 63u, 64u, 100u, 127u, 128u, 129u})
        src.set(BankId(i));
    for (unsigned i : {1u, 65u, 126u})
        dst.set(BankId(i));

    dst.assign(src);
    EXPECT_EQ(members(dst), members(src));
    EXPECT_EQ(members(dst),
              (std::vector<unsigned>{0, 5, 63, 64, 100, 127, 128, 129}));

    // A copy, not an alias: later changes to either side stay there.
    src.clear(BankId(64));
    dst.set(BankId(2));
    EXPECT_TRUE(dst.test(BankId(64)));
    EXPECT_FALSE(src.test(BankId(2)));

    // Assigning an empty mask clears every word.
    dst.assign(IndexMask<BankId>(130));
    EXPECT_FALSE(dst.any());
}

TEST(IndexMask, AssignRejectsMismatchedSizes)
{
    IndexMask<BankId> a(130);
    EXPECT_THROW(a.assign(IndexMask<BankId>(129)), PanicError);
    EXPECT_THROW(a.assign(IndexMask<BankId>(64)), PanicError);
}
