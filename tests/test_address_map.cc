/** @file Tests for physical address decomposition. */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <utility>

#include "nvm/address_map.hh"
#include "nvm/interleave.hh"
#include "sim/divisor.hh"
#include "sim/logging.hh"

using namespace mellowsim;

TEST(AddressMap, RowChunksInterleaveAcrossBanks)
{
    MemGeometry g; // 16 KB interleave, 16 banks
    g.pageScramble = false;
    AddressMap map{g};
    for (unsigned i = 0; i < 64; ++i) {
        DecodedAddr d =
            map.decode(LogicalAddr(static_cast<Addr>(i) * g.interleaveBytes));
        EXPECT_EQ(d.bank.value(), i % 16);
    }
}

TEST(AddressMap, BlocksWithinAChunkShareABank)
{
    MemGeometry g;
    g.pageScramble = false;
    AddressMap map{g};
    DecodedAddr first = map.decode(LogicalAddr(0));
    for (Addr a = 0; a < g.interleaveBytes; a += kBlockSize) {
        DecodedAddr d = map.decode(LogicalAddr(a));
        EXPECT_EQ(d.bank, first.bank);
        // Consecutive blocks are consecutive within the bank.
        EXPECT_EQ(d.blockInBank.value(), a >> kBlockShift);
    }
}

TEST(AddressMap, SubBlockOffsetsShareBlock)
{
    AddressMap map{MemGeometry{}};
    DecodedAddr a = map.decode(LogicalAddr(0x1000));
    DecodedAddr b = map.decode(LogicalAddr(0x1000 + 63));
    EXPECT_EQ(a.bank, b.bank);
    EXPECT_EQ(a.blockInBank, b.blockInBank);
    EXPECT_EQ(a.rowTag, b.rowTag);
}

TEST(AddressMap, BlockInterleaveOptionRestoresFineGrain)
{
    MemGeometry g;
    g.interleaveBytes = kBlockSize;
    g.pageScramble = false;
    AddressMap map{g};
    for (unsigned i = 0; i < 64; ++i) {
        DecodedAddr d =
            map.decode(LogicalAddr(static_cast<Addr>(i) * kBlockSize));
        EXPECT_EQ(d.bank.value(), i % 16);
    }
}

TEST(AddressMap, RankGroupsBanksEvenly)
{
    MemGeometry g;
    g.numBanks = 16;
    g.numRanks = 4;
    AddressMap map{g};
    for (unsigned i = 0; i < 16; ++i) {
        DecodedAddr d =
            map.decode(LogicalAddr(static_cast<Addr>(i) * g.interleaveBytes));
        EXPECT_EQ(d.rank, d.bank.value() / 4);
    }
}

TEST(AddressMap, RowTagChangesEveryRowBufferSegment)
{
    MemGeometry g;
    g.pageScramble = false;
    AddressMap map{g};
    std::uint64_t blocks_per_buffer = g.rowBufferBytes / kBlockSize;
    // Walk one 16 KB chunk of bank 0: 256 blocks = 16 segments.
    for (std::uint64_t i = 0; i < 256; ++i) {
        DecodedAddr d = map.decode(LogicalAddr(i * kBlockSize));
        EXPECT_EQ(d.bank.value(), 0u);
        EXPECT_EQ(d.rowTag, i / blocks_per_buffer);
    }
}

TEST(AddressMap, CapacityWrapsNotOverflows)
{
    MemGeometry g;
    AddressMap map{g};
    DecodedAddr d = map.decode(LogicalAddr(g.capacityBytes + 128));
    DecodedAddr e = map.decode(LogicalAddr(128));
    EXPECT_EQ(d.bank, e.bank);
    EXPECT_EQ(d.blockInBank, e.blockInBank);
}

TEST(AddressMap, BlocksPerBank)
{
    MemGeometry g;
    EXPECT_EQ(g.blocksPerBank(),
              4ull * 1024 * 1024 * 1024 / 64 / 16);
    EXPECT_EQ(g.banksPerRank(), 4u);
}

TEST(AddressMap, BlockInBankStaysInRange)
{
    MemGeometry g;
    g.capacityBytes = 1ull << 22;
    g.numBanks = 4;
    g.numRanks = 2;
    AddressMap map{g};
    for (Addr a = 0; a < g.capacityBytes; a += 4096 + kBlockSize) {
        DecodedAddr d = map.decode(LogicalAddr(a));
        EXPECT_LT(d.blockInBank.value(), g.blocksPerBank());
        EXPECT_LT(d.bank.value(), g.numBanks);
    }
}

TEST(AddressMap, DistinctBlocksDecodeDistinctly)
{
    MemGeometry g;
    g.capacityBytes = 1ull << 21; // 32768 blocks
    g.numBanks = 8;
    g.numRanks = 2;
    g.interleaveBytes = 4096;
    AddressMap map{g};
    std::set<std::pair<unsigned, std::uint64_t>> seen;
    for (Addr a = 0; a < g.capacityBytes; a += kBlockSize) {
        DecodedAddr d = map.decode(LogicalAddr(a));
        EXPECT_TRUE(
            seen.insert({d.bank.value(), d.blockInBank.value()}).second);
    }
    EXPECT_EQ(seen.size(), g.capacityBytes / kBlockSize);
}

TEST(AddressMap, RejectsBadGeometry)
{
    MemGeometry g;
    g.numBanks = 0;
    EXPECT_THROW(AddressMap{g}, FatalError);

    g = MemGeometry{};
    g.numRanks = 3; // does not divide 16
    EXPECT_THROW(AddressMap{g}, FatalError);

    g = MemGeometry{};
    g.rowBufferBytes = 32; // smaller than a block
    EXPECT_THROW(AddressMap{g}, FatalError);

    g = MemGeometry{};
    g.interleaveBytes = 32; // smaller than a block
    EXPECT_THROW(AddressMap{g}, FatalError);
}

/** Parameterised: bank sweep used by Figure 18 (4/8/16 banks). */
class AddressMapBankSweep : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(AddressMapBankSweep, InterleaveCoversAllBanks)
{
    MemGeometry g;
    g.numBanks = GetParam();
    g.numRanks = GetParam() / 4;
    g.pageScramble = false;
    AddressMap map{g};
    std::set<unsigned> banks;
    for (unsigned i = 0; i < g.numBanks * 3; ++i) {
        banks.insert(
            map.decode(LogicalAddr(static_cast<Addr>(i) * g.interleaveBytes))
                .bank.value());
    }
    EXPECT_EQ(banks.size(), g.numBanks);
}

INSTANTIATE_TEST_SUITE_P(Geometries, AddressMapBankSweep,
                         ::testing::Values(4u, 8u, 16u));

// --- Page scrambling (OS-like physical page permutation) ------------

TEST(AddressMap, TranslateIsABijectionOverPages)
{
    MemGeometry g;
    g.capacityBytes = 1ull << 22; // 1024 pages (even bit count)
    g.numBanks = 4;
    g.numRanks = 2;
    AddressMap map{g};
    std::set<Addr> seen;
    for (std::uint64_t p = 0; p < 1024; ++p) {
        LogicalAddr t = map.translate(LogicalAddr(p * 4096));
        EXPECT_EQ(t.value() % 4096, 0u);
        EXPECT_LT(t.value(), g.capacityBytes);
        EXPECT_TRUE(seen.insert(t.value()).second) << "page " << p;
    }
}

TEST(AddressMap, TranslateIsABijectionOddBitCount)
{
    MemGeometry g;
    g.capacityBytes = 1ull << 21; // 512 pages (odd bit count)
    g.numBanks = 4;
    g.numRanks = 2;
    AddressMap map{g};
    std::set<Addr> seen;
    for (std::uint64_t p = 0; p < 512; ++p)
        EXPECT_TRUE(
            seen.insert(map.translate(LogicalAddr(p * 4096)).value())
                .second);
    EXPECT_EQ(seen.size(), 512u);
}

TEST(AddressMap, TranslatePreservesPageOffsets)
{
    AddressMap map{MemGeometry{}};
    LogicalAddr base = map.translate(LogicalAddr(123 * 4096));
    for (Addr off = 0; off < 4096; off += 64) {
        EXPECT_EQ(map.translate(LogicalAddr(123 * 4096 + off)).value(),
                  base.value() + off);
    }
}

TEST(AddressMap, ScrambleActuallyPermutes)
{
    MemGeometry g;
    g.capacityBytes = 1ull << 24;
    AddressMap map{g};
    int moved = 0;
    for (std::uint64_t p = 0; p < 256; ++p)
        moved += map.translate(LogicalAddr(p * 4096)).value() != p * 4096;
    EXPECT_GT(moved, 250);
}

TEST(AddressMap, ScrambleBreaksConstantStrideBankAlignment)
{
    // The motivating pathology: addresses exactly one LLC capacity
    // (2 MB) apart must NOT systematically share a bank.
    MemGeometry g; // 4 GB, 16 banks, scramble on by default
    AddressMap map{g};
    int same_bank = 0;
    constexpr int kPairs = 4096;
    for (int i = 0; i < kPairs; ++i) {
        Addr a = static_cast<Addr>(i) * (1ull << 21);
        Addr b = a + (1ull << 21);
        same_bank +=
            map.decode(LogicalAddr(a)).bank == map.decode(LogicalAddr(b)).bank;
    }
    // Uniform expectation is 1/16; allow generous slack but exclude
    // the pathological 100% the identity mapping produces.
    EXPECT_LT(same_bank, kPairs / 4);
}

TEST(AddressMap, ScrambleRequiresPowerOfTwoPages)
{
    MemGeometry g;
    g.capacityBytes = 3ull * 1024 * 1024; // 768 pages
    EXPECT_THROW(AddressMap{g}, FatalError);
}

TEST(AddressMap, ScrambleDeterministicAcrossInstances)
{
    AddressMap a{MemGeometry{}};
    AddressMap b{MemGeometry{}};
    for (std::uint64_t p = 0; p < 64; ++p)
        EXPECT_EQ(a.translate(LogicalAddr(p * 4096)),
                  b.translate(LogicalAddr(p * 4096)));
}

// --- Divisor-based routing against the division formulas -------------

TEST(Divisor, MatchesDivisionForPowersOfTwoAndOthers)
{
    std::mt19937_64 rng(7);
    for (std::uint64_t d : {1ull, 2ull, 3ull, 12ull, 64ull, 192ull,
                            1ull << 32, 3ull << 28, 1000000007ull}) {
        const Divisor div(d);
        EXPECT_EQ(div.divisor(), d);
        for (int i = 0; i < 1000; ++i) {
            const std::uint64_t x = i < 3 ? ~std::uint64_t{0} - i : rng();
            ASSERT_EQ(div.quot(x), x / d) << x << " / " << d;
            ASSERT_EQ(div.rem(x), x % d) << x << " % " << d;
        }
    }
}

namespace
{

/** ChannelInterleave::channelOf and localAddr, by plain division. */
std::pair<unsigned, Addr>
referenceRoute(const MemGeometry &total, unsigned channels, Addr addr)
{
    const std::uint64_t blocks_per_chunk = total.interleaveBytes / kBlockSize;
    const std::uint64_t block = (addr % total.capacityBytes) >> kBlockShift;
    const std::uint64_t chunk = block / blocks_per_chunk;
    const std::uint64_t offset = block % blocks_per_chunk;
    const Addr local = ((chunk / channels) * blocks_per_chunk + offset) *
                           kBlockSize +
                       addr % kBlockSize;
    return {static_cast<unsigned>(chunk % channels), local};
}

/** AddressMap::decode of a translated address, by plain division. */
DecodedAddr
referenceDecode(const MemGeometry &g, Addr translated)
{
    const std::uint64_t blocks_per_chunk = g.interleaveBytes / kBlockSize;
    const std::uint64_t block = translated >> kBlockShift;
    const std::uint64_t chunk = block / blocks_per_chunk;
    DecodedAddr d;
    d.bank = BankId(static_cast<unsigned>(chunk % g.numBanks));
    d.rank = d.bank.value() / (g.numBanks / g.numRanks);
    d.blockInBank = LineIndex(chunk / g.numBanks * blocks_per_chunk +
                              block % blocks_per_chunk);
    d.rowTag = d.blockInBank.value() / (g.rowBufferBytes / kBlockSize);
    return d;
}

/**
 * decode(localAddr(a)) through the shift-and-mask routing equals the
 * division formulas for random addresses, including ones beyond the
 * capacity that wrap.
 */
void
expectRoutingMatchesDivision(const MemGeometry &total, unsigned channels)
{
    ChannelInterleave il(total, channels);
    MemGeometry per_channel = total;
    per_channel.capacityBytes = total.capacityBytes / channels;
    AddressMap map(per_channel);
    std::mt19937_64 rng(total.numBanks * 31 + channels);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = i % 2 == 0
                              ? rng() % (4 * total.capacityBytes)
                              : rng();
        const auto [channel, local] = referenceRoute(total, channels, addr);
        ASSERT_EQ(il.channelOf(LogicalAddr(addr)).value(), channel) << addr;
        ASSERT_EQ(il.localAddr(LogicalAddr(addr)).value(), local) << addr;

        // The page permutation is checked elsewhere; here it must keep
        // the page offset, stay in range and be the identity when off.
        const Addr translated = map.translate(LogicalAddr(local)).value();
        ASSERT_LT(translated, per_channel.capacityBytes);
        if (per_channel.pageScramble) {
            ASSERT_EQ(translated % per_channel.pageBytes,
                      local % per_channel.capacityBytes %
                          per_channel.pageBytes);
        } else {
            ASSERT_EQ(translated, local % per_channel.capacityBytes);
        }
        const DecodedAddr got = map.decode(LogicalAddr(local));
        const DecodedAddr want = referenceDecode(per_channel, translated);
        ASSERT_EQ(got.bank, want.bank) << addr;
        ASSERT_EQ(got.rank, want.rank) << addr;
        ASSERT_EQ(got.blockInBank, want.blockInBank) << addr;
        ASSERT_EQ(got.rowTag, want.rowTag) << addr;
    }
}

} // namespace

TEST(AddressMap, RoutingMatchesDivisionOnPowerOfTwoGeometry)
{
    MemGeometry g; // the shipped device: 16 banks, 4 ranks, 4 GiB
    expectRoutingMatchesDivision(g, 1);
    g.capacityBytes *= 4;
    expectRoutingMatchesDivision(g, 4);
}

TEST(AddressMap, RoutingMatchesDivisionOnOtherGeometry)
{
    // 12 banks in 3 ranks over 3 channels: the total capacity, bank,
    // rank and channel divisors are not powers of two.
    MemGeometry g;
    g.numBanks = 12;
    g.numRanks = 3;
    g.capacityBytes = 3ull << 30;
    expectRoutingMatchesDivision(g, 3);

    // Unscrambled, with 24-block row buffers and 192-block chunks.
    g.pageScramble = false;
    g.capacityBytes = 3 * 12 * 12288 * 1000ull;
    g.rowBufferBytes = 1536;
    g.interleaveBytes = 12288;
    expectRoutingMatchesDivision(g, 3);
}
