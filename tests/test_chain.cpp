/**
 * @file
 * Unit tests for the page-set chain: partitions, interval rotation,
 * counters, bit vectors, division, and the history buffer (§IV-C).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.hpp"
#include "core/page_set_chain.hpp"

namespace hpe {
namespace {

class ChainTest : public ::testing::Test
{
  protected:
    ChainTest() : chain_(cfg_, stats_, "chain") {}

    std::vector<PageSetId>
    partitionSets(Partition p)
    {
        std::vector<PageSetId> out;
        chain_.forEachIn(p, [&](const ChainEntry &e) { out.push_back(e.set); });
        return out;
    }

    HpeConfig cfg_{};
    StatRegistry stats_;
    PageSetChain chain_;
};

TEST_F(ChainTest, SetArithmetic)
{
    EXPECT_EQ(chain_.setOf(0x123), 0x12u);
    EXPECT_EQ(chain_.offsetOf(0x123), 3u);
    EXPECT_EQ(chain_.pageAt(0x12, 3), 0x123u);
}

TEST_F(ChainTest, TouchCreatesEntryInNewPartition)
{
    const TouchResult r = chain_.touch(16 * 7 + 2, 1, true);
    EXPECT_TRUE(r.created);
    EXPECT_EQ(r.entry->set, 7u);
    EXPECT_EQ(r.entry->part, Partition::New);
    EXPECT_EQ(r.entry->counter, 1u);
    EXPECT_EQ(r.entry->bitVec, std::uint64_t{1} << 2);
}

TEST_F(ChainTest, HitsDoNotSetBitVector)
{
    const TouchResult r = chain_.touch(5, 3, /*is_fault=*/false);
    EXPECT_EQ(r.entry->counter, 3u);
    EXPECT_EQ(r.entry->bitVec, 0u);
}

TEST_F(ChainTest, CounterSaturates)
{
    const ChainEntry *e = chain_.touch(0, 60, true).entry;
    chain_.touch(0, 60, true);
    EXPECT_EQ(e->counter, cfg_.counterMax);
}

TEST_F(ChainTest, NewEntriesOrderedMruAtBack)
{
    chain_.touch(16 * 1, 1, true);
    chain_.touch(16 * 2, 1, true);
    chain_.touch(16 * 3, 1, true);
    EXPECT_EQ(partitionSets(Partition::New), (std::vector<PageSetId>{1, 2, 3}));
}

TEST_F(ChainTest, IntervalRotationMovesPartitions)
{
    chain_.touch(16 * 1, 1, true);
    chain_.endInterval();
    chain_.touch(16 * 2, 1, true);
    EXPECT_EQ(partitionSets(Partition::Middle), (std::vector<PageSetId>{1}));
    EXPECT_EQ(partitionSets(Partition::New), (std::vector<PageSetId>{2}));
    chain_.endInterval();
    EXPECT_EQ(partitionSets(Partition::Old), (std::vector<PageSetId>{1}));
    EXPECT_EQ(partitionSets(Partition::Middle), (std::vector<PageSetId>{2}));
    EXPECT_EQ(chain_.partitionSize(Partition::New), 0u);
}

TEST_F(ChainTest, OldAbsorbsMiddlePreservingRecencyOrder)
{
    chain_.touch(16 * 1, 1, true);
    chain_.endInterval();
    chain_.touch(16 * 2, 1, true);
    chain_.endInterval();
    chain_.touch(16 * 3, 1, true);
    chain_.endInterval();
    // Sets 1 and 2 are now both old; 1 (older) stays nearer the LRU end.
    EXPECT_EQ(partitionSets(Partition::Old), (std::vector<PageSetId>{1, 2}));
}

TEST_F(ChainTest, TouchMovesOldEntryToNewMru)
{
    chain_.touch(16 * 1, 1, true);
    chain_.touch(16 * 2, 1, true);
    chain_.endInterval();
    chain_.endInterval();
    ASSERT_EQ(partitionSets(Partition::Old).size(), 2u);
    chain_.touch(16 * 1 + 5, 1, true);
    EXPECT_EQ(partitionSets(Partition::Old), (std::vector<PageSetId>{2}));
    EXPECT_EQ(partitionSets(Partition::New), (std::vector<PageSetId>{1}));
}

TEST_F(ChainTest, NoReorderWithinNewPartition)
{
    chain_.touch(16 * 1, 1, true);
    chain_.touch(16 * 2, 1, true);
    chain_.touch(16 * 1, 1, true); // re-touch: no movement (§IV-C note 2)
    EXPECT_EQ(partitionSets(Partition::New), (std::vector<PageSetId>{1, 2}));
    EXPECT_EQ(stats_.findCounter("chain.movements").value(), 0u);
}

TEST_F(ChainTest, DivisionOnSaturationWithIncompleteBitVector)
{
    // Fault only even offsets; saturate the counter with hits.
    for (std::uint32_t off = 0; off < 16; off += 2)
        chain_.touch(off, 1, true);
    TouchResult r = chain_.touch(0, 60, false); // saturates at 64
    EXPECT_TRUE(r.dividedNow);
    EXPECT_TRUE(r.entry->divided);
    EXPECT_EQ(r.entry->primaryMask, 0x5555u);
}

TEST_F(ChainTest, NoDivisionWhenFullyPopulated)
{
    for (std::uint32_t off = 0; off < 16; ++off)
        chain_.touch(off, 4, true); // counter 64, all bits set
    const ChainEntry *e = chain_.find(0, false);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->counter == cfg_.counterMax);
    EXPECT_FALSE(e->divided);
}

TEST_F(ChainTest, SecondaryEntryCreatedForNonPrimaryPages)
{
    for (std::uint32_t off = 0; off < 16; off += 2)
        chain_.touch(off, 1, true);
    chain_.touch(0, 60, false); // divide: primary = even offsets
    // Touching an odd page now creates the secondary entry.
    const TouchResult r = chain_.touch(3, 1, true);
    EXPECT_TRUE(r.created);
    EXPECT_TRUE(r.entry->secondary);
    EXPECT_NE(chain_.find(0, true), nullptr);
    EXPECT_NE(chain_.find(0, false), chain_.find(0, true));
}

TEST_F(ChainTest, BelongsToPrimaryConsultsLiveDividedEntry)
{
    for (std::uint32_t off = 0; off < 16; off += 2)
        chain_.touch(off, 1, true);
    chain_.touch(0, 60, false);
    EXPECT_TRUE(chain_.belongsToPrimary(2));
    EXPECT_FALSE(chain_.belongsToPrimary(3));
}

TEST_F(ChainTest, HistoryRecordsFirstDivisionOnRemoval)
{
    for (std::uint32_t off = 0; off < 16; off += 2)
        chain_.touch(off, 1, true);
    chain_.touch(0, 60, false);
    const ChainEntry *primary = chain_.find(0, false);
    chain_.remove(*primary);
    EXPECT_EQ(chain_.historySize(), 1u);
    // After removal, the history still routes odd pages to the secondary.
    EXPECT_TRUE(chain_.belongsToPrimary(4));
    EXPECT_FALSE(chain_.belongsToPrimary(5));
}

TEST_F(ChainTest, ReinsertedPrimaryInheritsFirstDivision)
{
    for (std::uint32_t off = 0; off < 16; off += 2)
        chain_.touch(off, 1, true);
    chain_.touch(0, 60, false);
    chain_.remove(*chain_.find(0, false));
    // Re-touch an even page: a fresh primary entry with the sticky mask.
    const TouchResult r = chain_.touch(2, 1, true);
    EXPECT_TRUE(r.created);
    EXPECT_TRUE(r.entry->divided);
    EXPECT_EQ(r.entry->primaryMask, 0x5555u);
}

TEST_F(ChainTest, FirstDivisionResultIsSticky)
{
    for (std::uint32_t off = 0; off < 16; off += 2)
        chain_.touch(off, 1, true);
    chain_.touch(0, 60, false);
    chain_.remove(*chain_.find(0, false));
    // Second life: fault odd pages into the secondary, saturate primary
    // again with a different population; the history keeps mask #1.
    chain_.touch(2, 60, false);
    chain_.remove(*chain_.find(0, false));
    EXPECT_EQ(chain_.historySize(), 1u);
    EXPECT_FALSE(chain_.belongsToPrimary(1));
}

TEST_F(ChainTest, RemoveDropsEntry)
{
    chain_.touch(16 * 4, 1, true);
    chain_.remove(*chain_.find(4, false));
    EXPECT_EQ(chain_.find(4, false), nullptr);
    EXPECT_EQ(chain_.size(), 0u);
}

TEST_F(ChainTest, SecondaryNeverDivides)
{
    for (std::uint32_t off = 0; off < 16; off += 2)
        chain_.touch(off, 1, true);
    chain_.touch(0, 60, false); // divide
    chain_.touch(1, 1, true);   // secondary, one odd page faulted
    chain_.touch(1, 63, false); // saturate the secondary
    const ChainEntry *sec = chain_.find(0, true);
    ASSERT_NE(sec, nullptr);
    EXPECT_FALSE(sec->divided);
}

TEST_F(ChainTest, ForEachVisitsAllPartitions)
{
    chain_.touch(16 * 1, 1, true);
    chain_.endInterval();
    chain_.touch(16 * 2, 1, true);
    chain_.endInterval();
    chain_.touch(16 * 3, 1, true);
    int n = 0;
    chain_.forEach([&](const ChainEntry &) { ++n; });
    EXPECT_EQ(n, 3);
}

TEST(ChainConfig, PageSetSizeEightWorks)
{
    StatRegistry stats;
    HpeConfig cfg;
    cfg.pageSetSize = 8;
    PageSetChain chain(cfg, stats, "c");
    EXPECT_EQ(chain.setOf(17), 2u);
    EXPECT_EQ(chain.offsetOf(17), 1u);
    chain.touch(17, 1, true);
    EXPECT_NE(chain.find(2, false), nullptr);
}

TEST(ChainConfig, PageSetSizeThirtyTwoWorks)
{
    StatRegistry stats;
    HpeConfig cfg;
    cfg.pageSetSize = 32;
    cfg.counterMax = 64;
    PageSetChain chain(cfg, stats, "c");
    chain.touch(33, 1, true);
    EXPECT_NE(chain.find(1, false), nullptr);
}

} // namespace
} // namespace hpe
