/**
 * @file
 * Unit tests for the mem module: set-associative array, data caches,
 * FR-FCFS DRAM, page table, frame allocator, and the DensePageChain slot
 * arena.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <variant>
#include <vector>

#include "common/event_queue.hpp"
#include "common/stats.hpp"
#include "mem/data_cache.hpp"
#include "mem/dram.hpp"
#include "mem/page_index.hpp"
#include "mem/page_table.hpp"
#include "mem/set_assoc.hpp"

namespace hpe {
namespace {

TEST(SetAssoc, InsertAndFind)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(0x10).data = 7;
    auto *e = arr.find(0x10);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->data, 7);
}

TEST(SetAssoc, MissReturnsNull)
{
    SetAssocArray<int> arr(16, 4);
    EXPECT_EQ(arr.find(0x99), nullptr);
}

TEST(SetAssoc, LruEvictionWithinSet)
{
    // 8 entries, 4 ways -> 2 sets; even keys map to set 0.
    SetAssocArray<int> arr(8, 4);
    for (std::uint64_t k = 0; k < 8; k += 2)
        arr.insert(k); // fills set 0: keys 0,2,4,6
    arr.find(0);       // refresh key 0
    SetAssocArray<int>::Entry victim;
    arr.insert(8, &victim); // set 0 overflows
    EXPECT_EQ(victim.tag, 2u); // LRU among {2,4,6}
    EXPECT_EQ(arr.probe(0) != nullptr, true);
    EXPECT_EQ(arr.probe(2), nullptr);
}

TEST(SetAssoc, ConflictEvictionsCounted)
{
    SetAssocArray<int> arr(4, 2); // 2 sets
    arr.insert(0);
    arr.insert(2);
    arr.insert(4); // evicts in set 0
    EXPECT_EQ(arr.conflictEvictions(), 1u);
}

TEST(SetAssoc, EraseRemoves)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(5);
    EXPECT_TRUE(arr.erase(5));
    EXPECT_FALSE(arr.erase(5));
    EXPECT_EQ(arr.probe(5), nullptr);
}

TEST(SetAssoc, ClearEmptiesEverything)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(1);
    arr.insert(2);
    arr.clear();
    EXPECT_EQ(arr.occupancy(), 0u);
}

TEST(SetAssoc, NonPowerOfTwoSetCount)
{
    // 12 sets (like the 1.5 MB L2): modulo indexing must still work.
    SetAssocArray<int> arr(96, 8);
    for (std::uint64_t k = 0; k < 96; ++k)
        arr.insert(k * 12 + 5); // all map to set 5
    EXPECT_EQ(arr.occupancy(), 8u);
}

TEST(SetAssoc, ForEachVisitsValidOnly)
{
    SetAssocArray<int> arr(16, 4);
    arr.insert(1);
    arr.insert(9);
    int n = 0;
    arr.forEach([&](auto &) { ++n; });
    EXPECT_EQ(n, 2);
}

TEST(DataCache, HitAfterFill)
{
    StatRegistry stats;
    DataCache cache({.sizeBytes = 1024, .ways = 4, .lineBytes = 64,
                     .hitLatency = 1},
                    stats, "c");
    EXPECT_FALSE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x100));
    EXPECT_TRUE(cache.access(0x13f)); // same 64 B line as 0x100
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 1u);
}

TEST(DataCache, DistinctLinesMiss)
{
    StatRegistry stats;
    DataCache cache({.sizeBytes = 1024, .ways = 4, .lineBytes = 64,
                     .hitLatency = 1},
                    stats, "c");
    cache.access(0x000);
    EXPECT_FALSE(cache.access(0x040));
}

TEST(DataCache, InvalidatePageDropsItsLines)
{
    StatRegistry stats;
    DataCache cache({.sizeBytes = 64 * 1024, .ways = 4, .lineBytes = 128,
                     .hitLatency = 1},
                    stats, "c");
    const Addr in_page = addrOf(3) + 256;
    const Addr other = addrOf(7);
    cache.access(in_page);
    cache.access(other);
    cache.invalidatePage(3);
    EXPECT_FALSE(cache.access(in_page));
    EXPECT_TRUE(cache.access(other));
}

TEST(PageTable, MapLookupUnmap)
{
    PageTable pt;
    EXPECT_FALSE(pt.resident(4));
    pt.map(4, 9);
    EXPECT_TRUE(pt.resident(4));
    EXPECT_EQ(pt.lookup(4), 9u);
    EXPECT_EQ(pt.unmap(4), 9u);
    EXPECT_EQ(pt.lookup(4), kInvalidId);
}

TEST(PageTable, SizeTracksMappings)
{
    PageTable pt;
    pt.map(1, 1);
    pt.map(2, 2);
    EXPECT_EQ(pt.size(), 2u);
    pt.unmap(1);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(FrameAllocator, AllocatesAllFramesOnce)
{
    FrameAllocator alloc(4);
    std::vector<FrameId> frames;
    for (int i = 0; i < 4; ++i)
        frames.push_back(alloc.allocate());
    EXPECT_TRUE(alloc.full());
    std::sort(frames.begin(), frames.end());
    EXPECT_EQ(frames, (std::vector<FrameId>{0, 1, 2, 3}));
}

TEST(FrameAllocator, ReleaseMakesFrameAvailable)
{
    FrameAllocator alloc(1);
    const FrameId f = alloc.allocate();
    EXPECT_TRUE(alloc.full());
    alloc.release(f);
    EXPECT_FALSE(alloc.full());
    EXPECT_EQ(alloc.allocate(), f);
}

TEST(FrameAllocator, AscendingFirstHandout)
{
    FrameAllocator alloc(3);
    EXPECT_EQ(alloc.allocate(), 0u);
    EXPECT_EQ(alloc.allocate(), 1u);
}

/** Keys of @p list front to back. */
template <typename Chain>
std::vector<PageId>
keysOf(const Chain &chain, unsigned list = 0)
{
    std::vector<PageId> keys;
    chain.forEach([&](ChainSlot s) { keys.push_back(chain.key(s)); }, list);
    return keys;
}

TEST(DensePageChain, StartsEmpty)
{
    DensePageChain<> chain;
    EXPECT_TRUE(chain.empty());
    EXPECT_EQ(chain.size(), 0u);
    EXPECT_EQ(chain.front(), kNoSlot);
    EXPECT_EQ(chain.back(), kNoSlot);
    EXPECT_FALSE(chain.contains(7));
    EXPECT_EQ(chain.slotOf(7), kNoSlot);
}

TEST(DensePageChain, InsertedSlotIsTrackedButUnlinked)
{
    DensePageChain<int> chain;
    const ChainSlot s = chain.insert(5);
    EXPECT_EQ(chain.slotOf(5), s);
    EXPECT_EQ(chain.key(s), 5u);
    EXPECT_EQ(chain[s], 0);
    EXPECT_EQ(chain.size(), 1u);
    EXPECT_TRUE(chain.empty());
    chain.pushBack(s);
    EXPECT_EQ(chain.length(), 1u);
    EXPECT_EQ(chain.front(), s);
    EXPECT_EQ(chain.back(), s);
}

TEST(DensePageChain, PushFrontAndBackOrderTheList)
{
    DensePageChain<> chain;
    chain.pushBack(chain.insert(1));
    chain.pushBack(chain.insert(2));
    chain.pushFront(chain.insert(3));
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{3, 1, 2}));
    EXPECT_EQ(chain.key(chain.front()), 3u);
    EXPECT_EQ(chain.key(chain.back()), 2u);
}

TEST(DensePageChain, InsertBeforeAndNavigationAtBothEnds)
{
    DensePageChain<> chain;
    const ChainSlot a = chain.insert(1);
    const ChainSlot c = chain.insert(3);
    chain.pushBack(a);
    chain.pushBack(c);
    const ChainSlot b = chain.insert(2);
    chain.insertBefore(c, b);
    const ChainSlot z = chain.insert(0);
    chain.insertBefore(a, z); // before the front: becomes the new front
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{0, 1, 2, 3}));
    EXPECT_EQ(chain.front(), z);
    EXPECT_EQ(chain.prev(z), kNoSlot);
    EXPECT_EQ(chain.next(z), a);
    EXPECT_EQ(chain.prev(b), a);
    EXPECT_EQ(chain.next(b), c);
    EXPECT_EQ(chain.back(), c);
    EXPECT_EQ(chain.next(c), kNoSlot);
    EXPECT_EQ(chain.prev(c), b);
}

TEST(DensePageChain, RemoveUnlinksButKeepsTheSlot)
{
    DensePageChain<int> chain;
    const ChainSlot a = chain.insert(1);
    const ChainSlot b = chain.insert(2);
    chain.pushBack(a);
    chain.pushBack(b);
    chain[a] = 42;
    chain.remove(a);
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{2}));
    EXPECT_EQ(chain.slotOf(1), a);
    EXPECT_EQ(chain[a], 42);
    chain.pushBack(a);
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{2, 1}));
}

TEST(DensePageChain, MoveToBackKeepsTheSlotSoParkedHandlesFollow)
{
    DensePageChain<int> chain;
    for (PageId p = 1; p <= 4; ++p)
        chain.pushBack(chain.insert(p));
    const ChainSlot hand = chain.slotOf(2); // a handle parked on page 2
    chain[hand] = 7;
    chain.moveToBack(hand);
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{1, 3, 4, 2}));
    EXPECT_EQ(chain.slotOf(2), hand);
    EXPECT_EQ(chain.key(hand), 2u);
    EXPECT_EQ(chain[hand], 7);
    EXPECT_EQ(chain.back(), hand);
    EXPECT_EQ(chain.next(hand), kNoSlot);
    chain.moveToBack(hand); // already at the back: no change
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{1, 3, 4, 2}));
}

TEST(DensePageChain, SpliceBackBetweenListsSharingOneArena)
{
    DensePageChain<NoPayload, 3> chain;
    for (PageId p : {1, 2})
        chain.pushBack(chain.insert(p), 0);
    for (PageId p : {3, 4})
        chain.pushBack(chain.insert(p), 1);
    chain.spliceBack(0, 2); // from an empty list: no-op
    EXPECT_EQ(keysOf(chain, 0), (std::vector<PageId>{1, 2}));
    chain.spliceBack(0, 1);
    EXPECT_EQ(keysOf(chain, 0), (std::vector<PageId>{1, 2, 3, 4}));
    EXPECT_EQ(chain.length(0), 4u);
    EXPECT_TRUE(chain.empty(1));
    EXPECT_EQ(chain.front(1), kNoSlot);
    chain.spliceBack(2, 0); // into an empty list
    EXPECT_EQ(keysOf(chain, 2), (std::vector<PageId>{1, 2, 3, 4}));
    EXPECT_TRUE(chain.empty(0));
    EXPECT_EQ(chain.prev(chain.front(2)), kNoSlot);
    EXPECT_EQ(chain.next(chain.back(2)), kNoSlot);
    // The spliced slots stay linked: a removal in the middle relinks.
    chain.remove(chain.slotOf(3), 2);
    EXPECT_EQ(keysOf(chain, 2), (std::vector<PageId>{1, 2, 4}));
    EXPECT_EQ(chain.size(), 4u);
}

TEST(DensePageChain, ErasedSlotsAreReusedWithAFreshPayload)
{
    DensePageChain<int> chain;
    const ChainSlot a = chain.insert(1);
    const ChainSlot b = chain.insert(2);
    chain.pushBack(a);
    chain.pushBack(b);
    chain[a] = 9;
    chain.erase(a);
    EXPECT_FALSE(chain.contains(1));
    EXPECT_EQ(chain.size(), 1u);
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{2}));
    const ChainSlot c = chain.insert(3);
    EXPECT_EQ(c, a);
    EXPECT_EQ(chain[c], 0);
    EXPECT_EQ(chain.key(c), 3u);
    chain.pushFront(c);
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{3, 2}));
}

TEST(DensePageChain, KeysAtOrAboveTheDenseLimit)
{
    DensePageChain<int> chain;
    const PageId keys[] = {kDensePageLimit, 3, (PageId{1} << 40) + 5,
                           kDensePageLimit - 1};
    for (PageId k : keys) {
        const ChainSlot s = chain.insert(k);
        chain[s] = static_cast<int>(k & 0xff);
        chain.pushBack(s);
    }
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>(std::begin(keys), std::end(keys))));
    for (PageId k : keys) {
        ASSERT_NE(chain.slotOf(k), kNoSlot);
        EXPECT_EQ(chain.key(chain.slotOf(k)), k);
        EXPECT_EQ(chain[chain.slotOf(k)], static_cast<int>(k & 0xff));
    }
    EXPECT_FALSE(chain.contains(kDensePageLimit + 1));
    chain.erase(chain.slotOf(keys[2]));
    EXPECT_FALSE(chain.contains(keys[2]));
    EXPECT_EQ(chain.size(), 3u);
}

TEST(DensePageChain, PayloadReferencesSurviveArenaGrowth)
{
    DensePageChain<int> chain;
    const ChainSlot first = chain.insert(0);
    int &payload = chain[first];
    payload = 11;
    for (PageId p = 1; p < 5000; ++p)
        chain.pushBack(chain.insert(p));
    EXPECT_EQ(&chain[first], &payload);
    EXPECT_EQ(payload, 11);
}

TEST(DensePageChain, ForEachMayEraseTheVisitedSlot)
{
    DensePageChain<> chain;
    for (PageId p = 0; p < 6; ++p)
        chain.pushBack(chain.insert(p));
    chain.forEach([&](ChainSlot s) {
        if (chain.key(s) % 2 == 0)
            chain.erase(s);
    });
    EXPECT_EQ(keysOf(chain), (std::vector<PageId>{1, 3, 5}));
}

class DramTest : public ::testing::Test
{
  protected:
    DramTest() : dram_(cfg_, eq_, stats_, "dram") {}

    DramConfig cfg_{.channels = 2,
                    .banksPerChannel = 2,
                    .rowBytes = 1024,
                    .lineBytes = 128,
                    .rowHitLatency = 10,
                    .rowMissLatency = 50,
                    .burstCycles = 4};
    EventQueue eq_;
    StatRegistry stats_;
    Dram dram_;
};

TEST_F(DramTest, SingleReadCompletes)
{
    bool done = false;
    dram_.read(0, [&] { done = true; });
    eq_.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(eq_.now(), cfg_.rowMissLatency + cfg_.burstCycles);
}

TEST_F(DramTest, RowHitIsFaster)
{
    Cycle first = 0, second = 0;
    dram_.read(0, [&] { first = eq_.now(); });
    eq_.run();
    dram_.read(64, [&] { second = eq_.now(); }); // same row
    eq_.run();
    EXPECT_EQ(second - first, cfg_.rowHitLatency + cfg_.burstCycles);
    EXPECT_EQ(dram_.rowHits(), 1u);
    EXPECT_EQ(dram_.rowMisses(), 1u);
}

TEST_F(DramTest, FrFcfsPrefersRowHitOverOlder)
{
    // Address layout: channel = (addr/128)%2, bank = (addr/1024)%2,
    // row = addr/1024/2.  Use channel-0 addresses only (line index even).
    const Addr row0 = 0;         // ch0, bank0, row0
    const Addr row1 = 4096;      // ch0, bank0, row1
    const Addr row0_b = 256;     // ch0, bank0, row0 (second line)
    std::vector<int> order;
    dram_.read(row0, [&] { order.push_back(0); });
    // Queue while busy: an older row-miss request and a younger row-hit.
    dram_.read(row1, [&] { order.push_back(1); });
    dram_.read(row0_b, [&] { order.push_back(2); });
    eq_.run();
    // FR-FCFS services the row0 hit (younger) before the row1 miss.
    EXPECT_EQ(order, (std::vector<int>{0, 2, 1}));
}

TEST_F(DramTest, ChannelsServiceInParallel)
{
    Cycle a = 0, b = 0;
    dram_.read(0, [&] { a = eq_.now(); });   // channel 0
    dram_.read(128, [&] { b = eq_.now(); }); // channel 1
    eq_.run();
    EXPECT_EQ(a, b); // independent channels, same completion cycle
}

TEST_F(DramTest, IdleReflectsState)
{
    EXPECT_TRUE(dram_.idle());
    dram_.read(0, [] {});
    EXPECT_FALSE(dram_.idle());
    eq_.run();
    EXPECT_TRUE(dram_.idle());
}

} // namespace
} // namespace hpe
