/**
 * @file
 * Page-level LRU, the baseline policy of the paper.
 *
 * Per the paper's "ideal model", both page-walk hits and page faults update
 * the recency chain in exact reference order with no transfer latency.
 *
 * The chain is a DensePageChain: struct-of-arrays links with a
 * direct-indexed page->slot map, so the per-reference recency update is
 * a few array writes with no hashing and no allocation.
 */

#pragma once

#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Exact page-granularity LRU chain (front = LRU victim, back = MRU). */
class LruPolicy : public EvictionPolicy
{
  public:
    void
    onHit(PageId page) override
    {
        if (const ChainSlot s = chain_.slotOf(page); s != kNoSlot)
            chain_.moveToBack(s);
    }

    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!chain_.empty(), "LRU victim request with no resident pages");
        return chain_.key(chain_.front());
    }

    void
    onEvict(PageId page) override
    {
        const ChainSlot s = chain_.slotOf(page);
        HPE_ASSERT(s != kNoSlot, "evicting untracked page {:#x}", page);
        chain_.erase(s);
    }

    void onMigrateIn(PageId page) override { chain_.pushBack(chain_.insert(page)); }

    /** Speculative arrivals enter at the LRU (cold) end: a prefetched
     *  page is the first victim unless it proves itself with a hit. */
    void onPrefetchIn(PageId page) override { chain_.pushFront(chain_.insert(page)); }

    std::string name() const override { return "LRU"; }

    void reserveCapacity(std::size_t frames) override { chain_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(chain_.size());
        chain_.forEach([&](ChainSlot s) { pages.push_back(chain_.key(s)); });
        return pages;
    }

    /** Number of tracked resident pages (for tests). */
    std::size_t size() const { return chain_.size(); }

  private:
    DensePageChain<> chain_;
};

} // namespace hpe
