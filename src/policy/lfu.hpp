/**
 * @file
 * LFU — the representative frequency-based policy the paper cites (§VI)
 * when arguing that frequency information alone is not enough for
 * unified-memory eviction.  Included as an extra baseline.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/**
 * Exact least-frequently-used with FIFO tie-breaking.
 *
 * The victim index is a lazy-deletion binary min-heap over
 * (frequency, sequence) instead of an ordered map: hits and migrations
 * push a fresh entry and leave the superseded one in place, and
 * selectVictim() pops stale entries (sequence mismatch, or no longer
 * resident) until the top is live.  Sequence numbers are unique, so the
 * heap order — and therefore every victim — is exactly the ordered-map
 * minimum this replaced.  A rebuild pass compacts the heap whenever
 * stale entries outnumber live pages.
 */
class LfuPolicy : public EvictionPolicy
{
  public:
    void
    onHit(PageId page) override
    {
        if (const ChainSlot s = pages_.slotOf(page); s != kNoSlot)
            bump(s);
    }

    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!pages_.empty(), "LFU victim request with no pages");
        while (true) {
            HPE_ASSERT(!heap_.empty(), "LFU heap lost a resident page");
            const Entry &top = heap_.front();
            const State &st = pages_[top.slot];
            if (st.resident && st.sequence == top.sequence)
                return pages_.key(top.slot);
            std::pop_heap(heap_.begin(), heap_.end(), Greater{});
            heap_.pop_back();
        }
    }

    void
    onEvict(PageId page) override
    {
        const ChainSlot s = pages_.slotOf(page);
        HPE_ASSERT(s != kNoSlot && pages_[s].resident,
                   "evicting untracked page {:#x}", page);
        // Frequency survives eviction so a returning page keeps history;
        // the heap entry goes stale and is popped or compacted lazily.
        pages_[s].resident = false;
        pages_.remove(s);
    }

    void
    onMigrateIn(PageId page) override
    {
        ChainSlot s = pages_.slotOf(page);
        if (s == kNoSlot)
            s = pages_.insert(page);
        HPE_ASSERT(!pages_[s].resident, "double migrate-in of page {:#x}", page);
        pages_[s].resident = true;
        pages_.pushBack(s);
        bump(s);
    }

    std::string name() const override { return "LFU"; }

    void
    reserveCapacity(std::size_t frames) override
    {
        pages_.reserve(frames);
        heap_.reserve(2 * frames + 64);
    }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(pages_.length());
        pages_.forEach([&](ChainSlot s) { pages.push_back(pages_.key(s)); });
        return pages;
    }

    /** Frequency of @p page (0 if never seen); for tests. */
    std::uint64_t
    frequencyOf(PageId page) const
    {
        const ChainSlot s = pages_.slotOf(page);
        return s == kNoSlot ? 0 : pages_[s].frequency;
    }

  private:
    struct State
    {
        std::uint64_t frequency = 0;
        std::uint64_t sequence = 0;
        bool resident = false;
    };

    struct Entry
    {
        std::uint64_t frequency;
        std::uint64_t sequence;
        ChainSlot slot; ///< LFU never erases a slot, so it stays the page's
    };

    /** Min-heap order on (frequency, sequence); sequences are unique. */
    struct Greater
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.frequency != b.frequency)
                return a.frequency > b.frequency;
            return a.sequence > b.sequence;
        }
    };

    void
    bump(ChainSlot s)
    {
        State &st = pages_[s];
        ++st.frequency;
        st.sequence = ++clock_;
        if (st.resident)
            push(s);
    }

    void
    push(ChainSlot s)
    {
        if (heap_.size() >= 2 * pages_.length() + 64)
            rebuild();
        heap_.push_back(Entry{pages_[s].frequency, pages_[s].sequence, s});
        std::push_heap(heap_.begin(), heap_.end(), Greater{});
    }

    /** Drop every stale entry and re-heapify the live ones. */
    void
    rebuild()
    {
        heap_.clear();
        pages_.forEach([&](ChainSlot s) {
            heap_.push_back(Entry{pages_[s].frequency, pages_[s].sequence, s});
        });
        std::make_heap(heap_.begin(), heap_.end(), Greater{});
    }

    /** Every page ever seen; list 0 holds the resident ones. */
    DensePageChain<State> pages_;
    std::vector<Entry> heap_;
    std::uint64_t clock_ = 0;
};

} // namespace hpe
