/**
 * @file
 * Plain CLOCK (second-chance) at page granularity — the classic LRU
 * approximation the paper's related-work section discusses (§VI) as the
 * base that NRU/WSClock/CAR/CLOCK-Pro improve on.  Included as an extra
 * baseline beyond the paper's evaluated set.
 */

#pragma once

#include "common/log.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Second-chance circular list with one reference bit per page. */
class ClockPolicy : public EvictionPolicy
{
  public:
    void
    onHit(PageId page) override
    {
        if (const ChainSlot s = ring_.slotOf(page); s != kNoSlot)
            ring_[s] = true;
    }

    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!ring_.empty(), "CLOCK victim request with no pages");
        for (;;) {
            if (hand_ == kNoSlot)
                hand_ = ring_.front();
            if (ring_[hand_]) {
                // Second chance: clear and advance.
                ring_[hand_] = false;
                hand_ = ring_.next(hand_);
                continue;
            }
            return ring_.key(hand_);
        }
    }

    void
    onEvict(PageId page) override
    {
        const ChainSlot s = ring_.slotOf(page);
        HPE_ASSERT(s != kNoSlot, "evicting untracked page {:#x}", page);
        if (hand_ == s)
            hand_ = ring_.next(s);
        ring_.erase(s);
    }

    void
    onMigrateIn(PageId page) override
    {
        const ChainSlot s = ring_.insert(page);
        // Insert behind the hand (newest position on the clock face).
        if (hand_ != kNoSlot)
            ring_.insertBefore(hand_, s);
        else
            ring_.pushBack(s);
    }

    std::string name() const override { return "CLOCK"; }

    void reserveCapacity(std::size_t frames) override { ring_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(ring_.size());
        ring_.forEach([&](ChainSlot s) { pages.push_back(ring_.key(s)); });
        return pages;
    }

  private:
    DensePageChain<bool> ring_; ///< payload: the reference bit
    ChainSlot hand_ = kNoSlot;
};

} // namespace hpe
