#include "policy/rrip.hpp"

#include "common/log.hpp"

namespace hpe {

RripPolicy::RripPolicy(const RripConfig &cfg)
    : cfg_(cfg)
{
    HPE_ASSERT(cfg.rrpvBits >= 1 && cfg.rrpvBits <= 8,
               "unreasonable RRPV width {}", cfg.rrpvBits);
}

void
RripPolicy::onHit(PageId page)
{
    const ChainSlot s = ring_.slotOf(page);
    if (s == kNoSlot)
        return;
    // Frequency priority: each re-reference steps the prediction nearer.
    Prediction &n = ring_[s];
    if (n.rrpv > 0)
        --n.rrpv;
}

void
RripPolicy::onFault(PageId)
{
    ++faultNumber_;
}

PageId
RripPolicy::selectVictim()
{
    HPE_ASSERT(!ring_.empty(), "RRIP victim request with no resident pages");
    const unsigned max = maxRrpv();
    for (;;) {
        // Pass 1: oldest-first scan for a distant page outside its delay
        // window.
        bool any_below_max = false;
        for (ChainSlot s = ring_.front(); s != kNoSlot; s = ring_.next(s)) {
            const Prediction &n = ring_[s];
            if (n.rrpv < max) {
                any_below_max = true;
                continue;
            }
            if (faultNumber_ - n.delay >= cfg_.delayThreshold)
                return ring_.key(s);
        }
        if (!any_below_max)
            break; // aging cannot make progress
        // Age every page and rescan, as in the original SRRIP victim loop.
        ring_.forEach([&](ChainSlot s) {
            if (ring_[s].rrpv < max)
                ++ring_[s].rrpv;
        });
    }
    // Every RRPV is distant but all pages are inside the delay window:
    // take the widest margin (oldest insertion).
    ChainSlot best = ring_.front();
    ring_.forEach([&](ChainSlot s) {
        if (ring_[s].delay < ring_[best].delay)
            best = s;
    });
    return ring_.key(best);
}

void
RripPolicy::onEvict(PageId page)
{
    const ChainSlot s = ring_.slotOf(page);
    HPE_ASSERT(s != kNoSlot, "evicting untracked page {:#x}", page);
    ring_.erase(s);
}

void
RripPolicy::onMigrateIn(PageId page)
{
    const ChainSlot s = ring_.insert(page);
    ring_[s] = {cfg_.distantInsertion ? maxRrpv() : maxRrpv() - 1, faultNumber_};
    ring_.pushBack(s);
}

} // namespace hpe
