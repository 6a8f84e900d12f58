#include "policy/clock_pro.hpp"

#include "common/log.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

ClockProPolicy::ClockProPolicy(const ClockProConfig &cfg)
    : cfg_(cfg)
{
    HPE_ASSERT(cfg.coldAllocation > 0, "cold allocation must be positive");
}

void
ClockProPolicy::emitTransition(bool promotion, PageId page)
{
    if (sink_ == nullptr)
        return;
    sink_->emit(promotion ? trace::EventKind::Promotion
                          : trace::EventKind::Demotion,
                static_cast<std::uint8_t>(trace::PromotionScope::ClockProPage),
                page, 0);
}

ChainSlot
ClockProPolicy::clockNext(ChainSlot hand) const
{
    const ChainSlot n = hand == kNoSlot ? kNoSlot : clock_.next(hand);
    return n != kNoSlot ? n : clock_.front();
}

void
ClockProPolicy::passHands(ChainSlot s)
{
    // A hand parked on a leaving slot advances first so it never follows
    // it.  It may land on kNoSlot if s is the tail; clockNext() handles
    // wrap-around lazily on the next use.
    for (ChainSlot *hand : {&handCold_, &handHot_, &handTest_})
        if (*hand == s)
            *hand = clock_.next(s);
}

void
ClockProPolicy::drop(ChainSlot s)
{
    passHands(s);
    clock_.erase(s);
}

void
ClockProPolicy::onHit(PageId page)
{
    const ChainSlot s = clock_.slotOf(page);
    if (s == kNoSlot)
        return;
    Meta &n = clock_[s];
    HPE_ASSERT(n.state != State::ColdNonResident,
               "walk hit on non-resident page {:#x}", page);
    // References only set the bit; list movement happens at the hands.
    n.ref = true;
}

void
ClockProPolicy::onFault(PageId)
{
    // Promotion decisions are made at migrate-in, when the page's previous
    // test-period metadata (if any) is still available.
}

void
ClockProPolicy::runHandHot()
{
    // Demote the first hot page with a clear ref bit; clear bits and end
    // cold test periods along the way (as the original HAND_hot does).
    std::size_t guard = 2 * clock_.size() + 2;
    while (numHot_ > 0 && guard-- > 0) {
        handHot_ = clockNext(handHot_);
        Meta &n = clock_[handHot_];
        if (n.state == State::Hot) {
            if (n.ref) {
                n.ref = false;
            } else {
                n.state = State::ColdResident;
                n.test = false;
                --numHot_;
                ++numColdRes_;
                emitTransition(/*promotion=*/false, clock_.key(handHot_));
                return;
            }
        } else if (n.state == State::ColdNonResident) {
            const ChainSlot victim = handHot_;
            handHot_ = clock_.prev(victim); // advance past it on next call
            drop(victim);
            --numColdNonRes_;
        } else {
            // Resident cold page: passing HAND_hot terminates its test.
            n.test = false;
        }
    }
}

void
ClockProPolicy::runHandTest()
{
    std::size_t guard = clock_.size() + 1;
    while ((numColdNonRes_ > 0 || numColdRes_ > 0) && guard-- > 0) {
        handTest_ = clockNext(handTest_);
        Meta &n = clock_[handTest_];
        if (n.state == State::ColdNonResident) {
            const ChainSlot victim = handTest_;
            handTest_ = clock_.prev(victim);
            drop(victim);
            --numColdNonRes_;
            return;
        }
        if (n.state == State::ColdResident && n.test) {
            n.test = false;
            return;
        }
    }
}

PageId
ClockProPolicy::selectVictim()
{
    HPE_ASSERT(numColdRes_ + numHot_ > 0, "CLOCK-Pro victim request with no pages");
    // HAND_cold sweeps resident cold pages looking for an unreferenced one.
    for (;;) {
        if (numColdRes_ == 0) {
            // All residents are hot; force a demotion so a victim exists.
            runHandHot();
            if (numColdRes_ == 0) {
                // Pathological (e.g. every hot page referenced); sweep again.
                continue;
            }
        }
        handCold_ = clockNext(handCold_);
        Meta &n = clock_[handCold_];
        if (n.state != State::ColdResident)
            continue;
        if (n.ref) {
            if (n.test) {
                // Re-referenced within its test period: promote to hot.
                n.ref = false;
                n.test = false;
                n.state = State::Hot;
                --numColdRes_;
                ++numHot_;
                emitTransition(/*promotion=*/true, clock_.key(handCold_));
                // Keep the resident cold allocation near m_c: a promotion
                // that drops cold residency below target demotes a hot page
                // (unless the whole population fits in the allocation).
                if (numColdRes_ < cfg_.coldAllocation && numHot_ > 0
                    && numHot_ + numColdRes_ > cfg_.coldAllocation)
                    runHandHot();
            } else {
                // Referenced but past its test: recycle with a fresh test.
                // The slot moves, so the other hands parked on it follow.
                n.ref = false;
                n.test = true;
                const ChainSlot moved = handCold_;
                handCold_ = clock_.prev(moved);
                clock_.moveToBack(moved);
            }
            continue;
        }
        // Unreferenced resident cold page: this is the victim.
        return clock_.key(handCold_);
    }
}

void
ClockProPolicy::onEvict(PageId page)
{
    const ChainSlot s = clock_.slotOf(page);
    HPE_ASSERT(s != kNoSlot, "evicting untracked page {:#x}", page);
    Meta &n = clock_[s];
    HPE_ASSERT(n.state != State::ColdNonResident, "evicting non-resident page");
    if (n.state == State::Hot) {
        // Forced eviction of a hot page (driver override); drop it entirely.
        --numHot_;
        drop(s);
        return;
    }
    --numColdRes_;
    if (n.test) {
        // Keep metadata: if the page faults back in during its test period
        // it will be promoted to hot.
        n.state = State::ColdNonResident;
        ++numColdNonRes_;
        while (numColdNonRes_ > cfg_.maxNonResident)
            runHandTest();
    } else {
        drop(s);
    }
}

void
ClockProPolicy::onMigrateIn(PageId page)
{
    const ChainSlot s = clock_.slotOf(page);
    if (s != kNoSlot) {
        // Faulted back during its test period: promote straight to hot
        // (its reuse distance beat a full cold-allocation sweep).
        Meta &n = clock_[s];
        HPE_ASSERT(n.state == State::ColdNonResident,
                   "migrate-in of already-resident page {:#x}", page);
        --numColdNonRes_;
        // Move to the newest clock position as a hot page.
        passHands(s);
        clock_.moveToBack(s);
        n.state = State::Hot;
        n.ref = false;
        n.test = false;
        ++numHot_;
        emitTransition(/*promotion=*/true, page);
        // Rebalance only when the hot set crowds out the cold allocation
        // (m_h = M - m_c); small populations keep their hot pages.
        if (numColdRes_ < cfg_.coldAllocation
            && numHot_ + numColdRes_ > cfg_.coldAllocation)
            runHandHot();
        return;
    }
    insertNew(page);
}

void
ClockProPolicy::onPrefetchIn(PageId page)
{
    ChainSlot s = clock_.slotOf(page);
    if (s != kNoSlot) {
        // The page has non-resident test metadata, but this arrival is
        // speculation, not a demonstrated refault — no hot promotion.
        // It rejoins the clock as a plain resident cold page.
        HPE_ASSERT(clock_[s].state == State::ColdNonResident,
                   "prefetch-in of already-resident page {:#x}", page);
        --numColdNonRes_;
        passHands(s);
        clock_.remove(s);
    } else {
        // Brand-new page.
        s = clock_.insert(page);
    }
    // Resident cold at the *oldest* clock position and outside any test
    // period, so HAND_cold reclaims it first unless a real reference
    // arrives.
    clock_[s] = Meta{State::ColdResident, false, false};
    clock_.pushFront(s);
    ++numColdRes_;
    // Observable cold placement of a speculative page (value 1 flags the
    // speculation, distinguishing it from hot->cold demotions).
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::Demotion,
                    static_cast<std::uint8_t>(trace::PromotionScope::ClockProPage),
                    page, 1);
}

std::optional<std::vector<PageId>>
ClockProPolicy::trackedResidentPages() const
{
    // Resident = hot + resident-cold; non-resident cold entries are test
    // metadata only and must not be reported.
    std::vector<PageId> pages;
    pages.reserve(numHot_ + numColdRes_);
    clock_.forEach([&](ChainSlot s) {
        if (clock_[s].state != State::ColdNonResident)
            pages.push_back(clock_.key(s));
    });
    return pages;
}

void
ClockProPolicy::insertNew(PageId page)
{
    const ChainSlot s = clock_.insert(page);
    clock_[s] = Meta{State::ColdResident, false, /*test=*/true};
    clock_.pushBack(s);
    ++numColdRes_;
}

} // namespace hpe
