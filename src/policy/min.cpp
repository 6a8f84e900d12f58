#include "policy/min.hpp"

#include <utility>

#include "common/log.hpp"

namespace hpe {

MinPolicy::MinPolicy(TracePtr trace)
    : trace_(std::move(trace))
{
    HPE_ASSERT(trace_ != nullptr, "MIN requires a canonical trace");
    for (std::uint64_t i = 0; i < trace_->size(); ++i)
        pages_[slotFor((*trace_)[i])].positions.push_back(i);
}

ChainSlot
MinPolicy::slotFor(PageId page)
{
    const ChainSlot s = pages_.slotOf(page);
    return s != kNoSlot ? s : pages_.insert(page);
}

void
MinPolicy::observe(PageId page)
{
    // Per-page consumption: the k-th observation of a page corresponds to
    // its k-th canonical reference, so its next use is position k+1.
    // Per-page pointers are immune to the cross-page reordering of the
    // timing simulator, and the driver guarantees every visit reaches the
    // policy exactly once (merged faults arrive as hits after wakeup), so
    // the pointers stay synchronized; in the functional simulator this is
    // exact Belady MIN.
    PageState &st = pages_[slotFor(page)];
    const auto &pos = st.positions;
    if (pos.empty()) {
        st.nextUse = kNever;
        return;
    }
    const std::uint64_t seen = st.refsSeen < pos.size() ? st.refsSeen : pos.size() - 1;
    ++st.refsSeen;
    st.nextUse = seen + 1 < pos.size() ? pos[seen + 1] : kNever;
}

PageId
MinPolicy::selectVictim()
{
    HPE_ASSERT(!resident_.empty(), "MIN victim request with no resident pages");
    ChainSlot best = kNoSlot;
    std::uint64_t best_use = 0;
    for (ChainSlot s : resident_) {
        const std::uint64_t next_use = pages_[s].nextUse;
        if (next_use == kNever)
            return pages_.key(s); // never used again: unbeatable victim
        if (best == kNoSlot || next_use > best_use) {
            best = s;
            best_use = next_use;
        }
    }
    return pages_.key(best);
}

void
MinPolicy::onEvict(PageId page)
{
    const ChainSlot s = pages_.slotOf(page);
    HPE_ASSERT(s != kNoSlot && pages_[s].residentPos != kNotResident,
               "evicting untracked page {:#x}", page);
    const std::uint32_t pos = std::exchange(pages_[s].residentPos, kNotResident);
    const ChainSlot last = resident_.back();
    resident_.pop_back();
    if (last != s) {
        resident_[pos] = last;
        pages_[last].residentPos = pos;
    }
}

void
MinPolicy::onMigrateIn(PageId page)
{
    const ChainSlot s = slotFor(page);
    HPE_ASSERT(pages_[s].residentPos == kNotResident,
               "double migrate-in of page {:#x}", page);
    pages_[s].residentPos = static_cast<std::uint32_t>(resident_.size());
    resident_.push_back(s);
}

std::optional<std::vector<PageId>>
MinPolicy::trackedResidentPages() const
{
    std::vector<PageId> pages;
    pages.reserve(resident_.size());
    for (ChainSlot s : resident_)
        pages.push_back(pages_.key(s));
    return pages;
}

} // namespace hpe
