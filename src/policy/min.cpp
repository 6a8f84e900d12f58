#include "policy/min.hpp"

#include <algorithm>
#include <utility>

#include "common/log.hpp"

namespace hpe {

namespace {

/** Max-heap order on next use. */
struct NextUseLess
{
    template <typename Entry>
    bool
    operator()(const Entry &a, const Entry &b) const
    {
        return a.nextUse < b.nextUse;
    }
};

} // namespace

void
MinPolicy::PositionBits::assign(std::size_t pos, bool on)
{
    const std::size_t w = pos >> 6;
    if (w >= words_.size()) {
        if (!on)
            return;
        words_.resize(w + 1, 0);
        summary_.resize((w >> 6) + 1, 0);
    }
    const std::uint64_t mask = std::uint64_t{1} << (pos & 63);
    words_[w] = on ? words_[w] | mask : words_[w] & ~mask;
    const std::uint64_t wmask = std::uint64_t{1} << (w & 63);
    summary_[w >> 6] = words_[w] != 0 ? summary_[w >> 6] | wmask
                                      : summary_[w >> 6] & ~wmask;
}

std::size_t
MinPolicy::PositionBits::lowest() const
{
    for (std::size_t i = 0; i < summary_.size(); ++i) {
        if (summary_[i] == 0)
            continue;
        const std::size_t w = i * 64 + static_cast<std::size_t>(__builtin_ctzll(summary_[i]));
        return w * 64 + static_cast<std::size_t>(__builtin_ctzll(words_[w]));
    }
    return kNone;
}

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
    const ChainSlot s = slotFor(page);
    PageState &st = pages_[s];
    const auto &pos = st.positions;
    if (pos.empty()) {
        st.nextUse = kNever;
        return;
    }
    const std::uint64_t seen = st.refsSeen < pos.size() ? st.refsSeen : pos.size() - 1;
    ++st.refsSeen;
    st.nextUse = seen + 1 < pos.size() ? pos[seen + 1] : kNever;
    if (st.residentPos != kNotResident)
        track(s);
}

void
MinPolicy::track(ChainSlot s)
{
    // Clear as well as set: a page prefetched before its first
    // observation arrives as never-used and turns finite on its first hit.
    const PageState &st = pages_[s];
    never_.assign(st.residentPos, st.nextUse == kNever);
    if (st.nextUse != kNever)
        push(s);
}

void
MinPolicy::push(ChainSlot s)
{
    if (heap_.size() >= 2 * resident_.size() + 64) {
        rebuild(); // s is resident, so the rebuild holds its entry
        return;
    }
    heap_.push_back(HeapEntry{pages_[s].nextUse, s});
    std::push_heap(heap_.begin(), heap_.end(), NextUseLess{});
}

void
MinPolicy::rebuild()
{
    heap_.clear();
    for (ChainSlot s : resident_)
        if (pages_[s].nextUse != kNever)
            heap_.push_back(HeapEntry{pages_[s].nextUse, s});
    std::make_heap(heap_.begin(), heap_.end(), NextUseLess{});
}

PageId
MinPolicy::selectVictim()
{
    HPE_ASSERT(!resident_.empty(), "MIN victim request with no resident pages");
    if (const std::size_t pos = never_.lowest(); pos != PositionBits::kNone)
        return pages_.key(resident_[pos]); // never used again: unbeatable victim
    for (;;) {
        HPE_ASSERT(!heap_.empty(), "MIN heap lost a resident page");
        const HeapEntry &top = heap_.front();
        const PageState &st = pages_[top.slot];
        if (st.residentPos != kNotResident && st.nextUse == top.nextUse)
            return pages_.key(top.slot);
        std::pop_heap(heap_.begin(), heap_.end(), NextUseLess{});
        heap_.pop_back();
    }
}

void
MinPolicy::onEvict(PageId page)
{
    const ChainSlot s = pages_.slotOf(page);
    HPE_ASSERT(s != kNoSlot && pages_[s].residentPos != kNotResident,
               "evicting untracked page {:#x}", page);
    // The page's heap entries go stale; they are popped or rebuilt away.
    const std::uint32_t pos = std::exchange(pages_[s].residentPos, kNotResident);
    const ChainSlot last = resident_.back();
    resident_.pop_back();
    never_.assign(pos, pages_[last].nextUse == kNever);
    never_.assign(resident_.size(), false);
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
    track(s);
}

void
MinPolicy::reserveCapacity(std::size_t frames)
{
    resident_.reserve(frames);
    heap_.reserve(2 * frames + 64);
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
