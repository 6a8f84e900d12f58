/**
 * @file
 * Belady's MIN ("Ideal" in the paper): evict the resident page whose next
 * reference lies farthest in the future.
 *
 * MIN needs future knowledge, so it is constructed with the workload's
 * canonical page-reference trace.  In the functional paging simulator the
 * observed reference stream equals the canonical trace and MIN is exact
 * (the paper's offline upper bound).  In the timing simulator the stream
 * can reorder across pages, so MIN tracks each page's consumption of its
 * own canonical positions — an oracle-guided approximation matching the
 * paper's "similar to Belady's MIN" wording.
 *
 * Victims come from two indexes over the resident pages rather than a
 * scan: a bitmap over resident-list positions marking the pages never
 * used again (the lowest set bit is the first such page in resident-list
 * order, the victim a scan would stop at), and a lazy-deletion max-heap
 * of (next use, slot) for the rest.  Finite next uses are unique — every
 * trace position belongs to one page — so the heap top is the strict
 * maximum.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Shared immutable canonical reference trace. */
using TracePtr = std::shared_ptr<const std::vector<PageId>>;

/** Offline optimal eviction given the canonical future trace. */
class MinPolicy : public EvictionPolicy
{
  public:
    /** @param trace the canonical page-reference order of the workload. */
    explicit MinPolicy(TracePtr trace);

    void onHit(PageId page) override { observe(page); }
    void onFault(PageId page) override { observe(page); }
    PageId selectVictim() override;
    void onEvict(PageId page) override;
    void onMigrateIn(PageId page) override;
    std::string name() const override { return "Ideal"; }

    void reserveCapacity(std::size_t frames) override;

    std::optional<std::vector<PageId>> trackedResidentPages() const override;

  private:
    static constexpr std::uint64_t kNever = UINT64_MAX;
    static constexpr std::uint32_t kNotResident = UINT32_MAX;

    /** The slot of @p page, tracking it first if it is new. */
    ChainSlot slotFor(PageId page);

    /** Advance the oracle one reference and refresh the page's next-use. */
    void observe(PageId page);

    /** Re-index resident slot @p s after its next use was (re)set. */
    void track(ChainSlot s);

    /** Push the heap entry of resident slot @p s (finite next use). */
    void push(ChainSlot s);

    /** Drop every stale heap entry and re-heapify the live ones. */
    void rebuild();

    struct PageState
    {
        std::vector<std::uint64_t> positions; ///< canonical reference order
        std::uint64_t refsSeen = 0;     ///< observations so far
        std::uint64_t nextUse = kNever; ///< canonical position of next ref
        std::uint32_t residentPos = kNotResident; ///< index in resident_
    };

    /** Max-heap entry; stale once its page leaves or its next use moves. */
    struct HeapEntry
    {
        std::uint64_t nextUse;
        ChainSlot slot; ///< MIN never erases a slot, so it stays the page's
    };

    /** Bits over resident_ positions with a two-level lowest-bit query. */
    class PositionBits
    {
      public:
        static constexpr std::size_t kNone = SIZE_MAX;

        void assign(std::size_t pos, bool on);

        /** @return the lowest set position, or kNone. */
        std::size_t lowest() const;

      private:
        std::vector<std::uint64_t> words_;
        std::vector<std::uint64_t> summary_; ///< bit w: words_[w] != 0
    };

    TracePtr trace_;
    /** Every page of the trace or observed since; the arena's lists are
     *  unused. */
    DensePageChain<PageState> pages_;
    /** Dense resident-slot list (swap-remove). */
    std::vector<ChainSlot> resident_;
    /** Set at resident_ positions whose page is never used again. */
    PositionBits never_;
    /** Every resident page with a finite next use has a live entry. */
    std::vector<HeapEntry> heap_;
};

} // namespace hpe
