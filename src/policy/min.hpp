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

    std::optional<std::vector<PageId>> trackedResidentPages() const override;

  private:
    static constexpr std::uint64_t kNever = UINT64_MAX;
    static constexpr std::uint32_t kNotResident = UINT32_MAX;

    /** The slot of @p page, tracking it first if it is new. */
    ChainSlot slotFor(PageId page);

    /** Advance the oracle one reference and refresh the page's next-use. */
    void observe(PageId page);

    struct PageState
    {
        std::vector<std::uint64_t> positions; ///< canonical reference order
        std::uint64_t refsSeen = 0;     ///< observations so far
        std::uint64_t nextUse = kNever; ///< canonical position of next ref
        std::uint32_t residentPos = kNotResident; ///< index in resident_
    };

    TracePtr trace_;
    /** Every page of the trace or observed since; the arena's lists are
     *  unused. */
    DensePageChain<PageState> pages_;
    /** Dense resident-slot list for victim scans (swap-remove). */
    std::vector<ChainSlot> resident_;
};

} // namespace hpe
