/**
 * @file
 * Uniform-random eviction, the policy Zheng et al. found competitive with
 * LRU for many workloads (and which the paper compares against in Fig. 12).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Evicts a uniformly random resident page; O(1) per operation. */
class RandomPolicy : public EvictionPolicy
{
  public:
    /** @param seed RNG seed; fixed per experiment for reproducibility. */
    explicit RandomPolicy(std::uint64_t seed = 1) : rng_(seed) {}

    void onHit(PageId) override {}
    void onFault(PageId) override {}

    PageId
    selectVictim() override
    {
        HPE_ASSERT(!pages_.empty(), "Random victim request with no resident pages");
        return pages_[rng_.below(pages_.size())];
    }

    void
    onEvict(PageId page) override
    {
        const std::uint32_t pos = index_.erase(page);
        HPE_ASSERT(pos != kAbsent, "evicting untracked page {:#x}", page);
        // Swap-remove to keep the resident vector dense.
        const PageId last = pages_.back();
        pages_.pop_back();
        if (last != page) {
            pages_[pos] = last;
            index_.erase(last);
            index_.insert(last, pos);
        }
    }

    void
    onMigrateIn(PageId page) override
    {
        index_.insert(page, static_cast<std::uint32_t>(pages_.size()));
        pages_.push_back(page);
    }

    std::string name() const override { return "Random"; }

    void reserveCapacity(std::size_t frames) override { pages_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        return pages_;
    }

  private:
    static constexpr std::uint32_t kAbsent = UINT32_MAX;

    Rng rng_;
    std::vector<PageId> pages_;
    DensePageMap<std::uint32_t, kAbsent> index_; ///< page -> position in pages_
};

} // namespace hpe
