/**
 * @file
 * Page-level RRIP with frequency priority (FP), enhanced as in the paper
 * (§V-B "Compared to Other Policies"):
 *
 *  - each page carries an M-bit re-reference prediction value (RRPV);
 *  - FP hit promotion: a reference decrements the RRPV;
 *  - a per-page *delay* field records the global page-fault number at
 *    insertion; a victim must have the maximum RRPV *and* a fault-number
 *    margin of at least `delayThreshold` (128 for declared type-II
 *    workloads, which also insert at distant RRPV; 0 otherwise, with long
 *    RRPV insertion).
 *
 * If every page already sits at the maximum RRPV but none satisfies the
 * delay requirement (aging cannot make progress), the page with the widest
 * margin — i.e. the oldest insertion — is chosen; the paper does not define
 * this corner.
 */

#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "mem/page_index.hpp"
#include "policy/eviction_policy.hpp"

namespace hpe {

/** Tuning knobs for RripPolicy. */
struct RripConfig
{
    /** RRPV width in bits (max value = 2^bits - 1). */
    unsigned rrpvBits = 2;
    /** Insert with distant (max) RRPV instead of long (max-1). */
    bool distantInsertion = false;
    /** Minimum page-fault-number margin before a page may be evicted. */
    std::uint64_t delayThreshold = 0;

    /** The configuration the paper uses for declared type-II workloads. */
    static RripConfig
    thrashing()
    {
        return RripConfig{.rrpvBits = 2, .distantInsertion = true, .delayThreshold = 128};
    }
};

/** RRIP-FP over resident pages with the paper's delay enhancement. */
class RripPolicy : public EvictionPolicy
{
  public:
    explicit RripPolicy(const RripConfig &cfg = {});

    void onHit(PageId page) override;
    void onFault(PageId page) override;
    PageId selectVictim() override;
    void onEvict(PageId page) override;
    void onMigrateIn(PageId page) override;
    std::string name() const override { return "RRIP"; }

    void reserveCapacity(std::size_t frames) override { ring_.reserve(frames); }

    std::optional<std::vector<PageId>>
    trackedResidentPages() const override
    {
        std::vector<PageId> pages;
        pages.reserve(ring_.size());
        ring_.forEach([&](ChainSlot s) { pages.push_back(ring_.key(s)); });
        return pages;
    }

    /** Resident tracked pages (for tests). */
    std::size_t size() const { return ring_.size(); }

  private:
    struct Prediction
    {
        unsigned rrpv = 0;
        std::uint64_t delay = 0; ///< global fault number at insertion
    };

    unsigned maxRrpv() const { return (1u << cfg_.rrpvBits) - 1; }

    RripConfig cfg_;
    std::uint64_t faultNumber_ = 0;
    DensePageChain<Prediction> ring_; ///< resident pages, oldest first
};

} // namespace hpe
