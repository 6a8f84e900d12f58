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
 *
 * Aging is a global offset: a page stores `s`, its effective RRPV is
 * `min(max, s + offset)`, and aging every page k times is `offset += k`.
 * A max/min tree over insertion order answers "oldest page with
 * `s >= X`", and since `delay` never decreases along insertion order the
 * pages outside their delay window form a prefix of it.  So the victim of
 * the classic age-and-rescan loop — the oldest page at the maximum RRPV
 * outside its window, after the fewest agings that produce one — is at
 * most `max + 1` tree probes, and the offset advances by exactly the
 * number of agings that loop would apply.
 */

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

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
        std::int32_t s = 0;      ///< RRPV before the global age offset
        std::uint32_t leaf = 0;  ///< insertion-order position in the tree
        std::uint64_t delay = 0; ///< global fault number at insertion
    };

    /** Max and min `s` over a subtree; an empty leaf holds neither. */
    struct Node
    {
        std::int32_t max = INT32_MIN;
        std::int32_t min = INT32_MAX;
        bool operator==(const Node &) const = default;
    };

    unsigned maxRrpv() const { return (1u << cfg_.rrpvBits) - 1; }

    /** Effective RRPV of a page storing @p s. */
    std::int64_t
    effective(std::int32_t s) const
    {
        return std::min<std::int64_t>(maxRrpv(), s + offset_);
    }

    /** Set tree leaf @p leaf to @p node and refresh its ancestors. */
    void setLeaf(std::uint32_t leaf, Node node);

    /** The oldest leaf whose `s` is at least @p x; some leaf must be. */
    std::uint32_t firstAtLeast(std::int64_t x) const;

    /** Renumber the ring's leaves from 0, resize the tree to twice the
     *  ring, and fold the age offset into every `s`. */
    void renumber();

    RripConfig cfg_;
    std::uint64_t faultNumber_ = 0;
    std::int64_t offset_ = 0; ///< agings applied since the last renumber
    DensePageChain<Prediction> ring_; ///< resident pages, oldest first
    /** Segment tree over leaves; node 1 is the root, leaves from
     *  leafSlot_.size(). */
    std::vector<Node> tree_;
    std::vector<ChainSlot> leafSlot_; ///< leaf -> ring slot
    std::uint32_t nextLeaf_ = 0;      ///< leaf of the next insertion
};

} // namespace hpe
