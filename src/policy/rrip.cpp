#include "policy/rrip.hpp"

#include <bit>

#include "common/log.hpp"

namespace hpe {

namespace {

/** Renumber before the offset could push a stored `s` out of int32. */
constexpr std::int64_t kMaxOffset = std::int64_t{1} << 30;

} // namespace

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
    const std::int64_t eff = effective(n.s);
    if (eff > 0) {
        n.s = static_cast<std::int32_t>(eff - 1 - offset_);
        setLeaf(n.leaf, Node{n.s, n.s});
    }
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
    if (offset_ > kMaxOffset)
        renumber();
    const std::int64_t max = maxRrpv();
    // After k agings the oldest page at the maximum RRPV is the oldest
    // with s >= max - k - offset.  Pages outside their delay window are a
    // prefix of insertion order, so some such page is outside the window
    // iff the oldest one is.  Fewer agings than max minus the highest
    // effective RRPV leave no page at the maximum, so k starts there.
    const std::int64_t top = effective(tree_[1].max);
    for (std::int64_t k = max - top; k <= max; ++k) {
        const std::uint32_t leaf = firstAtLeast(max - k - offset_);
        const ChainSlot s = leafSlot_[leaf];
        if (faultNumber_ - ring_[s].delay >= cfg_.delayThreshold) {
            offset_ += k;
            return ring_.key(s);
        }
    }
    // Every page is inside its delay window: age until every RRPV is
    // distant (aging cannot make progress past that), then take the
    // widest margin, the oldest insertion.
    offset_ += max - effective(tree_[1].min);
    return ring_.key(ring_.front());
}

void
RripPolicy::onEvict(PageId page)
{
    const ChainSlot s = ring_.slotOf(page);
    HPE_ASSERT(s != kNoSlot, "evicting untracked page {:#x}", page);
    setLeaf(ring_[s].leaf, Node{});
    ring_.erase(s);
}

void
RripPolicy::onMigrateIn(PageId page)
{
    if (nextLeaf_ == leafSlot_.size())
        renumber();
    const ChainSlot s = ring_.insert(page);
    const std::int64_t rrpv = cfg_.distantInsertion ? maxRrpv() : maxRrpv() - 1;
    const std::uint32_t leaf = nextLeaf_++;
    ring_[s] = {static_cast<std::int32_t>(rrpv - offset_), leaf, faultNumber_};
    ring_.pushBack(s);
    leafSlot_[leaf] = s;
    setLeaf(leaf, Node{ring_[s].s, ring_[s].s});
}

void
RripPolicy::setLeaf(std::uint32_t leaf, Node node)
{
    std::size_t i = leafSlot_.size() + leaf;
    tree_[i] = node;
    for (i >>= 1; i != 0; i >>= 1) {
        const Node &l = tree_[2 * i];
        const Node &r = tree_[2 * i + 1];
        const Node merged{std::max(l.max, r.max), std::min(l.min, r.min)};
        if (merged == tree_[i])
            break; // the ancestors above are unchanged too
        tree_[i] = merged;
    }
}

std::uint32_t
RripPolicy::firstAtLeast(std::int64_t x) const
{
    HPE_ASSERT(tree_[1].max >= x, "no RRIP page at or above {}", x);
    std::size_t i = 1;
    while (i < leafSlot_.size())
        i = tree_[2 * i].max >= x ? 2 * i : 2 * i + 1;
    return static_cast<std::uint32_t>(i - leafSlot_.size());
}

void
RripPolicy::renumber()
{
    const std::size_t leaves = std::bit_ceil(std::max<std::size_t>(32, ring_.size()) * 2);
    tree_.assign(2 * leaves, Node{});
    leafSlot_.assign(leaves, kNoSlot);
    nextLeaf_ = 0;
    ring_.forEach([&](ChainSlot s) {
        Prediction &n = ring_[s];
        n.s = static_cast<std::int32_t>(effective(n.s));
        n.leaf = nextLeaf_++;
        leafSlot_[n.leaf] = s;
        tree_[leaves + n.leaf] = Node{n.s, n.s};
    });
    offset_ = 0;
    for (std::size_t i = leaves - 1; i != 0; --i)
        tree_[i] = Node{std::max(tree_[2 * i].max, tree_[2 * i + 1].max),
                        std::min(tree_[2 * i].min, tree_[2 * i + 1].min)};
}

} // namespace hpe
