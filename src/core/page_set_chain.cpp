#include "core/page_set_chain.hpp"

#include <bit>

#include "common/log.hpp"
#include "trace/trace_sink.hpp"

namespace hpe {

PageSetChain::PageSetChain(const HpeConfig &cfg, StatRegistry &stats,
                           const std::string &name)
    : cfg_(cfg),
      setShift_(static_cast<std::uint32_t>(std::countr_zero(cfg.pageSetSize))),
      fullMask_(cfg.pageSetSize == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << cfg.pageSetSize) - 1),
      divisions_(stats.counter(name + ".divisions")),
      insertions_(stats.counter(name + ".insertions")),
      movements_(stats.counter(name + ".movements"))
{
    cfg_.validate();
}

void
PageSetChain::emitChainOp(std::uint8_t op, PageSetId set, std::uint64_t value)
{
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::ChainOp, op, set, value);
}

bool
PageSetChain::belongsToPrimary(PageId page) const
{
    const PageSetId set = page >> setShift_;
    const std::uint64_t bit = std::uint64_t{1}
        << (page & (cfg_.pageSetSize - 1));

    // Fig. 6 step 2: consult the history buffer first (previously evicted
    // divided sets), then any live divided primary on the chain.
    if (auto it = history_.find(set); it != history_.end())
        return (it->second & bit) != 0;
    if (const ChainEntry *primary = find(set, false);
        primary != nullptr && primary->divided)
        return (primary->primaryMask & bit) != 0;
    return true;
}

ChainSlot
PageSetChain::create(PageSetId set, bool secondary, Partition part)
{
    const ChainSlot s = entries_.insert(ChainEntry::keyOf(set, secondary));
    ChainEntry &entry = entries_[s];
    entry.set = set;
    entry.secondary = secondary;
    entry.part = part;
    // A re-inserted primary inherits its sticky first-division result so
    // later touches keep routing to the same halves (§IV-C).
    if (!secondary) {
        if (auto it = history_.find(set); it != history_.end()) {
            entry.divided = true;
            entry.primaryMask = it->second;
        }
    }
    ++insertions_;
    emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Insert), set,
                secondary ? 1 : 0);
    return s;
}

void
PageSetChain::promoteToNew(ChainSlot s)
{
    ChainEntry &entry = entries_[s];
    entries_.remove(s, listOf(entry.part));
    entry.part = Partition::New;
    entries_.pushBack(s, listOf(Partition::New));
    ++movements_;
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::Promotion,
                    static_cast<std::uint8_t>(trace::PromotionScope::HpePageSet),
                    entry.set, entry.secondary ? 1 : 0);
}

TouchResult
PageSetChain::touch(PageId page, std::uint32_t count, bool is_fault)
{
    HPE_ASSERT(count > 0, "touch with zero count");
    const PageSetId set = setOf(page);
    const std::uint32_t offset = offsetOf(page);
    const bool secondary = !belongsToPrimary(page);

    TouchResult result;
    ChainSlot s = entries_.slotOf(ChainEntry::keyOf(set, secondary));
    if (s == kNoSlot) {
        s = create(set, secondary, Partition::New);
        entries_.pushBack(s, listOf(Partition::New));
        result.created = true;
    }
    ChainEntry &e = entries_[s];
    result.entry = &e;

    const bool was_over_threshold = e.counter >= cfg_.divisionThreshold;
    e.counter = std::min(e.counter + count, cfg_.counterMax);
    if (is_fault)
        e.bitVec |= std::uint64_t{1} << offset;

    // Division check (§IV-C): the first time the counter crosses the
    // division threshold (the paper divides at saturation; lowering the
    // threshold is the NW relaxation of §V-B), an incomplete bit vector
    // divides the set.  Secondary halves and already divided sets never
    // divide again, and a set with no faulted pages at all is left alone
    // (an empty primary mask would route everything to the secondary).
    if (cfg_.enableDivision && !was_over_threshold
        && e.counter >= cfg_.divisionThreshold && !e.divided
        && !e.secondary && (e.bitVec & fullMask_) != fullMask_ && e.bitVec != 0) {
        e.divided = true;
        e.primaryMask = e.bitVec;
        result.dividedNow = true;
        ++divisions_;
        emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Divide), set,
                    e.primaryMask);
    }

    // Movement (§IV-C note 2): once in the new partition, further touches
    // in the same interval cause no movement.
    if (e.part != Partition::New)
        promoteToNew(s);

    return result;
}

void
PageSetChain::insertCold(PageId page)
{
    const PageSetId set = setOf(page);
    const std::uint32_t offset = offsetOf(page);
    const bool secondary = !belongsToPrimary(page);

    ChainSlot s = entries_.slotOf(ChainEntry::keyOf(set, secondary));
    if (s == kNoSlot) {
        // Land at the LRU end of the old partition: a set that exists
        // only through speculation has shown no recency at all, so it
        // must not displace tracked sets from the eviction order.
        s = create(set, secondary, Partition::Old);
        entries_.pushFront(s, listOf(Partition::Old));
    }
    // The page is resident now, so the bit-vector records it (victim
    // search walks these bits); the counter and the entry's position are
    // untouched — speculation earns no frequency and no recency.
    entries_[s].bitVec |= std::uint64_t{1} << offset;
    if (sink_ != nullptr)
        sink_->emit(trace::EventKind::Demotion,
                    static_cast<std::uint8_t>(trace::PromotionScope::HpePageSet),
                    set, 1);
}

void
PageSetChain::endInterval()
{
    // P1 <- P2: the middle partition ages into old; P2 <- tail: the sets of
    // the finished interval become the middle partition.
    const unsigned old_list = listOf(Partition::Old);
    const unsigned middle_list = listOf(Partition::Middle);
    const unsigned new_list = listOf(Partition::New);
    entries_.forEach([&](ChainSlot s) { entries_[s].part = Partition::Old; },
                     middle_list);
    entries_.forEach([&](ChainSlot s) { entries_[s].part = Partition::Middle; },
                     new_list);
    entries_.spliceBack(old_list, middle_list);
    entries_.spliceBack(middle_list, new_list);
    emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Rotate), 0,
                entries_.size());
}

void
PageSetChain::remove(const ChainEntry &entry)
{
    if (entry.divided && !entry.secondary) {
        // Record only the first division result (sticky thereafter).
        history_.emplace(entry.set, entry.primaryMask);
    }
    emitChainOp(static_cast<std::uint8_t>(trace::ChainOpKind::Remove), entry.set,
                entry.secondary ? 1 : 0);
    const ChainSlot s = entries_.slotOf(ChainEntry::keyOf(entry.set, entry.secondary));
    HPE_ASSERT(s != kNoSlot && &entries_[s] == &entry,
               "chain entry {:#x} missing from index", entry.set);
    entries_.erase(s, listOf(entry.part));
}

} // namespace hpe
