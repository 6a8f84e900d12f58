/**
 * @file
 * Dense page-keyed containers for the fault hot path.
 *
 * Every reference the functional simulator replays consults page-keyed
 * state at least twice (residency, then policy/dirty bookkeeping).  The
 * traces address a small, bounded page-id space starting near zero, so a
 * direct-indexed array beats a hash map: no hashing, no probing, one
 * cache line per query.  Page ids outside the dense window — in practice
 * only the multi-app driver's address-space slices, which set bit 40 —
 * fall back to a hash container, so correctness never depends on the
 * bound.
 *
 * The dense window grows lazily to the highest page actually touched
 * (rounded up to a power of two), so memory tracks the workload
 * footprint, not the configured limit.
 *
 * DensePageChain builds on that map as the one store for per-page
 * policy state: a slot arena whose slots carry a key, a payload and
 * links for one or more lists threaded through shared arrays.  Every
 * eviction policy keeps its recency chains, clock rings and per-page
 * metadata there, and HPE's page-set chain keeps its three partitions
 * as three lists of one arena.
 */

#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/log.hpp"
#include "common/types.hpp"

namespace hpe {

/**
 * Pages below this id use direct indexing (4 M pages = 16 GB of virtual
 * address space at 4 KB); pages above it use the overflow hash container.
 */
inline constexpr PageId kDensePageLimit = PageId{1} << 22;

/**
 * Page -> V map: direct-indexed below kDensePageLimit, hashed above.
 * @p Invalid marks empty dense slots and must never be stored as a value.
 */
template <typename V, V Invalid>
class DensePageMap
{
  public:
    /** @return the value of @p page, or Invalid if absent. */
    V
    lookup(PageId page) const
    {
        if (page < dense_.size()) [[likely]]
            return dense_[page];
        if (page < kDensePageLimit)
            return Invalid;
        auto it = overflow_.find(page);
        return it == overflow_.end() ? Invalid : it->second;
    }

    bool contains(PageId page) const { return lookup(page) != Invalid; }

    /** Insert (@p page -> @p value); @p page must be absent. */
    void
    insert(PageId page, V value)
    {
        if (page < kDensePageLimit) {
            if (page >= dense_.size())
                grow(page);
            dense_[page] = value;
        } else {
            overflow_.emplace(page, value);
        }
        ++size_;
    }

    /** Remove @p page. @return its value, or Invalid if it was absent. */
    V
    erase(PageId page)
    {
        if (page < dense_.size()) {
            const V old = dense_[page];
            if (old != Invalid) {
                dense_[page] = Invalid;
                --size_;
            }
            return old;
        }
        if (page < kDensePageLimit)
            return Invalid;
        auto it = overflow_.find(page);
        if (it == overflow_.end())
            return Invalid;
        const V old = it->second;
        overflow_.erase(it);
        --size_;
        return old;
    }

    std::size_t size() const { return size_; }

    /** Visit every (page, value) pair: dense ascending, then overflow. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (PageId page = 0; page < dense_.size(); ++page)
            if (dense_[page] != Invalid)
                fn(page, dense_[page]);
        for (const auto &[page, value] : overflow_)
            fn(page, value);
    }

  private:
    void
    grow(PageId page)
    {
        std::size_t capacity = dense_.empty() ? 1024 : dense_.size();
        while (capacity <= page)
            capacity *= 2;
        dense_.resize(capacity, Invalid);
    }

    std::vector<V> dense_;
    std::unordered_map<PageId, V> overflow_;
    std::size_t size_ = 0;
};

/** Page set: one bit per page below kDensePageLimit, hashed above. */
class DensePageSet
{
  public:
    bool
    contains(PageId page) const
    {
        const std::size_t word = static_cast<std::size_t>(page >> 6);
        if (word < bits_.size()) [[likely]]
            return (bits_[word] >> (page & 63)) & 1;
        if (page < kDensePageLimit)
            return false;
        return overflow_.contains(page);
    }

    /** @return true if @p page was newly inserted. */
    bool
    insert(PageId page)
    {
        if (page < kDensePageLimit) {
            const std::size_t word = static_cast<std::size_t>(page >> 6);
            if (word >= bits_.size())
                grow(word);
            const std::uint64_t mask = std::uint64_t{1} << (page & 63);
            if (bits_[word] & mask)
                return false;
            bits_[word] |= mask;
            ++size_;
            return true;
        }
        const bool inserted = overflow_.insert(page).second;
        size_ += inserted ? 1 : 0;
        return inserted;
    }

    /** @return true if @p page was present and removed. */
    bool
    erase(PageId page)
    {
        const std::size_t word = static_cast<std::size_t>(page >> 6);
        if (word < bits_.size()) {
            const std::uint64_t mask = std::uint64_t{1} << (page & 63);
            if (!(bits_[word] & mask))
                return false;
            bits_[word] &= ~mask;
            --size_;
            return true;
        }
        if (page < kDensePageLimit)
            return false;
        const bool erased = overflow_.erase(page) > 0;
        size_ -= erased ? 1 : 0;
        return erased;
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    clear()
    {
        bits_.clear();
        overflow_.clear();
        size_ = 0;
    }

    /** Visit every member page: dense ascending, then overflow. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t word = 0; word < bits_.size(); ++word) {
            std::uint64_t w = bits_[word];
            while (w != 0) {
                const unsigned bit = static_cast<unsigned>(__builtin_ctzll(w));
                fn(static_cast<PageId>(word * 64 + bit));
                w &= w - 1;
            }
        }
        for (PageId page : overflow_)
            fn(page);
    }

  private:
    void
    grow(std::size_t word)
    {
        std::size_t capacity = bits_.empty() ? 16 : bits_.size();
        while (capacity <= word)
            capacity *= 2;
        bits_.resize(capacity, 0);
    }

    std::vector<std::uint64_t> bits_;
    std::unordered_set<PageId> overflow_;
    std::size_t size_ = 0;
};

/**
 * Per-region residency counter for the huge-page coalescer: counts how
 * many 4 KiB pages are resident in each naturally-aligned 2^order-page
 * region.  Regions below kDensePageLimit use a direct-indexed array (one
 * counter per region — at order >= 4 this is a small fraction of the page
 * table itself); higher regions fall back to a hash map, mirroring the
 * DensePageMap convention, so correctness never depends on the window.
 */
class DenseRegionCounter
{
  public:
    /** @param order region size as log2 subpages (4 = 64 KiB regions). */
    explicit DenseRegionCounter(unsigned order)
        : order_(order)
    {
        HPE_ASSERT(order >= 1 && order < 20, "bad region order {}", order);
    }

    unsigned order() const { return order_; }

    /** Count of resident pages in @p page's region. */
    std::uint32_t
    count(PageId page) const
    {
        const PageId region = page >> order_;
        if (region < dense_.size())
            return dense_[region];
        if (region < (kDensePageLimit >> order_))
            return 0;
        auto it = overflow_.find(region);
        return it == overflow_.end() ? 0 : it->second;
    }

    /** A page in @p page's region became resident. @return the new count. */
    std::uint32_t
    increment(PageId page)
    {
        const PageId region = page >> order_;
        if (region < (kDensePageLimit >> order_)) {
            if (region >= dense_.size())
                grow(region);
            const std::uint32_t now = ++dense_[region];
            HPE_ASSERT(now <= (std::uint32_t{1} << order_),
                       "region {:#x} overfull", region);
            return now;
        }
        return ++overflow_[region];
    }

    /** A page in @p page's region was evicted. @return the new count. */
    std::uint32_t
    decrement(PageId page)
    {
        const PageId region = page >> order_;
        if (region < (kDensePageLimit >> order_)) {
            HPE_ASSERT(region < dense_.size() && dense_[region] > 0,
                       "region {:#x} count underflow", region);
            return --dense_[region];
        }
        auto it = overflow_.find(region);
        HPE_ASSERT(it != overflow_.end() && it->second > 0,
                   "region {:#x} count underflow", region);
        const std::uint32_t now = --it->second;
        if (now == 0)
            overflow_.erase(it);
        return now;
    }

  private:
    void
    grow(PageId region)
    {
        std::size_t capacity = dense_.empty() ? 256 : dense_.size();
        while (capacity <= region)
            capacity *= 2;
        dense_.resize(capacity, 0);
    }

    unsigned order_;
    std::vector<std::uint32_t> dense_;
    std::unordered_map<PageId, std::uint32_t> overflow_;
};

/** Handle to one slot of a DensePageChain. */
using ChainSlot = std::uint32_t;

/** No slot: the end of a list, or the slot of an untracked key. */
inline constexpr ChainSlot kNoSlot = UINT32_MAX;

/** Payload of a chain whose slots carry nothing but their key. */
struct NoPayload
{};

/**
 * Slot arena of page-keyed entries, threaded by up to @p Lists
 * doubly-linked lists.
 *
 * Every tracked key owns one slot holding its key, its links and a
 * @p Payload.  Links live in parallel `uint32_t` arrays indexed by slot,
 * the key->slot lookup rides DensePageMap (direct-indexed below
 * kDensePageLimit, hashed above), and freed slots recycle through a free
 * list, so tracking a key costs no allocation after warm-up.  Payloads
 * sit in a deque: a payload reference stays valid until its slot is
 * erased, however much the arena grows meanwhile.
 *
 * A slot keeps its index from insert() to erase().  Relinking it
 * (remove + pushBack, moveToBack, spliceBack) moves no data, so a handle
 * parked on a slot — a clock hand, a victim cursor — follows its entry.
 * A slot is on at most one list at a time; every list operation names
 * that list (default 0).  Order is front (head) to back (tail); recency
 * users keep the eviction candidate at the front.
 */
template <typename Payload = NoPayload, unsigned Lists = 1>
class DensePageChain
{
  public:
    /** @{ slots */
    ChainSlot slotOf(PageId key) const { return slotOf_.lookup(key); }
    bool contains(PageId key) const { return slotOf(key) != kNoSlot; }
    PageId key(ChainSlot s) const { return key_[s]; }
    Payload &operator[](ChainSlot s) { return payload_[s]; }
    const Payload &operator[](ChainSlot s) const { return payload_[s]; }

    /** Number of tracked keys, linked or not. */
    std::size_t size() const { return slotOf_.size(); }

    /** Track @p key (absent) in a fresh unlinked slot with a default
     *  payload. */
    ChainSlot
    insert(PageId key)
    {
        HPE_ASSERT(!contains(key), "key {:#x} already tracked", key);
        ChainSlot s;
        if (freeHead_ != kNoSlot) {
            s = freeHead_;
            freeHead_ = next_[s];
            key_[s] = key;
            payload_[s] = Payload{};
        } else {
            s = static_cast<ChainSlot>(key_.size());
            prev_.push_back(kNoSlot);
            next_.push_back(kNoSlot);
            key_.push_back(key);
            payload_.emplace_back();
        }
        slotOf_.insert(key, s);
        return s;
    }

    /** Unlink @p s from @p list and stop tracking its key. */
    void
    erase(ChainSlot s, unsigned list = 0)
    {
        remove(s, list);
        slotOf_.erase(key_[s]);
        next_[s] = freeHead_;
        freeHead_ = s;
    }
    /** @} */

    /** @{ lists */
    void pushBack(ChainSlot s, unsigned list = 0) { link(s, ends_[list].tail, kNoSlot, list); }
    void pushFront(ChainSlot s, unsigned list = 0) { link(s, kNoSlot, ends_[list].head, list); }

    /** Link @p s immediately before @p pos, which is on @p list. */
    void
    insertBefore(ChainSlot pos, ChainSlot s, unsigned list = 0)
    {
        link(s, prev_[pos], pos, list);
    }

    /** Unlink @p s from @p list; the slot stays allocated. */
    void
    remove(ChainSlot s, unsigned list = 0)
    {
        Ends &ends = ends_[list];
        if (prev_[s] != kNoSlot)
            next_[prev_[s]] = next_[s];
        else
            ends.head = next_[s];
        if (next_[s] != kNoSlot)
            prev_[next_[s]] = prev_[s];
        else
            ends.tail = prev_[s];
        --ends.length;
    }

    void
    moveToBack(ChainSlot s, unsigned list = 0)
    {
        if (s == ends_[list].tail)
            return;
        remove(s, list);
        pushBack(s, list);
    }

    /** Move every slot of @p src to the back of @p dst in O(1), keeping
     *  their order; @p src is left empty. */
    void
    spliceBack(unsigned dst, unsigned src)
    {
        Ends &to = ends_[dst];
        Ends &from = ends_[src];
        if (from.length == 0)
            return;
        if (to.length == 0) {
            to = from;
        } else {
            next_[to.tail] = from.head;
            prev_[from.head] = to.tail;
            to.tail = from.tail;
            to.length += from.length;
        }
        from = Ends{};
    }

    /** First / last slot of @p list; kNoSlot when it is empty. */
    ChainSlot front(unsigned list = 0) const { return ends_[list].head; }
    ChainSlot back(unsigned list = 0) const { return ends_[list].tail; }

    /** Neighbour of linked @p s toward the back / front; kNoSlot at the
     *  end of its list. */
    ChainSlot next(ChainSlot s) const { return next_[s]; }
    ChainSlot prev(ChainSlot s) const { return prev_[s]; }

    std::size_t length(unsigned list = 0) const { return ends_[list].length; }
    bool empty(unsigned list = 0) const { return ends_[list].length == 0; }

    /** Visit the slots of @p list front to back; @p fn may erase the slot
     *  it is given. */
    template <typename Fn>
    void
    forEach(Fn &&fn, unsigned list = 0) const
    {
        for (ChainSlot s = ends_[list].head; s != kNoSlot;) {
            const ChainSlot next = next_[s];
            fn(s);
            s = next;
        }
    }
    /** @} */

    void
    reserve(std::size_t n)
    {
        prev_.reserve(n);
        next_.reserve(n);
        key_.reserve(n);
    }

  private:
    struct Ends
    {
        ChainSlot head = kNoSlot;
        ChainSlot tail = kNoSlot;
        std::size_t length = 0;
    };

    void
    link(ChainSlot s, ChainSlot before, ChainSlot after, unsigned list)
    {
        Ends &ends = ends_[list];
        prev_[s] = before;
        next_[s] = after;
        if (before != kNoSlot)
            next_[before] = s;
        else
            ends.head = s;
        if (after != kNoSlot)
            prev_[after] = s;
        else
            ends.tail = s;
        ++ends.length;
    }

    std::vector<ChainSlot> prev_;
    std::vector<ChainSlot> next_;
    std::vector<PageId> key_;
    std::deque<Payload> payload_;
    DensePageMap<ChainSlot, kNoSlot> slotOf_;
    std::array<Ends, Lists> ends_{};
    ChainSlot freeHead_ = kNoSlot;
};

} // namespace hpe
