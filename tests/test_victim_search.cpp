/**
 * @file
 * Differential test of the indexed victim searches of Ideal (MIN) and
 * RRIP against reference oracles that keep the O(resident) scans those
 * searches replaced.  Both sides receive the same seeded protocol calls
 * and every victim must match.
 *
 * The MIN streams cover pages prefetched before their first
 * observation, pages outside the canonical trace, observations past a
 * page's last canonical position (the timing-mode clamp) and page ids
 * above bit 40.  The RRIP streams cover RRPV widths 1, 2 and 8, both
 * insertion modes, and delay thresholds 0 and 128, including the corner
 * where every resident page is inside its delay window.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "policy/min.hpp"
#include "policy/rrip.hpp"

namespace hpe {
namespace {

/** MIN as a scan over the resident pages in residency-list order. */
class ReferenceMin
{
  public:
    explicit ReferenceMin(const std::vector<PageId> &trace)
    {
        for (std::uint64_t i = 0; i < trace.size(); ++i)
            pages_[trace[i]].positions.push_back(i);
    }

    void onHit(PageId page) { observe(page); }
    void onFault(PageId page) { observe(page); }

    PageId
    selectVictim()
    {
        PageId best = 0;
        std::uint64_t bestUse = 0;
        bool found = false;
        for (PageId page : resident_) {
            const std::uint64_t nextUse = pages_[page].nextUse;
            if (nextUse == kNever) {
                ++neverVictims;
                return page;
            }
            if (!found || nextUse > bestUse) {
                best = page;
                bestUse = nextUse;
                found = true;
            }
        }
        return best;
    }

    void
    onEvict(PageId page)
    {
        // Swap-remove, so the scan order matches the residency list.
        const std::size_t pos = pages_[page].residentPos;
        resident_[pos] = resident_.back();
        pages_[resident_[pos]].residentPos = pos;
        resident_.pop_back();
    }

    void
    onMigrateIn(PageId page)
    {
        pages_[page].residentPos = resident_.size();
        resident_.push_back(page);
    }

    std::size_t neverVictims = 0; ///< victims taken by the never-used rule

  private:
    static constexpr std::uint64_t kNever = UINT64_MAX;

    struct State
    {
        std::vector<std::uint64_t> positions;
        std::uint64_t refsSeen = 0;
        std::uint64_t nextUse = kNever;
        std::size_t residentPos = 0;
    };

    void
    observe(PageId page)
    {
        State &st = pages_[page];
        const auto &pos = st.positions;
        if (pos.empty()) {
            st.nextUse = kNever;
            return;
        }
        const std::uint64_t seen = st.refsSeen < pos.size() ? st.refsSeen : pos.size() - 1;
        ++st.refsSeen;
        st.nextUse = seen + 1 < pos.size() ? pos[seen + 1] : kNever;
    }

    std::unordered_map<PageId, State> pages_;
    std::vector<PageId> resident_;
};

/** RRIP as the oldest-first scan with a full aging pass per retry. */
class ReferenceRrip
{
  public:
    explicit ReferenceRrip(const RripConfig &cfg)
        : cfg_(cfg)
    {}

    void
    onHit(PageId page)
    {
        for (Entry &e : ring_)
            if (e.page == page && e.rrpv > 0)
                --e.rrpv;
    }

    void onFault(PageId) { ++faultNumber_; }

    PageId
    selectVictim()
    {
        const unsigned max = (1u << cfg_.rrpvBits) - 1;
        for (;;) {
            bool anyBelowMax = false;
            for (const Entry &e : ring_) {
                if (e.rrpv < max) {
                    anyBelowMax = true;
                    continue;
                }
                if (faultNumber_ - e.delay >= cfg_.delayThreshold)
                    return e.page;
            }
            if (!anyBelowMax)
                break;
            for (Entry &e : ring_)
                if (e.rrpv < max)
                    ++e.rrpv;
        }
        ++windowFallbacks;
        const Entry *best = &ring_.front();
        for (const Entry &e : ring_)
            if (e.delay < best->delay)
                best = &e;
        return best->page;
    }

    void
    onEvict(PageId page)
    {
        for (auto it = ring_.begin(); it != ring_.end(); ++it) {
            if (it->page == page) {
                ring_.erase(it);
                return;
            }
        }
    }

    void
    onMigrateIn(PageId page)
    {
        const unsigned max = (1u << cfg_.rrpvBits) - 1;
        ring_.push_back({page, cfg_.distantInsertion ? max : max - 1, faultNumber_});
    }

    std::size_t windowFallbacks = 0; ///< victims taken with every page in its window

  private:
    struct Entry
    {
        PageId page;
        unsigned rrpv;
        std::uint64_t delay;
    };

    RripConfig cfg_;
    std::uint64_t faultNumber_ = 0;
    std::vector<Entry> ring_; ///< insertion order, oldest first
};

/**
 * Issues the driver's protocol to a policy and its oracle in lockstep
 * over @p frames frames, checking every victim.
 */
template <typename Oracle>
class Lockstep
{
  public:
    Lockstep(EvictionPolicy &policy, Oracle &oracle, std::size_t frames)
        : policy_(policy), oracle_(oracle), frames_(frames)
    {}

    /** A demand reference. @return false after a victim mismatch. */
    bool
    reference(PageId page)
    {
        if (resident_.contains(page)) {
            policy_.onHit(page);
            oracle_.onHit(page);
            return true;
        }
        policy_.onFault(page);
        oracle_.onFault(page);
        if (!makeRoom())
            return false;
        resident_.insert(page);
        policy_.onMigrateIn(page);
        oracle_.onMigrateIn(page);
        return true;
    }

    /** A speculative arrival of @p page if it is absent. */
    bool
    prefetch(PageId page)
    {
        if (resident_.contains(page))
            return true;
        if (!makeRoom())
            return false;
        resident_.insert(page);
        policy_.onPrefetchIn(page);
        oracle_.onMigrateIn(page);
        return true;
    }

    std::size_t victims() const { return victims_; }

  private:
    bool
    makeRoom()
    {
        if (resident_.size() < frames_)
            return true;
        const PageId expected = oracle_.selectVictim();
        const PageId victim = policy_.selectVictim();
        if (victim != expected) {
            ADD_FAILURE() << "victim " << victims_ << ": policy chose page "
                          << victim << ", the scan chose " << expected;
            return false;
        }
        resident_.erase(victim);
        policy_.onEvict(victim);
        oracle_.onEvict(victim);
        ++victims_;
        return true;
    }

    EvictionPolicy &policy_;
    Oracle &oracle_;
    std::size_t frames_;
    std::set<PageId> resident_;
    std::size_t victims_ = 0;
};

/** A page of a @p span-page universe; a quarter of it sits above bit 40. */
PageId
universePage(Rng &rng, PageId span)
{
    const PageId low = rng.below(span);
    return low < span * 3 / 4 ? low : (PageId{1} << 40) + low;
}

struct MinStream
{
    std::uint64_t seed;
    std::size_t frames;
    PageId span;     ///< universe size of the canonical trace
    std::size_t refs;
    double prefetch; ///< chance of a speculative arrival before each ref
    double offTrace; ///< chance a reference is not the canonical one
};

/**
 * Canonical trace: sequential runs with random jumps and a hot set.
 * Observed stream: the canonical trace, except that some references are
 * replaced by a page outside the trace or by a repeat of an earlier page,
 * which runs that page's oracle past its last canonical position.
 */
std::size_t
runMinStream(const MinStream &spec, std::size_t &neverVictims)
{
    Rng rng(spec.seed);
    auto trace = std::make_shared<std::vector<PageId>>();
    PageId cursor = 0;
    for (std::size_t i = 0; i < spec.refs; ++i) {
        if (rng.chance(0.6)) {
            cursor = rng.chance(0.03) ? universePage(rng, spec.span) : cursor + 1;
            trace->push_back(cursor);
        } else if (rng.chance(0.5)) {
            trace->push_back(rng.below(16));
        } else {
            trace->push_back(universePage(rng, spec.span));
        }
    }

    MinPolicy policy(trace);
    policy.reserveCapacity(spec.frames);
    ReferenceMin oracle(*trace);
    Lockstep<ReferenceMin> run(policy, oracle, spec.frames);
    const PageId outside = PageId{1} << 50;
    for (std::size_t i = 0; i < trace->size(); ++i) {
        if (rng.chance(spec.prefetch)) {
            // Mostly pages the trace references later: they arrive
            // before their first observation.
            const PageId page = rng.chance(0.8)
                ? (*trace)[i + rng.below(trace->size() - i)]
                : outside + rng.below(64);
            if (!run.prefetch(page))
                break;
        }
        PageId page = (*trace)[i];
        if (rng.chance(spec.offTrace))
            page = rng.chance(0.5) ? outside + rng.below(64) : (*trace)[rng.below(i + 1)];
        if (!run.reference(page))
            break;
    }
    neverVictims = oracle.neverVictims;
    return run.victims();
}

TEST(VictimSearch, MinMatchesTheResidentScan)
{
    const MinStream streams[] = {
        {1, 8, 64, 4000, 0.0, 0.0},      // exact Belady, tiny memory
        {2, 48, 400, 20000, 0.1, 0.05},  // prefetch + off-trace refs
        {3, 300, 1500, 40000, 0.25, 0.1},
        {4, 1000, 2000, 60000, 0.05, 0.2}, // heavy over-observation
        {5, 2, 16, 3000, 0.5, 0.3},
    };
    for (const MinStream &spec : streams) {
        SCOPED_TRACE(spec.seed);
        std::size_t neverVictims = 0;
        const std::size_t victims = runMinStream(spec, neverVictims);
        EXPECT_GT(victims, spec.refs / 20);
        EXPECT_GT(neverVictims, 0u);
        EXPECT_LT(neverVictims, victims);
    }
}

struct RripStream
{
    std::uint64_t seed;
    RripConfig cfg;
    std::size_t frames;
    PageId span;
    std::size_t refs;
    double prefetch;   ///< chance of a burst of speculative arrivals
    PageId burstPages; ///< pages per burst
};

std::size_t
runRripStream(const RripStream &spec, std::size_t &fallbacks)
{
    Rng rng(spec.seed);
    RripPolicy policy(spec.cfg);
    policy.reserveCapacity(spec.frames);
    ReferenceRrip oracle(spec.cfg);
    Lockstep<ReferenceRrip> run(policy, oracle, spec.frames);
    PageId cursor = 0;
    for (std::size_t i = 0; i < spec.refs; ++i) {
        if (rng.chance(spec.prefetch)) {
            // A burst arrives under one fault number, filling the delay
            // window without faults.
            const PageId base = universePage(rng, spec.span);
            for (PageId p = 0; p < spec.burstPages; ++p)
                if (!run.prefetch(base + p))
                    return run.victims();
        }
        PageId page;
        if (rng.chance(0.5)) {
            cursor = rng.chance(0.05) ? universePage(rng, spec.span) : cursor + 1;
            page = cursor;
        } else if (rng.chance(0.6)) {
            page = rng.below(spec.frames / 2 + 1); // re-referenced hot set
        } else {
            page = universePage(rng, spec.span);
        }
        if (!run.reference(page))
            break;
    }
    fallbacks = oracle.windowFallbacks;
    return run.victims();
}

TEST(VictimSearch, RripMatchesTheAgingScan)
{
    std::uint64_t seed = 100;
    for (unsigned bits : {1u, 2u, 8u}) {
        for (bool distant : {false, true}) {
            for (std::uint64_t threshold : {std::uint64_t{0}, std::uint64_t{128}}) {
                const RripConfig cfg{
                    .rrpvBits = bits, .distantInsertion = distant, .delayThreshold = threshold};
                // Few frames keep every page inside a 128-fault window;
                // many frames do after a large prefetch burst.
                for (const auto &[frames, prefetch, burst] :
                     {std::tuple<std::size_t, double, PageId>{64, 0.05, 8}, {600, 0.01, 400}}) {
                    SCOPED_TRACE(testing::Message() << "bits " << bits << " distant "
                                                    << distant << " threshold " << threshold
                                                    << " frames " << frames);
                    const RripStream spec{++seed, cfg, frames, frames * 6, 12000, prefetch, burst};
                    std::size_t fallbacks = 0;
                    const std::size_t victims = runRripStream(spec, fallbacks);
                    EXPECT_GT(victims, spec.refs / 10);
                    if (threshold != 0)
                        EXPECT_GT(fallbacks, 0u);
                    else
                        EXPECT_EQ(fallbacks, 0u);
                }
            }
        }
    }
}

} // namespace
} // namespace hpe
