/**
 * @file
 * Tests for the extra related-work baselines (plain CLOCK, LFU), the
 * relaxed division threshold, and the extended policy factory.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/hpe_policy.hpp"
#include "policy/clock.hpp"
#include "policy/dip.hpp"
#include "policy/fifo.hpp"
#include "policy/lfu.hpp"
#include "sim/experiment.hpp"
#include "workload/apps.hpp"

namespace hpe {
namespace {

std::uint64_t
replay(EvictionPolicy &policy, const std::vector<PageId> &refs, std::size_t frames)
{
    std::unordered_set<PageId> resident;
    std::uint64_t faults = 0;
    for (PageId p : refs) {
        if (resident.contains(p)) {
            policy.onHit(p);
            continue;
        }
        ++faults;
        policy.onFault(p);
        if (resident.size() == frames) {
            const PageId victim = policy.selectVictim();
            EXPECT_TRUE(resident.contains(victim));
            resident.erase(victim);
            policy.onEvict(victim);
        }
        resident.insert(p);
        policy.onMigrateIn(p);
    }
    return faults;
}

TEST(Clock, GivesSecondChanceToReferencedPages)
{
    ClockPolicy clock;
    for (PageId p : {1, 2, 3})
        clock.onMigrateIn(p);
    clock.onHit(1);
    // 1 is referenced: the hand clears it and takes 2 (first unreferenced).
    EXPECT_EQ(clock.selectVictim(), 2u);
}

TEST(Clock, SweepsFullCircleWhenAllReferenced)
{
    ClockPolicy clock;
    for (PageId p : {1, 2, 3}) {
        clock.onMigrateIn(p);
        clock.onHit(p);
    }
    // All bits cleared on the first sweep; first page then evictable.
    EXPECT_EQ(clock.selectVictim(), 1u);
}

TEST(Clock, HandSurvivesEviction)
{
    ClockPolicy clock;
    for (PageId p : {1, 2, 3})
        clock.onMigrateIn(p);
    const PageId v1 = clock.selectVictim();
    clock.onEvict(v1);
    const PageId v2 = clock.selectVictim();
    EXPECT_NE(v1, v2);
    clock.onEvict(v2);
    clock.onMigrateIn(10);
    const PageId v3 = clock.selectVictim();
    EXPECT_TRUE(v3 == 3 || v3 == 10);
}

TEST(Clock, ApproximatesLruOnMixedString)
{
    ClockPolicy clock;
    std::vector<PageId> refs;
    Rng rng(3);
    for (int i = 0; i < 500; ++i)
        refs.push_back(rng.below(30));
    const auto faults = replay(clock, refs, 12);
    EXPECT_GT(faults, 30u);
    EXPECT_LT(faults, 500u);
}

TEST(Lfu, EvictsLeastFrequent)
{
    LfuPolicy lfu;
    for (PageId p : {1, 2, 3})
        lfu.onMigrateIn(p);
    lfu.onHit(1);
    lfu.onHit(1);
    lfu.onHit(3);
    EXPECT_EQ(lfu.selectVictim(), 2u);
}

TEST(Lfu, TieBreaksFifo)
{
    LfuPolicy lfu;
    lfu.onMigrateIn(1);
    lfu.onMigrateIn(2);
    EXPECT_EQ(lfu.selectVictim(), 1u); // equal frequency: oldest
}

TEST(Lfu, FrequencySurvivesEviction)
{
    LfuPolicy lfu;
    lfu.onMigrateIn(1);
    lfu.onHit(1);
    lfu.onHit(1);
    lfu.onEvict(1);
    EXPECT_EQ(lfu.frequencyOf(1), 3u);
    lfu.onMigrateIn(1); // frequency 4 now
    lfu.onMigrateIn(2); // frequency 1
    EXPECT_EQ(lfu.selectVictim(), 2u);
}

TEST(Lfu, HitOnEvictedPageStillCounts)
{
    LfuPolicy lfu;
    lfu.onMigrateIn(1);
    lfu.onEvict(1);
    lfu.onHit(1); // no crash; history grows
    EXPECT_EQ(lfu.frequencyOf(1), 2u);
}

TEST(Fifo, EvictsInArrivalOrder)
{
    FifoPolicy fifo;
    for (PageId p : {3, 1, 2})
        fifo.onMigrateIn(p);
    fifo.onHit(3); // references do not matter to FIFO
    EXPECT_EQ(fifo.selectVictim(), 3u);
    fifo.onEvict(3);
    EXPECT_EQ(fifo.selectVictim(), 1u);
}

TEST(Fifo, ExhibitsBeladysAnomaly)
{
    // The classic anomaly string: FIFO faults *more* with 4 frames (10)
    // than with 3 (9) — impossible for stack algorithms like LRU/MIN.
    std::vector<PageId> refs{1, 2, 3, 4, 1, 2, 5, 1, 2, 3, 4, 5};
    FifoPolicy f3, f4;
    const auto faults3 = replay(f3, refs, 3);
    const auto faults4 = replay(f4, refs, 4);
    EXPECT_EQ(faults3, 9u);
    EXPECT_EQ(faults4, 10u);
    EXPECT_GT(faults4, faults3);
}

TEST(Dip, LeaderFaultsSteerSelector)
{
    DipConfig cfg;
    DipPolicy dip(cfg);
    const auto start = dip.psel();
    // Find an LRU-leader page (hash bucket 0) and fault on it repeatedly.
    PageId lru_leader = 0;
    for (PageId p = 0;; ++p) {
        DipPolicy probe(cfg);
        probe.onFault(p);
        if (probe.psel() > start) {
            lru_leader = p;
            break;
        }
    }
    for (int i = 0; i < 10; ++i)
        dip.onFault(lru_leader);
    EXPECT_EQ(dip.psel(), start + 10);
}

TEST(Dip, BipInsertionLandsAtLruEnd)
{
    // Force BIP for everyone by driving the selector high with LRU-leader
    // faults, then check follower insertions are immediately evictable.
    DipConfig cfg;
    cfg.pselMax = 4;
    DipPolicy dip(cfg);
    PageId lru_leader = 0;
    for (PageId p = 0;; ++p) {
        DipPolicy probe(cfg);
        probe.onFault(p);
        if (probe.psel() > cfg.pselMax / 2) {
            lru_leader = p;
            break;
        }
    }
    for (int i = 0; i < 4; ++i)
        dip.onFault(lru_leader);
    EXPECT_EQ(dip.psel(), cfg.pselMax);
    // With BIP winning, a long run of insertions mostly lands at the LRU
    // end: the first victim should be a recent insertion, not the oldest.
    std::vector<PageId> inserted;
    for (PageId p = 100; p < 140; ++p) {
        dip.onMigrateIn(p);
        inserted.push_back(p);
    }
    const PageId victim = dip.selectVictim();
    EXPECT_NE(victim, inserted.front());
}

TEST(Dip, AdaptsOnThrashingPattern)
{
    // Cyclic over 60 pages with 40 frames: LRU thrashes fully; DIP's BIP
    // side retains a stable subset, so DIP must beat plain LRU.
    std::vector<PageId> refs;
    for (int pass = 0; pass < 6; ++pass)
        for (PageId p = 0; p < 60; ++p)
            refs.push_back(p);
    DipPolicy dip;
    const auto dip_faults = replay(dip, refs, 40);
    EXPECT_LT(dip_faults, refs.size() * 9 / 10);
}

TEST(ExtendedFactory, BuildsEveryKind)
{
    const Trace t = buildApp("STN", 0.25);
    StatRegistry stats;
    EXPECT_EQ(extendedPolicyKinds().size(), 12u);
    for (PolicyKind kind : extendedPolicyKinds()) {
        auto policy = makePolicy(kind, t, stats);
        ASSERT_NE(policy, nullptr);
    }
    EXPECT_STREQ(policyKindName(PolicyKind::Clock), "CLOCK");
    EXPECT_STREQ(policyKindName(PolicyKind::Lfu), "LFU");
}

TEST(ExtendedFactory, ClockAndLfuRunFunctionally)
{
    const Trace t = buildApp("SRD", 0.5);
    RunConfig cfg;
    const auto ideal = runFunctional(t, PolicyKind::Ideal, cfg);
    for (PolicyKind kind : {PolicyKind::Clock, PolicyKind::Lfu}) {
        const auto r = runFunctional(t, kind, cfg);
        EXPECT_GE(r.faults, ideal.faults) << policyKindName(kind);
    }
}

TEST(DivisionThreshold, RelaxedThresholdDividesEarlier)
{
    StatRegistry stats_strict, stats_relaxed;
    HpeConfig strict;
    strict.hitChannel = HitChannel::Direct;
    HpeConfig relaxed = strict;
    relaxed.divisionThreshold = 24;

    auto run = [](const HpeConfig &cfg, StatRegistry &stats) {
        PageSetChain chain(cfg, stats, "chain");
        // Even pages faulted once, then hit once more: counter 16+16=32.
        for (PageId p = 0; p < 16; p += 2)
            chain.touch(p, 1, true);
        for (PageId p = 0; p < 16; p += 2)
            chain.touch(p, 3, false);
        const ChainEntry *e = chain.find(0, false);
        return e != nullptr && e->divided;
    };
    EXPECT_FALSE(run(strict, stats_strict));   // 32 < 64: no division
    EXPECT_TRUE(run(relaxed, stats_relaxed));  // 32 >= 24: divided
}

TEST(DivisionThreshold, RelaxationIncreasesNwDivisions)
{
    // §V-B: "if more page sets are divided by relaxing the division
    // requirement, the performance of NW can be improved".
    const Trace t = buildApp("NW");
    RunConfig strict, relaxed;
    relaxed.hpe.divisionThreshold = 32;
    const auto a = runFunctionalInspect(t, PolicyKind::Hpe, strict);
    const auto b = runFunctionalInspect(t, PolicyKind::Hpe, relaxed);
    EXPECT_GE(b.stats->findCounter("hpe.chain.divisions").value(),
              a.stats->findCounter("hpe.chain.divisions").value());
}

TEST(DivisionThreshold, ValidationRejectsZero)
{
    HpeConfig cfg;
    cfg.divisionThreshold = 0;
    EXPECT_DEATH({ cfg.validate(); }, "division threshold");
}

} // namespace
} // namespace hpe
