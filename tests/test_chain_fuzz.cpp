/**
 * @file
 * Randomized property tests on the page-set chain and the full HPE
 * policy: for arbitrary touch/interval/remove sequences the chain's
 * internal structure must stay consistent, and for random reference
 * strings HPE must uphold the driver protocol.
 */

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/hpe_policy.hpp"
#include "core/page_set_chain.hpp"

namespace hpe {
namespace {

/** Structural invariants that must hold after any operation sequence. */
void
checkChainInvariants(const PageSetChain &chain)
{
    std::size_t linked = 0;
    std::unordered_set<std::uint64_t> seen;
    for (Partition p : {Partition::Old, Partition::Middle, Partition::New}) {
        chain.forEachIn(p, [&](const ChainEntry &e) {
            ++linked;
            // Every entry knows which partition list holds it.
            ASSERT_EQ(e.part, p);
            // No duplicate (set, secondary) keys anywhere on the chain.
            ASSERT_TRUE(seen.insert(ChainEntry::keyOf(e.set, e.secondary)).second);
            // The index resolves the key to this very entry.
            ASSERT_EQ(chain.find(e.set, e.secondary), &e);
            // Counters never exceed the ceiling.
            ASSERT_LE(e.counter, HpeConfig{}.counterMax);
            // A divided primary's mask is a nonempty strict subset.
            if (e.divided && !e.secondary) {
                ASSERT_NE(e.primaryMask, 0u);
                ASSERT_NE(e.primaryMask, 0xFFFFu);
            }
        });
    }
    // The index and the three lists agree on the population.
    ASSERT_EQ(linked, chain.size());
}

class ChainFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(ChainFuzzTest, InvariantsSurviveRandomOperations)
{
    Rng rng(GetParam());
    StatRegistry stats;
    HpeConfig cfg;
    PageSetChain chain(cfg, stats, "chain");

    for (int op = 0; op < 4000; ++op) {
        const auto roll = rng.below(100);
        if (roll < 70) {
            // Touch a page (faults and hits, varying counts).
            chain.touch(rng.below(600), 1 + rng.below(4) % 4,
                        rng.chance(0.5));
        } else if (roll < 80) {
            chain.endInterval();
        } else if (roll < 95) {
            // Remove a random entry if one exists.
            const PageSetId set = rng.below(40);
            const bool secondary = rng.chance(0.2);
            if (const ChainEntry *e = chain.find(set, secondary); e != nullptr)
                chain.remove(*e);
        } else {
            checkChainInvariants(chain);
        }
    }
    checkChainInvariants(chain);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChainFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

class HpeFuzzTest : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(HpeFuzzTest, DriverProtocolHoldsOnRandomStrings)
{
    Rng rng(GetParam());
    StatRegistry stats;
    HpeConfig cfg;
    // Exercise both hit channels across the seeds.
    if (GetParam() % 2 == 0)
        cfg.hitChannel = HitChannel::Direct;
    HpePolicy policy(cfg, stats);

    const std::size_t frames = 48 + GetParam() % 32;
    std::unordered_set<PageId> resident;

    PageId cursor = 0;
    for (int i = 0; i < 6000; ++i) {
        // Mixture of sequential runs, jumps, and revisits over 300 pages.
        if (rng.chance(0.2))
            cursor = rng.below(300);
        else
            cursor = (cursor + 1) % 300;
        const PageId page = cursor;

        if (resident.contains(page)) {
            policy.onHit(page);
            continue;
        }
        policy.onFault(page);
        if (resident.size() == frames) {
            const PageId victim = policy.selectVictim();
            ASSERT_TRUE(resident.contains(victim))
                << "victim " << victim << " not resident (seed "
                << GetParam() << ", step " << i << ")";
            resident.erase(victim);
            policy.onEvict(victim);
        }
        resident.insert(page);
        policy.onMigrateIn(page);
    }
    // The policy's residency bookkeeping agrees with the driver's.
    EXPECT_EQ(resident.size(), frames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HpeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

} // namespace
} // namespace hpe
