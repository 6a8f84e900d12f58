/**
 * @file
 * Victim pin: drives every extended policy through seeded protocol
 * streams — onFault/onHit/onMigrateIn/onPrefetchIn and
 * selectVictim->onEvict, in the order the driver issues them — and pins
 * an FNV-1a digest of each policy's victim sequence (plus, for the
 * policies with observable internal transitions, the trace-sink digest).
 *
 * The streams mix low page ids with ids that have bit 40 set, the
 * multi-app driver's address-space slices, so both the direct-indexed
 * and the hashed overflow path of the dense page containers are on the
 * pinned path.  A residency tracker cross-checks trackedResidentPages()
 * after every step.
 *
 * The constants below are the behaviour of the policies as written; a
 * refactor of their bookkeeping must leave every one of them unchanged.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "sim/policy_factory.hpp"
#include "trace/trace_sink.hpp"
#include "workload/trace.hpp"

namespace hpe {
namespace {

/** Pages 0..255 plus a 64-page slice above bit 40. */
PageId
universePage(Rng &rng)
{
    const PageId low = rng.below(320);
    return low < 256 ? low : (PageId{1} << 40) + (low - 256);
}

/** One protocol stream's shape. */
struct StreamSpec
{
    std::uint64_t seed;
    PatternType pattern; ///< RRIP reads it (type II: delay threshold 128)
    std::size_t frames;
    std::size_t refs;
};

/**
 * The third stream holds more frames than CLOCK-Pro's fixed cold
 * allocation (128), so its hot hand demotes and the cold hand recycles
 * pages under every other hand, not only when every resident is hot.
 */
const StreamSpec kStreams[] = {
    {11, PatternType::I, 40, 3000},
    {23, PatternType::II, 96, 3000},
    {37, PatternType::I, 176, 4000},
};

/**
 * Demand references: sequential runs with random jumps, a small hot set,
 * and uniform noise over the universe.
 */
Trace
demandTrace(const StreamSpec &spec)
{
    Rng rng(spec.seed);
    Trace t("PIN", "victim-pin", "test", spec.pattern);
    PageId cursor = 0;
    for (std::size_t i = 0; i < spec.refs; ++i) {
        const auto roll = rng.below(100);
        if (roll < 55) {
            cursor = cursor + 1;
            if ((cursor & 0xff) == 0 || rng.chance(0.05))
                cursor = universePage(rng);
            t.add(cursor);
        } else if (roll < 80) {
            t.add(rng.below(12) + (rng.chance(0.5) ? 0 : PageId{1} << 40));
        } else {
            t.add(universePage(rng));
        }
    }
    return t;
}

struct Pin
{
    std::uint64_t victims = 0; ///< FNV-1a over every stream's victim order
    std::uint64_t trace = 0;   ///< combined trace-sink digests
    std::size_t evictions = 0;
    bool complete = false;     ///< every stream ran without a protocol fault
};

/** Run @p kind over every stream, checking residency at each step. */
Pin
drive(PolicyKind kind)
{
    trace::Fnv1a victims;
    std::vector<std::uint64_t> traceDigests;
    Pin pin;
    for (const StreamSpec &spec : kStreams) {
        const Trace t = demandTrace(spec);
        StatRegistry stats;
        trace::TraceSink sink;
        auto policy = makePolicy(kind, t, stats, {}, spec.seed);
        policy->reserveCapacity(spec.frames);
        policy->setTraceSink(&sink);
        Rng rng(spec.seed ^ 0x9e37u);
        std::set<PageId> resident;

        const auto check = [&](std::size_t step) {
            const auto tracked = policy->trackedResidentPages();
            if (!tracked.has_value())
                return true;
            std::vector<PageId> sorted = *tracked;
            std::sort(sorted.begin(), sorted.end());
            if (std::equal(sorted.begin(), sorted.end(), resident.begin(),
                           resident.end()))
                return true;
            ADD_FAILURE() << policyKindName(kind)
                          << " residency diverged at step " << step
                          << " of stream " << spec.seed;
            return false;
        };
        const auto makeRoom = [&] {
            if (resident.size() < spec.frames)
                return true;
            const PageId victim = policy->selectVictim();
            if (!resident.contains(victim)) {
                ADD_FAILURE() << policyKindName(kind)
                              << " chose non-resident page " << victim;
                return false;
            }
            resident.erase(victim);
            policy->onEvict(victim);
            victims.fold(victim);
            ++pin.evictions;
            return true;
        };

        for (std::size_t i = 0; i < t.size(); ++i) {
            sink.advanceTo(i);
            if (rng.chance(0.125)) {
                // Speculative arrival of some absent page.
                const PageId page = universePage(rng);
                if (!resident.contains(page)) {
                    if (!makeRoom())
                        return pin;
                    resident.insert(page);
                    policy->onPrefetchIn(page);
                }
            }
            const PageId page = t.refs()[i].page;
            if (resident.contains(page)) {
                policy->onHit(page);
            } else {
                policy->onFault(page);
                if (!makeRoom())
                    return pin;
                resident.insert(page);
                policy->onMigrateIn(page);
            }
            if (!check(i))
                return pin;
        }
        policy->setTraceSink(nullptr);
        traceDigests.push_back(sink.digest());
    }
    pin.victims = victims.value();
    pin.trace = trace::combineDigests(traceDigests);
    pin.complete = true;
    return pin;
}

struct Expected
{
    PolicyKind kind;
    std::uint64_t victims;
    std::uint64_t trace;
};

/** Trace digest of the streams when a policy emits no events. */
constexpr std::uint64_t kSilent = 0x777824eb65f9184c;

const Expected kExpected[] = {
    {PolicyKind::Lru, 0x219bd21660cc1e30, kSilent},
    {PolicyKind::Random, 0xc57184699de8a646, kSilent},
    {PolicyKind::Rrip, 0x21cfcecc1880d357, kSilent},
    {PolicyKind::ClockPro, 0xb4fdecda8c587d6a, 0xd5eddc458c732e74},
    {PolicyKind::Clock, 0xaf27f4667a05513b, kSilent},
    {PolicyKind::Lfu, 0x8a3c5f1f67128381, kSilent},
    {PolicyKind::Fifo, 0x411771566d602f7e, kSilent},
    {PolicyKind::Dip, 0xcff8acf98b041c9c, kSilent},
    {PolicyKind::MetaDuel, 0x060f0fa02d284baa, 0x29b40070b296fb93},
    {PolicyKind::MetaBandit, 0xc299c659ccb57784, 0x2763d7b2ac6dfab5},
    {PolicyKind::Ideal, 0xeafb94453e042866, kSilent},
    {PolicyKind::Hpe, 0xf498af45cf5e5b3f, 0xeada0ffc2e23de1f},
};

TEST(VictimPin, EveryExtendedPolicyIsPinned)
{
    std::set<PolicyKind> pinned;
    for (const Expected &e : kExpected)
        pinned.insert(e.kind);
    for (PolicyKind kind : extendedPolicyKinds())
        EXPECT_TRUE(pinned.contains(kind)) << policyKindName(kind);
}

TEST(VictimPin, VictimSequencesMatchPinnedDigests)
{
    for (const Expected &e : kExpected) {
        SCOPED_TRACE(policyKindName(e.kind));
        const Pin pin = drive(e.kind);
        ASSERT_TRUE(pin.complete);
        EXPECT_GT(pin.evictions, 1000u);
        EXPECT_EQ(trace::digestHex(pin.victims), trace::digestHex(e.victims));
        EXPECT_EQ(trace::digestHex(pin.trace), trace::digestHex(e.trace));
    }
}

} // namespace
} // namespace hpe
