/**
 * @file
 * §V-C overhead microbenchmarks (google-benchmark): wall-clock costs of
 * the operations the paper measures on the host —
 *
 *  - MRU-C list search (the paper times 300 comparisons in a list);
 *  - updating 150 records in a hashmap-backed chain (the paper's 16.1 us
 *    worst case for the HIR-batch chain update);
 *  - the one-shot classification traversal (the paper's 16.7 us on KMN);
 *  - HIR hit recording and flush;
 *  - per-policy steady-state paging throughput;
 *  - the victim search of Ideal (MIN) and RRIP against the resident-set
 *    size, so its scaling reads as a number.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/classifier.hpp"
#include "core/hir_cache.hpp"
#include "core/hpe_policy.hpp"
#include "core/page_set_chain.hpp"
#include "mem/page_index.hpp"
#include "sim/paging_simulator.hpp"
#include "sim/policy_factory.hpp"
#include "workload/apps.hpp"

namespace {

using namespace hpe;

/** Chain search: walk N entries comparing counters (the Fig. 14 op). */
void
BM_ChainSearch(benchmark::State &state)
{
    StatRegistry stats;
    HpeConfig cfg;
    PageSetChain chain(cfg, stats, "chain");
    const auto n = static_cast<std::size_t>(state.range(0));
    for (std::size_t i = 0; i < n; ++i)
        chain.touch(i * 16, 32, true); // counter 32: never "qualified"
    chain.endInterval();
    chain.endInterval(); // everything old

    const PageSetChain::Entries &entries = chain.entries();
    const unsigned old_list = PageSetChain::listOf(Partition::Old);
    for (auto _ : state) {
        std::uint64_t comparisons = 0;
        for (ChainSlot s = entries.back(old_list); s != kNoSlot;
             s = entries.prev(s)) {
            ++comparisons;
            benchmark::DoNotOptimize(entries[s].counter);
        }
        benchmark::DoNotOptimize(comparisons);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ChainSearch)->Arg(50)->Arg(300)->Arg(1000);

/** Chain update from one HIR batch (the paper's 150-record hashmap op). */
void
BM_ChainUpdateBatch(benchmark::State &state)
{
    const auto records = static_cast<std::size_t>(state.range(0));
    StatRegistry stats;
    HpeConfig cfg;
    PageSetChain chain(cfg, stats, "chain");
    // Chain pre-populated with 200 sets (paper uses length 200 > MVT's 180).
    for (std::size_t i = 0; i < 200; ++i)
        chain.touch(i * 16, 1, true);

    std::uint64_t page = 0;
    for (auto _ : state) {
        for (std::size_t r = 0; r < records; ++r)
            chain.touch((page + r * 16) % (200 * 16), 1, false);
        page += 7;
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ChainUpdateBatch)->Arg(10)->Arg(150);

/** One-shot statistics classification (the paper's 16.7 us on KMN). */
void
BM_Classification(benchmark::State &state)
{
    StatRegistry stats;
    HpeConfig cfg;
    PageSetChain chain(cfg, stats, "chain");
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    for (std::size_t i = 0; i < n; ++i)
        chain.touch(i * 16, 1 + static_cast<std::uint32_t>(rng.below(63)),
                    true);
    for (auto _ : state) {
        auto result = classify(cfg, chain);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_Classification)->Arg(256)->Arg(4096);

/** HIR hit recording (off the walk critical path, but still cheap). */
void
BM_HirRecordHit(benchmark::State &state)
{
    StatRegistry stats;
    HirCache hir(HpeConfig{}, stats, "hir");
    PageId page = 0;
    for (auto _ : state) {
        hir.recordHit(page);
        page = (page + 17) % 16384;
        if ((page & 1023) == 0) {
            auto records = hir.flush();
            benchmark::DoNotOptimize(records);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HirRecordHit);

/** End-to-end functional paging throughput per policy. */
void
BM_PagingThroughput(benchmark::State &state)
{
    const auto kind = static_cast<PolicyKind>(state.range(0));
    const Trace trace = buildApp("HSD", 0.5);
    for (auto _ : state) {
        StatRegistry stats;
        auto policy = makePolicy(kind, trace, stats);
        auto result = runPaging(trace, *policy,
                                trace.footprintPages() * 3 / 4, stats);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations())
                            * static_cast<std::int64_t>(trace.size()));
    state.SetLabel(policyKindName(kind));
}
BENCHMARK(BM_PagingThroughput)
    ->DenseRange(static_cast<int>(PolicyKind::Lru),
                 static_cast<int>(PolicyKind::Hpe));

/**
 * One selectVictim() call at range(1) resident pages, timed alone.
 * Uniform references over twice the frames fault about every other time;
 * the replay between victims (hits, faults, evictions, migrations) runs
 * off the clock, as does each restart when the trace runs out.  The
 * timestamps add a constant of a few tens of ns per call.
 */
void
BM_SelectVictim(benchmark::State &state)
{
    using Clock = std::chrono::steady_clock;
    const auto kind = static_cast<PolicyKind>(state.range(0));
    const auto frames = static_cast<std::size_t>(state.range(1));
    Rng rng(7);
    Trace trace("VIC", "victim-search", "bench", PatternType::I);
    for (std::size_t i = 0; i < 16 * frames; ++i)
        trace.add(rng.below(2 * frames));

    std::unique_ptr<StatRegistry> stats;
    std::unique_ptr<EvictionPolicy> policy;
    DensePageSet resident;
    std::size_t next = 0;
    const auto restart = [&] {
        policy.reset();
        stats = std::make_unique<StatRegistry>();
        policy = makePolicy(kind, trace, *stats);
        policy->reserveCapacity(frames);
        resident.clear();
        next = 0;
    };
    restart();
    for (auto _ : state) {
        for (;;) {
            if (next == trace.size())
                restart();
            const PageId page = trace.refs()[next++].page;
            if (resident.contains(page)) {
                policy->onHit(page);
                continue;
            }
            policy->onFault(page);
            if (resident.size() == frames) {
                const auto t0 = Clock::now();
                const PageId victim = policy->selectVictim();
                state.SetIterationTime(
                    std::chrono::duration<double>(Clock::now() - t0).count());
                resident.erase(victim);
                policy->onEvict(victim);
                resident.insert(page);
                policy->onMigrateIn(page);
                break;
            }
            resident.insert(page);
            policy->onMigrateIn(page);
        }
    }
    state.SetLabel(policyKindName(kind));
}
BENCHMARK(BM_SelectVictim)
    ->ArgsProduct({{static_cast<int>(PolicyKind::Ideal),
                    static_cast<int>(PolicyKind::Rrip)},
                   {1 << 10, 1 << 14, 1 << 16}})
    ->UseManualTime();

} // namespace

BENCHMARK_MAIN();
