/**
 * @file
 * The two simulator workloads: paper-functional (the Fig. 12 functional
 * sweep) and paper-timing (the Fig. 10 timing run).
 *
 * Untraced passes fan the cells out through SweepRunner::map with the
 * same runFunctional()/runTiming() calls SweepRunner::run makes, timing
 * each cell from outside.  Traced passes replace the policy by a
 * CountingPolicy wrapper around the makePolicy() result and drive
 * runPaging() / GpuSystem directly, exactly as runFunctionalInspect()
 * and runTimingInspect() do, so per-cell results must stay identical.
 */

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "bench.hpp"
#include "sim/paging_simulator.hpp"
#include "sim/sweep.hpp"
#include "workload/apps.hpp"

namespace perfbench {

TracedCell
runTracedCell(bool functional, const hpe::Trace &trace, hpe::PolicyKind kind,
              const hpe::RunConfig &cfg, SpanLog &spans, std::uint64_t parent,
              std::uint64_t group, const std::string &label)
{
    TracedCell out;
    hpe::StatRegistry stats;
    const std::int64_t c0 = nowNs();
    std::unique_ptr<hpe::EvictionPolicy> inner =
        hpe::makePolicy(kind, trace, stats, cfg.hpe, cfg.seed);
    CountingPolicy policy(*inner);
    const std::int64_t e0 = nowNs();
    if (functional) {
        hpe::PagingOptions opts{.degradation = cfg.gpu.degradation,
                                .validate = cfg.gpu.validate,
                                .faultBatch = cfg.gpu.driver.batchSize,
                                .prefetch = cfg.gpu.driver.prefetch,
                                .pageSizes = cfg.gpu.pageSizes};
        if (opts.prefetch.kind == hpe::prefetch::PrefetchKind::None
            && cfg.gpu.driver.prefetchDegree > 0) {
            opts.prefetch.kind = hpe::prefetch::PrefetchKind::Sequential;
            opts.prefetch.degree = cfg.gpu.driver.prefetchDegree;
            opts.prefetch.blockPages = cfg.gpu.driver.prefetchBlockPages;
        }
        out.paging = hpe::runPaging(trace, policy,
                                    hpe::framesFor(trace, cfg.oversub), stats,
                                    opts);
    } else {
        hpe::GpuSystem gpu(cfg.gpu, trace, policy,
                           hpe::framesFor(trace, cfg.oversub), stats,
                           dynamic_cast<hpe::HpePolicy *>(inner.get()));
        out.timing = gpu.run();
    }
    const std::int64_t e1 = nowNs();
    out.seconds = secondsBetween(c0, e1);
    out.engineSeconds = secondsBetween(e0, e1);
    out.calls = policy.calls;
    out.ns = policy.ns;

    const auto counter = [&stats](const std::string &name) -> std::uint64_t {
        return stats.hasCounter(name) ? stats.findCounter(name).value() : 0;
    };
    GpuCounters &g = out.gpu;
    g.lineAccesses = counter("gpu.lineAccesses");
    g.eqFired = counter("gpu.eq.fired");
    g.eqPeakPending = counter("gpu.eq.peakPending");
    g.eqOverflowPromoted = counter("gpu.eq.overflowPromoted");
    for (unsigned sm = 0; stats.hasCounter("gpu.sm" + std::to_string(sm)
                                           + ".l1tlb.hits");
         ++sm) {
        const std::string prefix = "gpu.sm" + std::to_string(sm);
        g.l1TlbHits += counter(prefix + ".l1tlb.hits");
        g.l1TlbMisses += counter(prefix + ".l1tlb.misses");
        g.l1dHits += counter(prefix + ".l1d.hits");
        g.l1dMisses += counter(prefix + ".l1d.misses");
    }
    g.l2TlbHits = counter("gpu.l2tlb.hits");
    g.l2TlbMisses = counter("gpu.l2tlb.misses");
    g.walks = counter("gpu.walker.walks");
    g.l2dHits = counter("gpu.l2d.hits");
    g.l2dMisses = counter("gpu.l2d.misses");
    g.dramReads = counter("gpu.dram.reads");
    g.dramRowHits = counter("gpu.dram.rowHits");
    g.dramRowMisses = counter("gpu.dram.rowMisses");
    g.pcieTransfers = counter("pcie.transfers");
    g.pcieBytes = counter("pcie.bytes");
    g.uvmHits = counter("driver.uvm.hits");

    const std::uint64_t cellSpan =
        spans.add("cell " + label, c0, e1, parent, group);
    spans.add("makePolicy", c0, e0, cellSpan, group);
    spans.add(functional ? "runPaging" : "GpuSystem", e0, e1, cellSpan, group);
    for (int cb = 0; cb < CountingPolicy::kCallbacks; ++cb)
        spans.aggregate({group, CountingPolicy::kNames[cb], out.calls[cb],
                         out.ns[cb]});
    return out;
}

std::uint64_t
PolicyTotals::totalCalls() const
{
    std::uint64_t n = 0;
    for (std::uint64_t c : calls)
        n += c;
    return n;
}

double
PolicyTotals::policySeconds() const
{
    std::uint64_t total = 0;
    for (std::uint64_t v : ns)
        total += v;
    return static_cast<double>(total) * 1e-9;
}

void
fillPolicyLayers(const std::vector<PolicyTotals> &passes, double refs,
                 PerLayer &out)
{
    if (passes.empty())
        return;
    const auto medianOf = [&passes](auto fn) {
        std::vector<double> v;
        for (const PolicyTotals &p : passes)
            v.push_back(fn(p));
        return median(v);
    };
    const auto perCall = [](std::uint64_t ns, std::uint64_t calls) {
        return calls == 0 ? 0.0
                          : static_cast<double>(ns) / static_cast<double>(calls);
    };
    out.policySelfS = medianOf([](const PolicyTotals &p) {
        return p.policySeconds();
    });
    out.policyShare = medianOf([](const PolicyTotals &p) {
        return p.cellSeconds > 0 ? p.policySeconds() / p.cellSeconds : 0.0;
    });
    out.policyCalls = static_cast<double>(passes.front().totalCalls());
    out.policyNsPerCall = medianOf([&](const PolicyTotals &p) {
        return perCall(static_cast<std::uint64_t>(p.policySeconds() * 1e9),
                       p.totalCalls());
    });
    for (int k = 0; k < CountingPolicy::kCallbacks; ++k)
        out.policyNsPerKind[k] = medianOf([&](const PolicyTotals &p) {
            return perCall(p.ns[k], p.calls[k]);
        });
    out.policyVictimNs = medianOf([&](const PolicyTotals &p) {
        return perCall(p.ns[CountingPolicy::SelectVictim]
                           + p.ns[CountingPolicy::OnEvict],
                       p.calls[CountingPolicy::SelectVictim]);
    });
    out.simSelfS = medianOf([](const PolicyTotals &p) {
        return p.engineSeconds - p.policySeconds();
    });
    out.simNsPerRef = refs > 0 ? out.simSelfS * 1e9 / refs : 0.0;
}

std::string
runEnvelope(const hpe::api::ExperimentRequest &req)
{
    using hpe::api::json::Object;
    using hpe::api::json::Value;
    return Value(Object{{"request", req.toJson()},
                        {"type", "run"},
                        {"v", 2}})
        .dump();
}

ApiCost
timeApi(const std::string &line, const hpe::api::ExperimentResult &result,
        std::string &fingerprintOut)
{
    ApiCost cost;
    const std::int64_t t0 = nowNs();
    const auto envelope = hpe::api::json::parse(line);
    std::string error;
    std::optional<hpe::api::ExperimentRequest> req;
    if (envelope.has_value())
        if (const auto *r = envelope->find("request"); r != nullptr)
            req = hpe::api::ExperimentRequest::fromJson(*r, error);
    const std::int64_t t1 = nowNs();
    fingerprintOut = req.has_value() ? req->fingerprint() : std::string();
    const std::int64_t t2 = nowNs();
    const std::string bytes = result.toJson().dump();
    const std::int64_t t3 = nowNs();
    cost.parseUs = static_cast<double>(t1 - t0) * 1e-3;
    cost.fingerprintUs = static_cast<double>(t2 - t1) * 1e-3;
    cost.resultJsonUs = static_cast<double>(t3 - t2) * 1e-3;
    return cost;
}

namespace {

/** Setup (trace build + warm-up cell) repetitions; the median is
 *  reported, so work moved into setup shows. */
constexpr int kSetupRepeats = 31;

/** Cells of the serial cross-check per run (seed-rotated). */
constexpr std::size_t kCrossCheckCells = 24;

struct SimSpec
{
    bool functional;
    double scale;
    std::vector<hpe::PolicyKind> kinds;
    std::vector<double> oversubs;
};

struct Cell
{
    std::size_t app;
    hpe::PolicyKind kind;
    double oversub;
};

struct CellResult
{
    hpe::PagingResult paging{};
    hpe::TimingResult timing{};
    double seconds = 0.0;
};

hpe::RunConfig
configFor(const Cell &cell, std::uint64_t seed)
{
    hpe::RunConfig cfg;
    cfg.oversub = cell.oversub;
    cfg.seed = seed;
    return cfg;
}

/** Every result field of a cell as text: equal text = identical result. */
std::string
canonical(const std::string &app, const Cell &cell,
          const hpe::PagingResult &p, const hpe::TimingResult &t)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s,%s,%.2f,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
                  "%llu,%llu,%.17g,%llu,%llu,%llu,%.17g",
                  app.c_str(), hpe::policyKindName(cell.kind), cell.oversub,
                  (unsigned long long)p.references, (unsigned long long)p.hits,
                  (unsigned long long)p.faults, (unsigned long long)p.evictions,
                  (unsigned long long)p.dirtyEvictions,
                  (unsigned long long)p.prefetches,
                  (unsigned long long)p.prefetchUseful,
                  (unsigned long long)p.prefetchWasted,
                  (unsigned long long)p.prefetchLate,
                  (unsigned long long)t.cycles,
                  (unsigned long long)t.instructions, t.ipc,
                  (unsigned long long)t.faults, (unsigned long long)t.evictions,
                  (unsigned long long)t.driverBusyCycles, t.hostLoad);
    return buf;
}

hpe::api::ExperimentResult
apiResultOf(bool functional, const hpe::PagingResult &p,
            const hpe::TimingResult &t)
{
    hpe::api::ExperimentResult out;
    out.functional = functional;
    if (functional) {
        out.references = p.references;
        out.hits = p.hits;
        out.faults = p.faults;
        out.evictions = p.evictions;
        out.dirtyEvictions = p.dirtyEvictions;
        out.prefetches = p.prefetches;
        out.prefetchUseful = p.prefetchUseful;
        out.prefetchWasted = p.prefetchWasted;
        out.prefetchLate = p.prefetchLate;
        out.faultRate = p.faultRate();
    } else {
        out.faults = t.faults;
        out.evictions = t.evictions;
        out.cycles = t.cycles;
        out.instructions = t.instructions;
        out.ipc = t.ipc;
        out.hostLoad = t.hostLoad;
    }
    return out;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

Report
runSim(const SimSpec &spec, const Options &opt, SpanLog &spans)
{
    Report rep;
    std::vector<std::string> apps;
    for (const hpe::AppSpec &s : hpe::appSpecs())
        apps.push_back(s.abbr);
    // The measured passes run on every thread: the host's speed drifts
    // per vCPU, and a serial pass rides one of them.
    const unsigned jobs = opt.threads;
    hpe::SweepRunner runner(jobs);
    hpe::SweepRunner traceBuild(1);

    std::vector<Cell> cells;
    for (std::size_t a = 0; a < apps.size(); ++a)
        for (double oversub : spec.oversubs)
            for (hpe::PolicyKind kind : spec.kinds)
                cells.push_back({a, kind, oversub});
    const auto labelOf = [&](const Cell &c) {
        char buf[96];
        std::snprintf(buf, sizeof buf, "%s/%s/%.2f", apps[c.app].c_str(),
                      hpe::policyKindName(c.kind), c.oversub);
        return std::string(buf);
    };
    const auto runCell = [&](const std::vector<hpe::Trace> &traces,
                             const Cell &cell) {
        CellResult r;
        const std::int64_t t0 = nowNs();
        if (spec.functional)
            r.paging = hpe::runFunctional(traces[cell.app], cell.kind,
                                          configFor(cell, opt.seed));
        else
            r.timing = hpe::runTiming(traces[cell.app], cell.kind,
                                      configFor(cell, opt.seed));
        r.seconds = secondsBetween(t0, nowNs());
        return r;
    };

    // ---- setup: trace build + one warm-up cell, repeated ----------------
    std::vector<hpe::Trace> traces;
    std::vector<double> setupS, buildS;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        // The previous set is freed first, so peak_rss_mb holds one set.
        traces.clear();
        traces.shrink_to_fit();
        const std::int64_t s0 = nowNs();
        traces = traceBuild.mapItems(apps, [&](const std::string &abbr) {
            return hpe::buildApp(abbr, spec.scale, opt.seed);
        });
        const std::int64_t b1 = nowNs();
        runCell(traces, cells.front());
        const std::int64_t s1 = nowNs();
        buildS.push_back(secondsBetween(s0, b1));
        setupS.push_back(secondsBetween(s0, s1));
        if (opt.trace) {
            const std::uint64_t id = spans.add("setup", s0, s1, 0, 0);
            spans.add("buildApp x" + std::to_string(apps.size()), s0, b1, id, 0);
        }
    }
    double refsPerPass = 0;
    for (const Cell &c : cells)
        refsPerPass += static_cast<double>(traces[c.app].size());

    // ---- measured passes ------------------------------------------------
    std::vector<std::vector<CellResult>> passes;
    std::vector<double> walls;
    std::vector<std::vector<TracedCell>> tracedPasses;
    std::vector<double> tracedWalls;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    do {
        const std::int64_t p0 = nowNs();
        passes.push_back(runner.map(cells.size(), [&](std::size_t i) {
            return runCell(traces, cells[i]);
        }));
        walls.push_back(secondsBetween(p0, nowNs()));
        if (!opt.trace)
            continue;
        const std::int64_t t0 = nowNs();
        const std::uint64_t passId = tracedPasses.size();
        const std::uint64_t passSpan =
            spans.open("pass " + std::to_string(passId), t0, 0, 0);
        tracedPasses.push_back(runner.map(cells.size(), [&](std::size_t i) {
            const Cell &c = cells[i];
            return runTracedCell(spec.functional, traces[c.app], c.kind,
                                 configFor(c, opt.seed), spans, passSpan,
                                 passId * cells.size() + i + 1, labelOf(c));
        }));
        const std::int64_t t1 = nowNs();
        spans.close(passSpan, t1);
        tracedWalls.push_back(secondsBetween(t0, t1));
    } while (nowNs() < deadline);

    // ---- correctness ----------------------------------------------------
    const std::vector<CellResult> &ref = passes.front();
    std::vector<std::string> refText;
    std::uint64_t digest = kFnvBasis;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        refText.push_back(canonical(apps[cells[i].app], cells[i],
                                    ref[i].paging, ref[i].timing));
        digest = fnv1a(digest, refText.back() + "\n");
    }
    // Reference pass: sanity, and Ideal (Belady MIN) as the lower bound
    // on evictions for every policy at the same app and oversub.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        bool ok = spec.functional ? ref[i].paging.references > 0
                                  : ref[i].timing.instructions > 0
                                        && ref[i].timing.ipc > 0;
        if (spec.functional)
            for (std::size_t j = 0; j < cells.size(); ++j)
                if (cells[j].app == c.app && cells[j].oversub == c.oversub
                    && cells[j].kind == hpe::PolicyKind::Ideal)
                    ok = ok
                        && ref[j].paging.evictions <= ref[i].paging.evictions;
        rep.check(ok, "cell " + labelOf(c) + " (sanity / Ideal bound)");
    }
    for (std::size_t p = 1; p < passes.size(); ++p)
        for (std::size_t i = 0; i < cells.size(); ++i)
            rep.check(canonical(apps[cells[i].app], cells[i],
                                passes[p][i].paging, passes[p][i].timing)
                          == refText[i],
                      "pass " + std::to_string(p) + " cell " + labelOf(cells[i])
                          + " differs from pass 0");
    if (!tracedPasses.empty()) {
        std::uint64_t tracedDigest = kFnvBasis;
        for (std::size_t i = 0; i < cells.size(); ++i)
            tracedDigest = fnv1a(tracedDigest,
                                 canonical(apps[cells[i].app], cells[i],
                                           tracedPasses[0][i].paging,
                                           tracedPasses[0][i].timing)
                                     + "\n");
        rep.notes.push_back("sim_digest (traced pass) = " + hex64(tracedDigest));
    }
    for (std::size_t p = 0; p < tracedPasses.size(); ++p)
        for (std::size_t i = 0; i < cells.size(); ++i)
            rep.check(canonical(apps[cells[i].app], cells[i],
                                tracedPasses[p][i].paging,
                                tracedPasses[p][i].timing)
                          == refText[i],
                      "traced cell " + labelOf(cells[i])
                          + " differs from untraced");
    // SweepRunner::run serially on a seed-rotated subset: the measured
    // passes are parallel.
    {
        const std::size_t stride =
            std::max<std::size_t>(1, cells.size() / kCrossCheckCells);
        std::vector<std::size_t> picked;
        std::vector<hpe::SweepJob> subset;
        for (std::size_t i = opt.seed % stride; i < cells.size(); i += stride) {
            picked.push_back(i);
            subset.push_back(hpe::SweepJob{&traces[cells[i].app], cells[i].kind,
                                           configFor(cells[i], opt.seed),
                                           spec.functional});
        }
        hpe::SweepRunner serial(1);
        const auto outs = serial.run(subset);
        for (std::size_t k = 0; k < picked.size(); ++k) {
            const std::size_t i = picked[k];
            rep.check(canonical(apps[cells[i].app], cells[i], outs[k].paging,
                                outs[k].timing)
                          == refText[i],
                      "serial SweepRunner::run cell " + labelOf(cells[i])
                          + " differs");
        }
    }

    // ---- paper fidelity (exact, from the reference pass) ----------------
    double fig12b = 0, fig10 = 0;
    {
        double sum = 0;
        std::size_t n = 0;
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const auto find = [&](hpe::PolicyKind kind) -> const CellResult * {
                for (std::size_t i = 0; i < cells.size(); ++i)
                    if (cells[i].app == a && cells[i].kind == kind
                        && cells[i].oversub == 0.75)
                        return &ref[i];
                return nullptr;
            };
            if (spec.functional) {
                const CellResult *hpeCell = find(hpe::PolicyKind::Hpe);
                const CellResult *ideal = find(hpe::PolicyKind::Ideal);
                if (hpeCell == nullptr || ideal == nullptr)
                    continue;
                sum += ideal->paging.evictions > 0
                    ? ratio(hpeCell->paging.evictions, ideal->paging.evictions)
                    : 1.0;
            } else {
                const CellResult *hpeCell = find(hpe::PolicyKind::Hpe);
                const CellResult *lru = find(hpe::PolicyKind::Lru);
                if (hpeCell == nullptr || lru == nullptr)
                    continue;
                sum += hpeCell->timing.ipc / lru->timing.ipc;
            }
            ++n;
        }
        const double mean = n == 0 ? 0.0 : sum / static_cast<double>(n);
        if (spec.functional)
            fig12b = std::fabs(mean - 1.18);
        else
            fig10 = std::fabs(mean - 1.34);
    }

    // ---- end-to-end metrics ---------------------------------------------
    // A cell's latency is its fastest run over the passes: interference
    // from other tenants only ever adds time, and on a shared machine it
    // comes in bursts of seconds.
    std::vector<double> krefs, busy, maxCell;
    std::vector<double> cellMs(cells.size(), 0.0);
    for (std::size_t p = 0; p < passes.size(); ++p) {
        krefs.push_back(refsPerPass / walls[p] / 1e3);
        double sum = 0, mx = 0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const double ms = passes[p][i].seconds * 1e3;
            cellMs[i] = p == 0 ? ms : std::min(cellMs[i], ms);
            sum += passes[p][i].seconds;
            mx = std::max(mx, passes[p][i].seconds);
        }
        busy.push_back(sum);
        maxCell.push_back(mx);
    }
    rep.notes.push_back(spreadLine("setup repeats", setupS));
    rep.notes.push_back("sim_digest = " + hex64(digest) + " (" +
                        std::to_string(cells.size()) + " cells, " +
                        std::to_string(passes.size()) + " untraced + " +
                        std::to_string(tracedPasses.size()) +
                        " traced passes, jobs " + std::to_string(jobs) + ")");
    rep.notes.push_back("cell latency samples: " +
                        std::to_string(cellMs.size()) + " cells, best of " +
                        std::to_string(passes.size()) + " passes each; cell_tail_ms is p" +
                        std::to_string(tailQuantile(cellMs.size()) * 100).substr(0, 4));
    {
        std::string line = "untraced pass walls (s):";
        char buf[32];
        for (double w : walls) {
            std::snprintf(buf, sizeof buf, " %.3f", w);
            line += buf;
        }
        rep.notes.push_back(line);
    }
    if (spec.functional)
        rep.note("fig12b_err", fig12b, "ratio");
    else
        rep.note("fig10_err", fig10, "ratio");

    if (!opt.trace) {
        rep.add("setup_s", median(setupS), "s");
        rep.add("krefs_per_s", median(krefs), "krefs/s");
        rep.add("peak_rss_mb", peakRssMb(), "MB");
        rep.note("cell_p50_ms", quantile(cellMs, 0.50), "ms");
        rep.note("cell_tail_ms", quantile(cellMs, tailQuantile(cellMs.size())), "ms");
        return rep;
    }

    // ---- per-layer metrics (traced run) ---------------------------------
    PerLayer L;
    L.workloadBuildS = median(buildS);
    L.workloadRefs = refsPerPass;
    std::vector<PolicyTotals> totals;
    for (const auto &pass : tracedPasses) {
        PolicyTotals t;
        for (const TracedCell &c : pass)
            t.add(c);
        totals.push_back(t);
    }
    fillPolicyLayers(totals, refsPerPass, L);
    GpuCounters g;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const TracedCell &c = tracedPasses.front()[i];
        g += c.gpu;
        const hpe::PagingResult &p = ref[i].paging;
        const hpe::TimingResult &t = ref[i].timing;
        L.driverFaults += static_cast<double>(spec.functional ? p.faults : t.faults);
        L.driverEvictions +=
            static_cast<double>(spec.functional ? p.evictions : t.evictions);
        L.driverHits += static_cast<double>(spec.functional ? p.hits : c.gpu.uvmHits);
    }
    L.gpuEventsPerAccess = ratio(g.eqFired, g.lineAccesses);
    L.gpuEqFired = static_cast<double>(g.eqFired);
    L.gpuEqPeakPending = static_cast<double>(g.eqPeakPending);
    L.gpuEqOverflowPromoted = static_cast<double>(g.eqOverflowPromoted);
    L.tlbL1HitRatio = ratio(g.l1TlbHits, g.l1TlbHits + g.l1TlbMisses);
    L.tlbL2HitRatio = ratio(g.l2TlbHits, g.l2TlbHits + g.l2TlbMisses);
    L.tlbWalks = static_cast<double>(g.walks);
    L.cacheL1dHitRatio = ratio(g.l1dHits, g.l1dHits + g.l1dMisses);
    L.cacheL2dHitRatio = ratio(g.l2dHits, g.l2dHits + g.l2dMisses);
    L.dramReads = static_cast<double>(g.dramReads);
    L.dramRowHitRatio = ratio(g.dramRowHits, g.dramRowHits + g.dramRowMisses);
    L.pcieTransfers = static_cast<double>(g.pcieTransfers);
    L.pcieBytes = static_cast<double>(g.pcieBytes);

    L.sweepWallS = median(walls);
    L.sweepBusyS = median(busy);
    L.sweepEfficiency = L.sweepBusyS / (L.sweepWallS * jobs);
    L.sweepMaxCellS = median(maxCell);

    std::vector<double> parseUs, fpUs, resultUs;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        hpe::api::ExperimentRequest req;
        req.app = apps[c.app];
        req.scale = spec.scale;
        req.seed = opt.seed;
        req.policy = hpe::policyKindName(c.kind);
        req.oversub = c.oversub;
        req.functional = spec.functional;
        std::string fp;
        const ApiCost cost = timeApi(
            runEnvelope(req),
            apiResultOf(spec.functional, ref[i].paging, ref[i].timing), fp);
        rep.check(fp == req.fingerprint(),
                  "api round trip of cell " + labelOf(c) + " changed its fingerprint");
        parseUs.push_back(cost.parseUs);
        fpUs.push_back(cost.fingerprintUs);
        resultUs.push_back(cost.resultJsonUs);
    }
    L.apiParseUs = median(parseUs);
    L.apiFingerprintUs = median(fpUs);
    L.apiResultJsonUs = median(resultUs);
    L.apiComputeMs = median(cellMs);
    L.fig12bErr = fig12b;
    L.fig10Err = fig10;
    L.traceOverhead = median(tracedWalls) / median(walls);
    emitPerLayer(L, rep);

    rep.note(spec.functional ? "driver.self_s" : "gpu.self_s", L.simSelfS, "s");
    if (!spec.functional)
        rep.note("gpu.ns_per_event",
                 g.eqFired == 0 ? 0.0 : L.simSelfS * 1e9 / L.gpuEqFired, "ns");
    rep.note("policy.on_prefetch_in.ns_per_call",
             L.policyNsPerKind[CountingPolicy::OnPrefetchIn], "ns");
    return rep;
}

} // namespace

Report
runPaperFunctional(const Options &opt, SpanLog &spans)
{
    // Fig. 12b: 23 Table II apps x the paper's six policies x {75%, 50%}
    // at scale 8 (close to the paper's footprints).
    const SimSpec spec{true, 8.0, hpe::allPolicyKinds(), {0.75, 0.50}};
    return runSim(spec, opt, spans);
}

Report
runPaperTiming(const Options &opt, SpanLog &spans)
{
    // Fig. 10: 23 apps x {LRU, HPE} at 75%, scale 2.
    const SimSpec spec{false, 2.0, {hpe::PolicyKind::Lru, hpe::PolicyKind::Hpe},
                       {0.75}};
    return runSim(spec, opt, spans);
}

} // namespace perfbench
