/**
 * @file
 * Shared pieces of the repository benchmark: the report every workload
 * fills, in-memory spans, the forwarding policy wrapper of traced runs,
 * and small statistics helpers.
 *
 * The benchmark measures from outside the program: it times calls into
 * the public functions of each module and reads the StatRegistry
 * counters those calls leave behind.  Nothing here changes what the
 * simulator computes.
 */

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "policy/eviction_policy.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
secondsBetween(std::int64_t startNs, std::int64_t endNs)
{
    return static_cast<double>(endNs - startNs) * 1e-9;
}

/** Command-line options of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Where the traced run writes its spans (JSON lines). */
    std::string traceOut;
    /** Scratch directory for the serve workload's durable store. */
    std::string workDir;
    /** Machine/build fingerprint (one JSON object), echoed into the
     *  span file so a trace is never compared across machines. */
    std::string fingerprint = "{}";
    /** Worker threads; the benchmark never exceeds the machine's. */
    unsigned threads = 1;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything one workload run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** False when the run itself is invalid (not merely slow). */
    bool valid = true;
    /** The metrics of the final JSON line (BENCHMARK.json's lists). */
    std::vector<Metric> metrics;
    /** Further named metrics, printed but not part of the JSON line. */
    std::vector<Metric> extra;
    /** Lines printed before the metrics (digests, counts, failures). */
    std::vector<std::string> notes;

    /** Count one checked operation; record why it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failed <= 20)
                notes.push_back("CHECK FAILED: " + what);
        }
    }

    void add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void note(const std::string &name, double value, const std::string &unit)
    {
        extra.push_back({name, value, unit});
    }
};

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    /** Enclosing span, 0 = root. */
    std::uint64_t parent = 0;
    /** Shared by every span of one cell or request. */
    std::uint64_t group = 0;
};

/** Per (group, callback) policy aggregate: too many calls for spans. */
struct CallAggregate
{
    std::uint64_t group = 0;
    std::string callback;
    std::uint64_t calls = 0;
    std::uint64_t ns = 0;
};

/** Spans and aggregates kept in memory and written once at exit. */
class SpanLog
{
  public:
    /** Open a span whose end is set later by close(); @return its id. */
    std::uint64_t
    open(std::string name, std::int64_t startNs, std::uint64_t parent,
         std::uint64_t group)
    {
        return add(std::move(name), startNs, startNs, parent, group);
    }

    void
    close(std::uint64_t id, std::int64_t endNs)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.at(id - 1).endNs = endNs;
    }

    std::uint64_t
    add(std::string name, std::int64_t startNs, std::int64_t endNs,
        std::uint64_t parent, std::uint64_t group)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const std::uint64_t id = spans_.size() + 1;
        spans_.push_back({std::move(name), startNs, endNs, id, parent, group});
        return id;
    }

    void
    aggregate(CallAggregate agg)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        aggregates_.push_back(std::move(agg));
    }

    /** Write every span and aggregate as JSON lines; false on I/O error. */
    bool write(const std::string &path, const std::string &header) const;

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::vector<CallAggregate> aggregates_;
};

/**
 * Forwarding EvictionPolicy that counts and times every protocol
 * callback before handing it to the real policy.  Passed to runPaging
 * and GpuSystem in traced runs; the inner policy sees the exact same
 * call sequence, so results are unchanged.
 */
class CountingPolicy final : public hpe::EvictionPolicy
{
  public:
    enum Callback {
        OnHit,
        OnFault,
        SelectVictim,
        OnEvict,
        OnMigrateIn,
        OnPrefetchIn,
        kCallbacks
    };
    static constexpr std::array<const char *, kCallbacks> kNames = {
        "on_hit", "on_fault", "select_victim", "on_evict", "on_migrate_in",
        "on_prefetch_in"};

    explicit CountingPolicy(hpe::EvictionPolicy &inner) : inner_(inner) {}

    void onHit(hpe::PageId p) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onHit(p);
        charge(OnHit, t0);
    }
    void onFault(hpe::PageId p) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onFault(p);
        charge(OnFault, t0);
    }
    hpe::PageId selectVictim() override
    {
        const std::int64_t t0 = nowNs();
        const hpe::PageId victim = inner_.selectVictim();
        charge(SelectVictim, t0);
        return victim;
    }
    void onEvict(hpe::PageId p) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onEvict(p);
        charge(OnEvict, t0);
    }
    void onMigrateIn(hpe::PageId p) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onMigrateIn(p);
        charge(OnMigrateIn, t0);
    }
    void onPrefetchIn(hpe::PageId p) override
    {
        const std::int64_t t0 = nowNs();
        inner_.onPrefetchIn(p);
        charge(OnPrefetchIn, t0);
    }
    std::string name() const override { return inner_.name(); }
    void reserveCapacity(std::size_t frames) override
    {
        inner_.reserveCapacity(frames);
    }
    void setTraceSink(hpe::trace::TraceSink *sink) override
    {
        inner_.setTraceSink(sink);
    }
    std::optional<std::vector<hpe::PageId>>
    trackedResidentPages() const override
    {
        return inner_.trackedResidentPages();
    }

    std::array<std::uint64_t, kCallbacks> calls{};
    std::array<std::uint64_t, kCallbacks> ns{};

  private:
    void
    charge(Callback cb, std::int64_t t0)
    {
        ++calls[cb];
        ns[cb] += static_cast<std::uint64_t>(nowNs() - t0);
    }

    hpe::EvictionPolicy &inner_;
};

/**
 * The per-layer metrics, reported by every workload in this order.  A
 * layer a workload does not exercise reads 0 (only counts and ratios
 * can: every time metric is measured on every workload).
 */
struct PerLayer
{
    double workloadBuildS = 0, workloadRefs = 0;
    double policySelfS = 0, policyShare = 0, policyCalls = 0,
           policyNsPerCall = 0;
    std::array<double, CountingPolicy::kCallbacks> policyNsPerKind{};
    double policyVictimNs = 0;
    double simSelfS = 0, simNsPerRef = 0;
    double driverFaults = 0, driverEvictions = 0, driverHits = 0;
    double gpuEventsPerAccess = 0, gpuEqFired = 0, gpuEqPeakPending = 0,
           gpuEqOverflowPromoted = 0;
    double tlbL1HitRatio = 0, tlbL2HitRatio = 0, tlbWalks = 0,
           cacheL1dHitRatio = 0, cacheL2dHitRatio = 0, dramReads = 0,
           dramRowHitRatio = 0, pcieTransfers = 0, pcieBytes = 0;
    double sweepWallS = 0, sweepBusyS = 0, sweepEfficiency = 0,
           sweepMaxCellS = 0;
    double apiParseUs = 0, apiFingerprintUs = 0, apiResultJsonUs = 0,
           apiComputeMs = 0;
    double serveCacheHitRatio = 0, serveShardSkew = 0;
    double fig12bErr = 0, fig10Err = 0;
    double traceOverhead = 0;
};

/** Append @p layers to @p report's JSON metrics. */
void emitPerLayer(const PerLayer &layers, Report &report);

/** StatRegistry counters of one traced timing cell. */
struct GpuCounters
{
    std::uint64_t lineAccesses = 0, eqFired = 0, eqPeakPending = 0,
                  eqOverflowPromoted = 0, l1TlbHits = 0, l1TlbMisses = 0,
                  l2TlbHits = 0, l2TlbMisses = 0, walks = 0, l1dHits = 0,
                  l1dMisses = 0, l2dHits = 0, l2dMisses = 0, dramReads = 0,
                  dramRowHits = 0, dramRowMisses = 0, pcieTransfers = 0,
                  pcieBytes = 0, uvmHits = 0;

    /** Sum over cells (the queue peak is a maximum). */
    GpuCounters &
    operator+=(const GpuCounters &o)
    {
        lineAccesses += o.lineAccesses;
        eqFired += o.eqFired;
        eqPeakPending = std::max(eqPeakPending, o.eqPeakPending);
        eqOverflowPromoted += o.eqOverflowPromoted;
        l1TlbHits += o.l1TlbHits;
        l1TlbMisses += o.l1TlbMisses;
        l2TlbHits += o.l2TlbHits;
        l2TlbMisses += o.l2TlbMisses;
        walks += o.walks;
        l1dHits += o.l1dHits;
        l1dMisses += o.l1dMisses;
        l2dHits += o.l2dHits;
        l2dMisses += o.l2dMisses;
        dramReads += o.dramReads;
        dramRowHits += o.dramRowHits;
        dramRowMisses += o.dramRowMisses;
        pcieTransfers += o.pcieTransfers;
        pcieBytes += o.pcieBytes;
        uvmHits += o.uvmHits;
        return *this;
    }
};

/** One simulation through the counting wrapper. */
struct TracedCell
{
    hpe::PagingResult paging{};
    hpe::TimingResult timing{};
    /** Whole cell: policy build plus engine. */
    double seconds = 0.0;
    /** runPaging(), or GpuSystem construction plus run(). */
    double engineSeconds = 0.0;
    std::array<std::uint64_t, CountingPolicy::kCallbacks> calls{};
    std::array<std::uint64_t, CountingPolicy::kCallbacks> ns{};
    GpuCounters gpu;
};

/**
 * runFunctionalInspect() / runTimingInspect() with the policy wrapped in
 * a CountingPolicy.  Records the cell span (under @p parent, in
 * @p group), its policy-build and engine child spans, and the per
 * callback aggregates.
 */
TracedCell runTracedCell(bool functional, const hpe::Trace &trace,
                         hpe::PolicyKind kind, const hpe::RunConfig &cfg,
                         SpanLog &spans, std::uint64_t parent,
                         std::uint64_t group, const std::string &label);

/** Policy and engine totals over a set of traced cells. */
struct PolicyTotals
{
    std::array<std::uint64_t, CountingPolicy::kCallbacks> calls{};
    std::array<std::uint64_t, CountingPolicy::kCallbacks> ns{};
    double cellSeconds = 0.0;
    double engineSeconds = 0.0;

    void
    add(const TracedCell &c)
    {
        for (int k = 0; k < CountingPolicy::kCallbacks; ++k) {
            calls[k] += c.calls[k];
            ns[k] += c.ns[k];
        }
        cellSeconds += c.seconds;
        engineSeconds += c.engineSeconds;
    }
    std::uint64_t totalCalls() const;
    double policySeconds() const;
};

/**
 * Fill the policy.* and sim.* fields of @p out from the medians over
 * @p passes (one PolicyTotals per traced pass, @p refs simulated
 * references each).
 */
void fillPolicyLayers(const std::vector<PolicyTotals> &passes, double refs,
                      PerLayer &out);

/** Wire-level api costs of one request/result pair, in microseconds. */
struct ApiCost
{
    double parseUs = 0, fingerprintUs = 0, resultJsonUs = 0;
};

/**
 * Time the api layer on @p line (a v2 run envelope) and @p result: JSON
 * parse plus ExperimentRequest::fromJson, fingerprint(), and the result
 * serialization.  @p fingerprintOut receives the fingerprint.
 */
ApiCost timeApi(const std::string &line, const hpe::api::ExperimentResult &result,
                std::string &fingerprintOut);

/** The v2 `run` envelope of @p req, as sent on the wire. */
std::string runEnvelope(const hpe::api::ExperimentRequest &req);

/** Nearest-rank quantile of @p v (copied; q in [0, 1]); 0 when empty. */
inline double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(rank == 0 ? 0 : rank - 1, v.size() - 1)];
}

inline double median(const std::vector<double> &v) { return quantile(v, 0.5); }

/** The highest quantile, at most 0.99, that leaves at least ten of @p n
 *  samples beyond it: the tail a sample of that size can support. */
inline double
tailQuantile(std::size_t n)
{
    return n <= 20 ? 0.5 : std::min(0.99, 1.0 - 10.0 / static_cast<double>(n));
}

/** "<what>: min .. p25 .. median .. p75 .. max" of @p v (seconds, ms). */
inline std::string
spreadLine(const std::string &what, const std::vector<double> &v)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s (ms): min %.2f p25 %.2f median %.2f "
                  "p75 %.2f max %.2f", what.c_str(), quantile(v, 0) * 1e3,
                  quantile(v, 0.25) * 1e3, median(v) * 1e3,
                  quantile(v, 0.75) * 1e3, quantile(v, 1) * 1e3);
    return buf;
}

/** Peak resident set size of this process so far, in MiB. */
double peakRssMb();

/** FNV-1a 64 over @p bytes, folded into @p h. */
inline std::uint64_t
fnv1a(std::uint64_t h, const std::string &bytes)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::string hex64(std::uint64_t v);

/** The workloads; each returns its filled report. */
Report runPaperFunctional(const Options &opt, SpanLog &spans);
Report runPaperTiming(const Options &opt, SpanLog &spans);
Report runServeMixed(const Options &opt, SpanLog &spans);

} // namespace perfbench
