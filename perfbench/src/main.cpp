/**
 * @file
 * Entry point of the repository benchmark binary.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE] [--work-dir DIR] [--fingerprint JSON]
 *             [--threads N]
 *
 * Runs one workload, prints every metric by name with its unit, then a
 * last line holding one JSON object: {"correct", "attempted", "failed",
 * "metrics"}.  With --trace 0 the metrics are the end-to-end ones; with
 * --trace 1 the per-layer ones of a traced run.  perfbench/run.py builds
 * this binary and is the documented way to run it.
 */

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <sys/resource.h>

#include "bench.hpp"

namespace perfbench {

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
            continue;
        }
        out += c;
    }
    return out + "\"";
}

/** Shortest round-trip spelling: every digit the measurement has. */
std::string
number(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload paper-functional|paper-timing|"
                 "serve-mixed --seed N --seconds S --trace 0|1\n"
                 "                 [--trace-out FILE] [--work-dir DIR] "
                 "[--fingerprint JSON] [--threads N]\n";
    std::exit(2);
}

std::uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    std::uint64_t v = 0;
    const auto res = std::from_chars(text.data(), text.data() + text.size(), v);
    if (res.ec != std::errc() || res.ptr != text.data() + text.size())
        usage("bad value for " + flag + ": '" + text + "'");
    return v;
}

Options
parse(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            opt.workload = value;
        else if (flag == "--seed")
            opt.seed = parseUint(flag, value);
        else if (flag == "--seconds")
            opt.seconds = static_cast<double>(parseUint(flag, value));
        else if (flag == "--trace")
            opt.trace = parseUint(flag, value) != 0;
        else if (flag == "--trace-out")
            opt.traceOut = value;
        else if (flag == "--work-dir")
            opt.workDir = value;
        else if (flag == "--fingerprint")
            opt.fingerprint = value;
        else if (flag == "--threads")
            opt.threads = static_cast<unsigned>(parseUint(flag, value));
        else
            usage("unknown flag " + flag);
    }
    if (opt.workload.empty())
        usage("--workload is required");
    if (opt.seconds < 1)
        usage("--seconds must be at least 1");
    if (opt.threads == 0)
        opt.threads = 1;
    return opt;
}

} // namespace

void
emitPerLayer(const PerLayer &L, Report &r)
{
    r.add("workload.build_s", L.workloadBuildS, "s");
    r.add("workload.refs", L.workloadRefs, "count");
    r.add("policy.self_s", L.policySelfS, "s");
    r.add("policy.share", L.policyShare, "ratio");
    r.add("policy.calls", L.policyCalls, "count");
    r.add("policy.ns_per_call", L.policyNsPerCall, "ns");
    // on_prefetch_in is left out: no workload prefetches by default, so
    // it would read 0 everywhere (it is printed as an info line).
    for (int k = 0; k < CountingPolicy::OnPrefetchIn; ++k)
        r.add(std::string("policy.") + CountingPolicy::kNames[k]
                  + ".ns_per_call",
              L.policyNsPerKind[k], "ns");
    r.add("policy.victim_ns", L.policyVictimNs, "ns");
    r.add("sim.self_s", L.simSelfS, "s");
    r.add("sim.ns_per_ref", L.simNsPerRef, "ns");
    r.add("driver.faults", L.driverFaults, "count");
    r.add("driver.evictions", L.driverEvictions, "count");
    r.add("driver.hits", L.driverHits, "count");
    r.add("gpu.events_per_access", L.gpuEventsPerAccess, "ratio");
    r.add("gpu.eq.fired", L.gpuEqFired, "count");
    r.add("gpu.eq.peak_pending", L.gpuEqPeakPending, "count");
    r.add("gpu.eq.overflow_promoted", L.gpuEqOverflowPromoted, "count");
    r.add("tlb.l1.hit_ratio", L.tlbL1HitRatio, "ratio");
    r.add("tlb.l2.hit_ratio", L.tlbL2HitRatio, "ratio");
    r.add("tlb.walks", L.tlbWalks, "count");
    r.add("cache.l1d.hit_ratio", L.cacheL1dHitRatio, "ratio");
    r.add("cache.l2d.hit_ratio", L.cacheL2dHitRatio, "ratio");
    r.add("dram.reads", L.dramReads, "count");
    r.add("dram.row_hit_ratio", L.dramRowHitRatio, "ratio");
    r.add("pcie.transfers", L.pcieTransfers, "count");
    r.add("pcie.bytes", L.pcieBytes, "B");
    r.add("sweep.wall_s", L.sweepWallS, "s");
    r.add("sweep.busy_s", L.sweepBusyS, "s");
    r.add("sweep.efficiency", L.sweepEfficiency, "ratio");
    r.add("sweep.max_cell_s", L.sweepMaxCellS, "s");
    r.add("api.parse_us", L.apiParseUs, "us");
    r.add("api.fingerprint_us", L.apiFingerprintUs, "us");
    r.add("api.result_json_us", L.apiResultJsonUs, "us");
    r.add("api.compute_ms", L.apiComputeMs, "ms");
    r.add("serve.cache_hit_ratio", L.serveCacheHitRatio, "ratio");
    r.add("serve.shard_skew", L.serveShardSkew, "ratio");
    r.add("fidelity.fig12b_err", L.fig12bErr, "ratio");
    r.add("fidelity.fig10_err", L.fig10Err, "ratio");
    r.add("trace.overhead", L.traceOverhead, "ratio");
}

bool
SpanLog::write(const std::string &path, const std::string &header) const
{
    std::ofstream os(path);
    os << header << "\n";
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span &s : spans_)
        os << "{\"span\":" << jsonString(s.name) << ",\"id\":" << s.id
           << ",\"parent\":" << s.parent << ",\"group\":" << s.group
           << ",\"start_ns\":" << s.startNs << ",\"end_ns\":" << s.endNs
           << "}\n";
    for (const CallAggregate &a : aggregates_)
        os << "{\"aggregate\":" << jsonString(a.callback)
           << ",\"group\":" << a.group << ",\"calls\":" << a.calls
           << ",\"ns\":" << a.ns << "}\n";
    os.flush();
    return static_cast<bool>(os);
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Options opt = parse(argc, argv);

    SpanLog spans;
    Report report;
    if (opt.workload == "paper-functional")
        report = runPaperFunctional(opt, spans);
    else if (opt.workload == "paper-timing")
        report = runPaperTiming(opt, spans);
    else if (opt.workload == "serve-mixed")
        report = runServeMixed(opt, spans);
    else
        usage("unknown workload '" + opt.workload + "'");

    if (opt.trace && !opt.traceOut.empty()) {
        const std::string header = "{\"fingerprint\":" + opt.fingerprint
            + ",\"workload\":" + jsonString(opt.workload)
            + ",\"seed\":" + std::to_string(opt.seed) + "}";
        if (!spans.write(opt.traceOut, header)) {
            std::cerr << "perfbench: cannot write " << opt.traceOut << "\n";
            return 1;
        }
        std::cout << "spans: " << spans.size() << " written to "
                  << opt.traceOut << "\n";
    }

    for (const std::string &line : report.notes)
        std::cout << line << "\n";
    if (!report.valid)
        std::cout << "run INVALID (see notes above)\n";
    std::cout << "failed_frac = "
              << number(report.attempted == 0
                            ? 0.0
                            : static_cast<double>(report.failed)
                                  / static_cast<double>(report.attempted))
              << " (" << report.failed << " of " << report.attempted
              << " checked operations)\n";
    for (const auto *list : {&report.metrics, &report.extra})
        for (const Metric &m : *list)
            std::cout << (list == &report.metrics ? "metric " : "info   ")
                      << m.name << " = " << number(m.value) << " " << m.unit
                      << "\n";

    std::string json = "{\"correct\": ";
    json += report.valid && report.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted);
    json += ", \"failed\": " + std::to_string(report.failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < report.metrics.size(); ++i) {
        const Metric &m = report.metrics[i];
        json += (i == 0 ? "" : ", ") + jsonString(m.name) + ": {\"value\": "
            + number(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
    }
    json += "}}";
    std::cout << json << std::endl;
    return 0;
}
