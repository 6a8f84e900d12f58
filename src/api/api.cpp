#include "api/api.hpp"

#include <sstream>

#include "api/registry.hpp"
#include "common/log.hpp"
#include "mem/page_size.hpp"
#include "trace/events.hpp"
#include "workload/apps.hpp"

namespace hpe::api {

namespace {

/** 64-bit FNV-1a over a byte string (the fingerprint hash). */
std::uint64_t
fnv1aBytes(const std::string &bytes)
{
    std::uint64_t hash = 14695981039346656037ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 1099511628211ULL;
    }
    return hash;
}

/**
 * Validate a trace-event filter list without exiting: the daemon turns
 * the message into an error response.  Mirrors trace::parseEventMask.
 */
bool
validEventMask(const std::string &list, std::string &error)
{
    if (list.empty() || list == "all")
        return true;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name = list.substr(
            pos, comma == std::string::npos ? std::string::npos : comma - pos);
        if (!name.empty() && !trace::eventKindByName(name).has_value()) {
            error = strformat("unknown trace event '{}'", name);
            return false;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

/** Typed member readers for fromJson(); set @p error and return false on
 *  a type mismatch, leave @p out untouched when the key is absent. */
bool
readBool(const json::Value &obj, const char *key, bool &out, std::string &error)
{
    const json::Value *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (!v->isBool()) {
        error = strformat("field '{}' must be a boolean", key);
        return false;
    }
    out = v->asBool();
    return true;
}

bool
readString(const json::Value &obj, const char *key, std::string &out,
           std::string &error)
{
    const json::Value *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (!v->isString()) {
        error = strformat("field '{}' must be a string", key);
        return false;
    }
    out = v->asString();
    return true;
}

bool
readDouble(const json::Value &obj, const char *key, double &out,
           std::string &error)
{
    const json::Value *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (!v->isNumber()) {
        error = strformat("field '{}' must be a number", key);
        return false;
    }
    out = v->asDouble();
    return true;
}

template <typename U>
bool
readUint(const json::Value &obj, const char *key, U &out, std::string &error)
{
    const json::Value *v = obj.find(key);
    if (v == nullptr)
        return true;
    if (!v->isNumber() || v->asDouble() < 0) {
        error = strformat("field '{}' must be a non-negative integer", key);
        return false;
    }
    out = static_cast<U>(v->asUint());
    return true;
}

/** Reject members outside @p known (same spirit as Args::allowOnly). */
bool
allowKeys(const json::Value &obj, std::initializer_list<const char *> known,
          std::string &error)
{
    for (const auto &[key, value] : obj.asObject()) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok) {
            error = strformat("unknown field '{}'", key);
            return false;
        }
    }
    return true;
}

} // namespace

void
ExperimentRequest::normalize()
{
    app = appOrDie(app).abbr;
    policy = policyKindName(policyOrDie(policy));
    prefetch = prefetch::prefetchKindName(prefetchKindOrDie(prefetch));
    std::string psError;
    const auto ps = parsePageSizes(pageSizes, psError);
    if (!ps.has_value())
        usageFatal("{}", psError);
    pageSizes = ps->spell();
    if (!ps->active())
        coalesce = false; // meaningless without a large class
    if (!chaos.enabled)
        chaos = ChaosRequest{};
}

json::Value
ExperimentRequest::toJson() const
{
    json::Object chaosObj{
        {"enabled", chaos.enabled},
        {"pcie_fail", chaos.pcieFail},
        {"pcie_stall", chaos.pcieStall},
        {"seed", chaos.seed},
        {"service_timeout", chaos.serviceTimeout},
        {"shootdown_drop", chaos.shootdownDrop},
        {"walk_error", chaos.walkError},
    };
    json::Object obj{
        {"app", app},
        {"chaos", std::move(chaosObj)},
        {"degrade", degrade},
        {"fault_batch", faultBatch},
        {"functional", functional},
        {"interval", interval},
        {"multi_level_walker", multiLevelWalker},
        {"oversub", oversub},
        {"policy", policy},
        {"prefetch", prefetch},
        {"prefetch_degree", prefetchDegree},
        {"scale", scale},
        {"seed", seed},
        {"stats", stats},
        {"trace_digest", traceDigest},
        {"trace_events", traceEvents},
        {"trace_ring", static_cast<std::uint64_t>(traceRing)},
        {"validate", validate},
        {"walk_latency", walkLatency},
    };
    // The page-size axis joins the canonical form only when non-default:
    // a request that predates (or ignores) the axis must keep the exact
    // fingerprint it had before the axis existed, or every cached result
    // and the leaderboard baseline would be orphaned.
    if (pageSizes != "4k" || coalesce) {
        obj.emplace("coalesce", coalesce);
        obj.emplace("page_sizes", pageSizes);
    }
    return json::Value(std::move(obj));
}

std::optional<ExperimentRequest>
ExperimentRequest::fromJson(const json::Value &v, std::string &error)
{
    if (!v.isObject()) {
        error = "request must be a JSON object";
        return std::nullopt;
    }
    if (!allowKeys(v,
                   {"app", "chaos", "coalesce", "degrade", "fault_batch",
                    "functional", "interval", "multi_level_walker", "oversub",
                    "page_sizes", "policy", "prefetch", "prefetch_degree",
                    "scale", "seed", "stats", "trace_digest", "trace_events",
                    "trace_ring", "validate", "walk_latency"},
                   error))
        return std::nullopt;

    ExperimentRequest req;
    if (!readString(v, "app", req.app, error)
        || !readDouble(v, "scale", req.scale, error)
        || !readUint(v, "seed", req.seed, error)
        || !readString(v, "policy", req.policy, error)
        || !readDouble(v, "oversub", req.oversub, error)
        || !readBool(v, "functional", req.functional, error)
        || !readUint(v, "walk_latency", req.walkLatency, error)
        || !readBool(v, "multi_level_walker", req.multiLevelWalker, error)
        || !readString(v, "prefetch", req.prefetch, error)
        || !readUint(v, "prefetch_degree", req.prefetchDegree, error)
        || !readUint(v, "fault_batch", req.faultBatch, error)
        || !readString(v, "page_sizes", req.pageSizes, error)
        || !readBool(v, "coalesce", req.coalesce, error)
        || !readBool(v, "degrade", req.degrade, error)
        || !readBool(v, "validate", req.validate, error)
        || !readBool(v, "trace_digest", req.traceDigest, error)
        || !readString(v, "trace_events", req.traceEvents, error)
        || !readUint(v, "trace_ring", req.traceRing, error)
        || !readUint(v, "interval", req.interval, error)
        || !readBool(v, "stats", req.stats, error))
        return std::nullopt;

    if (const json::Value *c = v.find("chaos"); c != nullptr) {
        if (!c->isObject()) {
            error = "field 'chaos' must be an object";
            return std::nullopt;
        }
        if (!allowKeys(*c,
                       {"enabled", "pcie_fail", "pcie_stall", "seed",
                        "service_timeout", "shootdown_drop", "walk_error"},
                       error))
            return std::nullopt;
        req.chaos.enabled = true; // presence arms it, like any --chaos-*
        req.chaos.seed = req.seed;
        if (!readBool(*c, "enabled", req.chaos.enabled, error)
            || !readUint(*c, "seed", req.chaos.seed, error)
            || !readDouble(*c, "pcie_fail", req.chaos.pcieFail, error)
            || !readDouble(*c, "pcie_stall", req.chaos.pcieStall, error)
            || !readDouble(*c, "service_timeout", req.chaos.serviceTimeout,
                           error)
            || !readDouble(*c, "shootdown_drop", req.chaos.shootdownDrop,
                           error)
            || !readDouble(*c, "walk_error", req.chaos.walkError, error))
            return std::nullopt;
    }

    // Validate names without exiting; normalize() below would usageFatal.
    if (!findApp(req.app)) {
        error = unknownNameMessage("application", req.app, appNames());
        return std::nullopt;
    }
    if (!findPolicy(req.policy)) {
        error = unknownNameMessage("policy", req.policy, policyNames());
        return std::nullopt;
    }
    if (!findPrefetchKind(req.prefetch)) {
        error = unknownNameMessage("prefetcher", req.prefetch,
                                   prefetchNames());
        return std::nullopt;
    }
    if (!validEventMask(req.traceEvents, error))
        return std::nullopt;
    if (!parsePageSizes(req.pageSizes, error).has_value())
        return std::nullopt;
    if (req.oversub <= 0.0 || req.oversub > 1.0) {
        error = "field 'oversub' must be in (0, 1]";
        return std::nullopt;
    }
    if (req.scale <= 0.0) {
        error = "field 'scale' must be positive";
        return std::nullopt;
    }
    if (req.faultBatch == 0) {
        error = "field 'fault_batch' must be at least 1";
        return std::nullopt;
    }
    if (req.traceRing == 0) {
        error = "field 'trace_ring' must be positive";
        return std::nullopt;
    }
    for (double p : {req.chaos.pcieFail, req.chaos.pcieStall,
                     req.chaos.serviceTimeout, req.chaos.shootdownDrop,
                     req.chaos.walkError}) {
        if (p < 0.0 || p > 1.0) {
            error = "chaos probabilities must be in [0, 1]";
            return std::nullopt;
        }
    }
    if (req.chaos.walkError >= 1.0 || req.chaos.shootdownDrop >= 1.0) {
        error = "chaos walk-error/shootdown-drop probability must be < 1";
        return std::nullopt;
    }

    req.normalize();
    return req;
}

std::string
ExperimentRequest::fingerprint() const
{
    ExperimentRequest canonical = *this;
    canonical.normalize();
    return trace::digestHex(fnv1aBytes(canonical.toJson().dump()));
}

json::Value
ExperimentResult::toJson() const
{
    return json::Value(json::Object{
        {"cycles", cycles},
        {"dirty_evictions", dirtyEvictions},
        {"evictions", evictions},
        {"fault_rate", faultRate},
        {"faults", faults},
        {"functional", functional},
        {"hits", hits},
        {"host_load", hostLoad},
        {"instructions", instructions},
        {"intervals_csv", intervalsCsv},
        {"ipc", ipc},
        {"prefetch_late", prefetchLate},
        {"prefetch_useful", prefetchUseful},
        {"prefetch_wasted", prefetchWasted},
        {"prefetches", prefetches},
        {"references", references},
        {"stats_csv", statsCsv},
        {"trace_digest", traceDigest},
        {"trace_events", traceEvents},
    });
}

std::optional<ExperimentResult>
ExperimentResult::fromJson(const json::Value &v, std::string &error)
{
    if (!v.isObject()) {
        error = "result must be a JSON object";
        return std::nullopt;
    }
    ExperimentResult r;
    if (!readBool(v, "functional", r.functional, error)
        || !readUint(v, "references", r.references, error)
        || !readUint(v, "hits", r.hits, error)
        || !readUint(v, "faults", r.faults, error)
        || !readUint(v, "evictions", r.evictions, error)
        || !readUint(v, "dirty_evictions", r.dirtyEvictions, error)
        || !readUint(v, "prefetches", r.prefetches, error)
        || !readUint(v, "prefetch_useful", r.prefetchUseful, error)
        || !readUint(v, "prefetch_wasted", r.prefetchWasted, error)
        || !readUint(v, "prefetch_late", r.prefetchLate, error)
        || !readDouble(v, "fault_rate", r.faultRate, error)
        || !readUint(v, "cycles", r.cycles, error)
        || !readUint(v, "instructions", r.instructions, error)
        || !readDouble(v, "ipc", r.ipc, error)
        || !readDouble(v, "host_load", r.hostLoad, error)
        || !readString(v, "trace_digest", r.traceDigest, error)
        || !readUint(v, "trace_events", r.traceEvents, error)
        || !readString(v, "intervals_csv", r.intervalsCsv, error)
        || !readString(v, "stats_csv", r.statsCsv, error))
        return std::nullopt;
    return r;
}

RunConfig
buildRunConfig(const ExperimentRequest &req)
{
    RunConfig cfg;
    cfg.oversub = req.oversub;
    cfg.seed = req.seed;
    cfg.gpu.walkLatency = req.walkLatency;
    if (req.multiLevelWalker)
        cfg.gpu.walkerMode = WalkerMode::MultiLevel;
    cfg.gpu.driver.prefetch.kind = prefetchKindOrDie(req.prefetch);
    cfg.gpu.driver.prefetch.degree = req.prefetchDegree;
    cfg.gpu.driver.batchSize = req.faultBatch;
    if (req.chaos.enabled) {
        ChaosConfig &chaos = cfg.gpu.chaos;
        chaos.enabled = true;
        chaos.seed = req.chaos.seed;
        chaos.pcieFailProb = req.chaos.pcieFail;
        chaos.pcieStallProb = req.chaos.pcieStall;
        chaos.serviceTimeoutProb = req.chaos.serviceTimeout;
        chaos.shootdownDropProb = req.chaos.shootdownDrop;
        chaos.walkErrorProb = req.chaos.walkError;
        chaos.validate();
    }
    cfg.gpu.degradation.enabled = req.degrade;
    cfg.gpu.validate = req.validate;
    {
        std::string error;
        const auto ps = parsePageSizes(req.pageSizes, error);
        HPE_ASSERT(ps.has_value(), "unvalidated page sizes: {}", error);
        cfg.gpu.pageSizes = *ps;
        cfg.gpu.pageSizes.coalesce = req.coalesce;
    }
    return cfg;
}

ExperimentResult
runExperimentInspect(const ExperimentRequest &request,
                     ExperimentArtifacts &artifacts, const Trace *prebuilt,
                     bool forceSink)
{
    ExperimentRequest req = request;
    req.normalize();
    const RunConfig cfg = buildRunConfig(req);
    const PolicyKind kind = policyOrDie(req.policy);

    std::optional<Trace> local;
    const Trace *trace = prebuilt;
    if (trace == nullptr) {
        local.emplace(buildApp(req.app, req.scale, req.seed));
        trace = &*local;
    }

    TraceAttachments attach;
    if (req.traceDigest || forceSink) {
        artifacts.sink = std::make_unique<trace::TraceSink>(
            trace::TraceSink::Config{
                .ringCapacity = req.traceRing,
                .mask = trace::parseEventMask(req.traceEvents)});
        attach.sink = artifacts.sink.get();
    }
    if (req.interval > 0) {
        artifacts.intervals =
            std::make_unique<trace::IntervalRecorder>(req.interval);
        attach.intervals = artifacts.intervals.get();
    }

    artifacts.run = req.functional
        ? runFunctionalInspect(*trace, kind, cfg, attach)
        : runTimingInspect(*trace, kind, cfg, attach);

    ExperimentResult out;
    out.functional = req.functional;
    if (req.functional) {
        const PagingResult &p = artifacts.run.paging;
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
        const TimingResult &t = artifacts.run.timing;
        out.faults = t.faults;
        out.evictions = t.evictions;
        out.cycles = t.cycles;
        out.instructions = t.instructions;
        out.ipc = t.ipc;
        out.hostLoad = t.hostLoad;
    }
    if (artifacts.sink != nullptr) {
        out.traceDigest = artifacts.sink->digestHexString();
        out.traceEvents = artifacts.sink->emitted();
    }
    if (artifacts.intervals != nullptr) {
        std::ostringstream os;
        artifacts.intervals->writeCsv(os);
        out.intervalsCsv = std::move(os).str();
    }
    if (req.stats) {
        std::ostringstream os;
        artifacts.run.stats->dumpCsv(os);
        out.statsCsv = std::move(os).str();
    }
    return out;
}

ExperimentResult
runExperiment(const ExperimentRequest &req, const Trace *prebuilt)
{
    ExperimentArtifacts artifacts;
    return runExperimentInspect(req, artifacts, prebuilt);
}

} // namespace hpe::api
