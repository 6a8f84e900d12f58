/**
 * @file
 * The serve-mixed workload: a self-hosted hpe::serve::Server on TCP
 * (2 shards, 2 workers, durable store) driven by one generator thread
 * over 4 connections, first in an open loop, then in a closed one.
 *
 * Two request classes share the daemon:
 *  - hot: a fixed set of fingerprints already in the store, answered as
 *    cache hits (the read path: parse, route, cache, write);
 *  - cold: a fresh fingerprint every time, a small functional cell over
 *    several policies (the write path: queue, compute, journal append).
 * Hot requests use connections 0-1 and cold ones 2-3, one request in
 * flight per connection: the daemon answers a connection's requests in
 * order, so sharing one would charge cold compute time to the hot
 * requests queued behind it.
 *
 * Open loop: each class arrives as a seeded Poisson process and is sent
 * on that schedule whatever the daemon's state; every latency is timed
 * from the request's due time, so a stall is charged to every request it
 * delays.  How late the generator itself ran is reported per one-second
 * window; a run in which it fell behind in more than half of them is
 * invalid.
 *
 * With at most four requests in flight, the daemon's admission layer
 * (shedding from a queue depth of 64) is never reached: max_rps_at_slo
 * measures the rate this 4-connection client window sustains.
 *
 * The closed loop sends larger fresh cells on all four connections, each
 * as soon as the previous answer is back, and gives krefs_per_s: the
 * write path's throughput.  The latencies of the open loop are printed,
 * not tracked, because on a shared host they follow how fast idle vCPUs
 * wake, not the daemon.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "api/json.hpp"
#include "api/registry.hpp"
#include "bench.hpp"
#include "serve/endpoint.hpp"
#include "serve/server.hpp"
#include "serve/sharded_store.hpp"
#include "sim/sweep.hpp"
#include "workload/apps.hpp"

namespace perfbench {
namespace {

namespace json = hpe::api::json;

/** @{ Workload shape. */
constexpr unsigned kShards = 2;
constexpr unsigned kWorkers = 2;
constexpr std::size_t kHotSet = 32;
/** Records already in the store besides the hot set: recovery work. */
constexpr std::size_t kHistory = 32768;
/** Share of hot requests: bench_serve_load's default --hot 0.7. */
constexpr double kHotFraction = 0.7;
/** Nominal open-loop rate (requests per second), both classes. */
constexpr double kNominalRate = 4000.0;
constexpr double kHotRate = kNominalRate * kHotFraction;
constexpr double kColdRate = kNominalRate * (1.0 - kHotFraction);
/** Offered-load ladder for max_rps_at_slo, as multiples of nominal. */
constexpr double kLadder[] = {1.2, 1.4, 1.7, 2.0, 2.4, 2.8, 3.4, 4.0};
/** The latency limit of max_rps_at_slo, on each step's p99. */
constexpr double kSloMs = 20.0;
/** A window whose generator ran later than this at its p99 is late. */
constexpr double kMaxLateP99Ms = 2.0;
constexpr std::uint64_t kDeadlineMs = 5000;
/** The generator busy-polls this close to a send (ns). */
constexpr std::int64_t kSpinNs = 2'000'000;
/** Server::start() repetitions for setup_s (median reported). */
constexpr int kSetupRepeats = 25;
/** Shares of --seconds spent at the nominal rate and on the ladder; the
 *  rest is the closed-loop cold phase that gives krefs_per_s. */
constexpr double kNominalShare = 0.4;
constexpr double kLadderShare = 0.1;
/** Length of a closed-loop throughput window (ns). */
constexpr double kSaturateWindowNs = 500'000'000;
/** Share of the closed loop left unmeasured: its throughput starts high
 *  and settles within about six seconds. */
constexpr double kSaturateWarmShare = 0.4;
const char *const kApps[] = {"HSD", "BFS", "KMN", "STN", "B+T", "SPV"};
const char *const kPolicies[] = {"LRU", "CLOCK-Pro", "HPE", "RRIP"};
constexpr double kCellScale = 0.1;
/** Scale of the closed-loop phase's cold cells: larger, so the two
 *  workers' compute, not thread wake-ups, sets its pace. */
constexpr double kSaturateScale = 1.0;
/** @} */

hpe::api::ExperimentRequest
cellRequest(std::uint64_t seed, std::size_t i, double scale = kCellScale)
{
    hpe::api::ExperimentRequest req;
    req.app = kApps[i % std::size(kApps)];
    req.policy = kPolicies[(i / std::size(kApps)) % std::size(kPolicies)];
    req.scale = scale;
    req.seed = seed;
    req.oversub = 0.75;
    req.functional = true;
    req.normalize();
    return req;
}

std::string
wireLine(const hpe::api::ExperimentRequest &req)
{
    return json::Value(json::Object{{"deadline_ms", kDeadlineMs},
                                    {"request", req.toJson()},
                                    {"type", "run"},
                                    {"v", 2}})
               .dump()
        + "\n";
}

struct Request
{
    std::int64_t due = 0;
    bool hot = false;
    /** Index into the hot set (hot) or the cold cell list (cold). */
    std::size_t cell = 0;
};

struct Outcome
{
    std::int64_t sent = 0;
    std::int64_t done = 0;
    bool answered = false;
    bool ok = false;
    /** Error code of a failed response ("transport" when none came). */
    std::string error;
    /** The served result bytes (cold requests, checked afterwards). */
    std::string result;
};

/** Pull the "result" member's bytes out of a canonical v2 response. */
bool
extractResult(const std::string &line, std::string &result)
{
    static const std::string kTail = ",\"type\":\"result\",\"v\":2}";
    static const std::string kKey = "\"ok\":true,\"result\":";
    const std::size_t at = line.find(kKey);
    if (at == std::string::npos || line.size() < kTail.size()
        || line.compare(line.size() - kTail.size(), kTail.size(), kTail) != 0)
        return false;
    const std::size_t begin = at + kKey.size();
    result.assign(line, begin, line.size() - kTail.size() - begin);
    return true;
}

std::string
errorCode(const std::string &line)
{
    const auto v = json::parse(line);
    if (!v.has_value())
        return "unparseable";
    if (const json::Value *e = v->find("error"); e != nullptr) {
        if (const json::Value *c = e->find("code"); c != nullptr && c->isString())
            return c->asString();
        return "error";
    }
    return "malformed";
}

/**
 * Single-threaded load generator over nonblocking connections.  In the
 * open loop (run) a request becomes due on its schedule and goes out on
 * an idle connection of its class; one that finds every such connection
 * busy waits in the generator, and its latency still counts from its due
 * time.  A connection carries one request at a time, as the repository's
 * own clients do: pipelining behind an unanswered response makes the
 * daemon's un-NODELAYed sockets hold each response until the client's
 * next request arrives (see perfbench/README.md).
 */
class Generator
{
  public:
    Generator(const hpe::serve::Endpoint &endpoint, unsigned connections,
              std::string &error)
    {
        epoll_ = epoll_create1(EPOLL_CLOEXEC);
        for (unsigned i = 0; i < connections; ++i) {
            const int fd = hpe::serve::connectEndpoint(endpoint, error);
            if (fd < 0)
                return;
            const int one = 1;
            setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
            conns_.emplace_back();
            conns_.back().fd = fd;
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.u32 = i;
            epoll_ctl(epoll_, EPOLL_CTL_ADD, fd, &ev);
        }
    }

    ~Generator()
    {
        for (const Conn &c : conns_)
            if (c.fd >= 0)
                close(c.fd);
        if (epoll_ >= 0)
            close(epoll_);
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    bool ready(unsigned connections) const { return conns_.size() == connections; }

    /**
     * Send @p reqs (sorted by due time) and collect their outcomes.
     * @p lineOf gives a request's wire bytes, @p hotConns the number of
     * connections reserved for hot requests.  Requests still unanswered
     * @p drainNs after the last due time count as transport failures.
     * @p tick runs about every 50 ms (stats sampling).
     */
    template <typename LineOf, typename Tick>
    std::vector<Outcome>
    run(const std::vector<Request> &reqs, LineOf &&lineOf, unsigned hotConns,
        std::int64_t drainNs, Tick &&tick)
    {
        std::vector<Outcome> out(reqs.size());
        std::size_t next = 0, pending = 0;
        // Due requests of each class (hot, cold) waiting for an idle
        // connection of that class.
        std::deque<std::size_t> waiting[2];
        const auto dispatch = [&] {
            for (unsigned c = 0; c < conns_.size(); ++c) {
                Conn &conn = conns_[c];
                std::deque<std::size_t> &queue = waiting[c < hotConns ? 0 : 1];
                if (conn.fd < 0 || !conn.fifo.empty() || queue.empty())
                    continue;
                conn.wbuf += lineOf(reqs[queue.front()]);
                conn.fifo.push_back(queue.front());
                queue.pop_front();
            }
        };
        const std::int64_t giveUp =
            (reqs.empty() ? nowNs() : reqs.back().due) + drainNs;
        std::int64_t nextTick = nowNs();
        epoll_event events[8];
        while (next < reqs.size() || pending > 0) {
            std::int64_t now = nowNs();
            while (next < reqs.size() && reqs[next].due <= now) {
                out[next].sent = now;
                waiting[reqs[next].hot ? 0 : 1].push_back(next);
                ++pending;
                ++next;
            }
            dispatch();
            for (std::size_t c = 0; c < conns_.size(); ++c)
                flush(static_cast<unsigned>(c), out, pending);
            if (now >= nextTick) {
                tick();
                nextTick = now + 50'000'000;
            }
            if (next >= reqs.size() && now > giveUp)
                break;
            // Within kSpinNs of the next send the loop polls instead of
            // sleeping: waking an idle vCPU can take milliseconds on a
            // shared host, which would make the generator, not the daemon,
            // set the schedule.
            const std::int64_t wake = next < reqs.size()
                ? std::min(reqs[next].due - kSpinNs, nextTick)
                : std::min(giveUp, nextTick);
            const std::int64_t waitNs = std::max<std::int64_t>(0, wake - now);
            timespec ts{static_cast<time_t>(waitNs / 1'000'000'000),
                        static_cast<long>(waitNs % 1'000'000'000)};
            const int n = epoll_pwait2(epoll_, events, 8, &ts, nullptr);
            for (int e = 0; e < n; ++e)
                receive(events[e].data.u32, out, pending);
        }
        // Responses still owed after the drain would be matched to the
        // next phase's requests: count them lost and close their
        // connections, so later phases see transport failures instead.
        for (std::size_t c = 0; c < conns_.size(); ++c)
            if (!conns_[c].fifo.empty())
                fail(static_cast<unsigned>(c), out, pending);
        for (const std::deque<std::size_t> &queue : waiting)
            for (std::size_t idx : queue)
                out[idx].error = "transport";
        return out;
    }

    /**
     * Closed loop: every connection sends the next request as soon as its
     * previous one is answered, until @p stopNs; requests still in flight
     * then have @p drainNs to come back.  @p lineAt(i) gives the i-th
     * request's wire bytes.  One outcome per request sent, in send order.
     */
    template <typename LineAt>
    std::vector<Outcome>
    saturate(LineAt &&lineAt, std::int64_t stopNs, std::int64_t drainNs)
    {
        std::vector<Outcome> out;
        std::size_t pending = 0;
        epoll_event events[8];
        for (;;) {
            const std::int64_t now = nowNs();
            if (now < stopNs)
                for (Conn &conn : conns_) {
                    if (conn.fd < 0 || !conn.fifo.empty())
                        continue;
                    conn.wbuf += lineAt(out.size());
                    conn.fifo.push_back(out.size());
                    out.emplace_back().sent = now;
                    ++pending;
                }
            for (std::size_t c = 0; c < conns_.size(); ++c)
                flush(static_cast<unsigned>(c), out, pending);
            if ((now >= stopNs && pending == 0) || now >= stopNs + drainNs)
                break;
            const int n = epoll_wait(epoll_, events, 8, 1);
            for (int e = 0; e < n; ++e)
                receive(events[e].data.u32, out, pending);
        }
        for (std::size_t c = 0; c < conns_.size(); ++c)
            if (!conns_[c].fifo.empty())
                fail(static_cast<unsigned>(c), out, pending);
        return out;
    }

  private:
    struct Conn
    {
        int fd = -1;
        std::string wbuf;
        std::size_t woff = 0;
        std::string rbuf;
        std::deque<std::size_t> fifo;
    };

    void
    fail(unsigned c, std::vector<Outcome> &out, std::size_t &pending)
    {
        Conn &conn = conns_[c];
        for (std::size_t idx : conn.fifo) {
            out[idx].error = "transport";
            --pending;
        }
        conn.fifo.clear();
        if (conn.fd >= 0) {
            epoll_ctl(epoll_, EPOLL_CTL_DEL, conn.fd, nullptr);
            close(conn.fd);
        }
        conn.fd = -1;
    }

    void
    flush(unsigned c, std::vector<Outcome> &out, std::size_t &pending)
    {
        Conn &conn = conns_[c];
        while (conn.fd >= 0 && conn.woff < conn.wbuf.size()) {
            const ssize_t n = send(conn.fd, conn.wbuf.data() + conn.woff,
                                   conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
            if (n > 0) {
                conn.woff += static_cast<std::size_t>(n);
            } else if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
                break; // retried on the next loop turn
            } else {
                fail(c, out, pending);
            }
        }
        if (conn.woff == conn.wbuf.size()) {
            conn.wbuf.clear();
            conn.woff = 0;
        }
    }

    void
    receive(unsigned c, std::vector<Outcome> &out, std::size_t &pending)
    {
        Conn &conn = conns_[c];
        char buf[1 << 16];
        for (;;) {
            if (conn.fd < 0)
                return;
            const ssize_t n = recv(conn.fd, buf, sizeof buf, 0);
            if (n > 0) {
                conn.rbuf.append(buf, static_cast<std::size_t>(n));
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EINTR))
                break;
            fail(c, out, pending); // closed by the daemon or broken
            return;
        }
        const std::int64_t now = nowNs();
        std::size_t start = 0;
        for (std::size_t nl; (nl = conn.rbuf.find('\n', start)) != std::string::npos;
             start = nl + 1) {
            if (conn.fifo.empty())
                break; // unsolicited line: ignore
            const std::size_t idx = conn.fifo.front();
            conn.fifo.pop_front();
            --pending;
            Outcome &o = out[idx];
            o.done = now;
            o.answered = true;
            const std::string line = conn.rbuf.substr(start, nl - start);
            o.ok = extractResult(line, o.result);
            if (!o.ok)
                o.error = errorCode(line);
        }
        conn.rbuf.erase(0, start);
    }

    int epoll_ = -1;
    std::vector<Conn> conns_;
};

/** Next value of a seeded xorshift64 stream (state must be nonzero). */
std::uint64_t
nextRandom(std::uint64_t &state)
{
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
}

/**
 * Requests of one open-loop phase, sorted by due time (relative to the
 * phase start until startAt() places them).  Each class arrives as a
 * Poisson process, as independent users would; @p rng (seeded from
 * --seed) draws the gaps and which hot fingerprint each hot request asks.
 */
std::vector<Request>
schedule(double seconds, double hotRate, double coldRate,
         std::size_t &coldNext, std::uint64_t &rng)
{
    std::vector<Request> reqs;
    const auto arrivals = [&](double rate, bool hot) {
        double t = 0;
        for (;;) {
            const double u =
                static_cast<double>(nextRandom(rng) >> 11) * 0x1.0p-53;
            t += -std::log1p(-u) / rate;
            if (t >= seconds)
                break;
            Request r;
            r.due = static_cast<std::int64_t>(t * 1e9);
            r.hot = hot;
            r.cell = hot ? nextRandom(rng) % kHotSet : coldNext++;
            reqs.push_back(r);
        }
    };
    arrivals(hotRate, true);
    arrivals(coldRate, false);
    std::stable_sort(reqs.begin(), reqs.end(),
                     [](const Request &a, const Request &b) { return a.due < b.due; });
    return reqs;
}

/** Shift a schedule to start at @p start (after its inputs are built,
 *  so building them cannot make the first requests late). */
void
startAt(std::vector<Request> &reqs, std::int64_t start)
{
    for (Request &r : reqs)
        r.due += start;
}

struct PhaseStats
{
    std::vector<double> hotMs, coldMs, allMs, lateMs;
    std::size_t failures = 0;
};

PhaseStats
summarize(const std::vector<Request> &reqs, const std::vector<Outcome> &out)
{
    PhaseStats s;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const Outcome &o = out[i];
        s.lateMs.push_back(static_cast<double>(o.sent - reqs[i].due) * 1e-6);
        if (!o.ok) {
            ++s.failures;
            continue;
        }
        const double ms = static_cast<double>(o.done - reqs[i].due) * 1e-6;
        (reqs[i].hot ? s.hotMs : s.coldMs).push_back(ms);
        s.allMs.push_back(ms);
    }
    return s;
}

std::uint64_t
uintField(const json::Value &v, const char *key)
{
    const json::Value *f = v.find(key);
    return f != nullptr && f->isNumber() ? f->asUint() : 0;
}

} // namespace

Report
runServeMixed(const Options &opt, SpanLog &spans)
{
    Report rep;
    namespace fs = std::filesystem;
    const fs::path work = fs::path(opt.workDir.empty() ? "." : opt.workDir)
        / ("serve-" + std::to_string(getpid()));
    const std::string storeDir = (work / "store").string();
    std::error_code ec;
    fs::remove_all(work, ec);
    fs::create_directories(work, ec);
    const std::uint64_t base = opt.seed * 1'000'000;

    // ---- untimed: the hot set and history, computed and journalled ------
    std::vector<hpe::api::ExperimentRequest> hot, history;
    for (std::size_t i = 0; i < kHotSet; ++i)
        hot.push_back(cellRequest(base + i, i));
    for (std::size_t i = 0; i < kHistory; ++i)
        history.push_back(cellRequest(base + 100'000 + i, i));
    // In-process compute threads exist only outside the measured phases,
    // so the daemon and the generator never run beside idle extra threads.
    std::optional<hpe::SweepRunner> pool;
    pool.emplace(opt.threads);
    const auto payload = [](const hpe::api::ExperimentRequest &req) {
        return hpe::api::runExperiment(req).toJson().dump();
    };
    const std::vector<std::string> hotBytes = pool->mapItems(hot, payload);
    {
        const std::vector<std::string> historyBytes =
            pool->mapItems(history, payload);
        hpe::serve::ResultStoreConfig scfg;
        scfg.dir = storeDir;
        hpe::serve::ShardedResultStore store(scfg, kShards);
        std::string error;
        if (!store.open(error)) {
            rep.notes.push_back("cannot open store: " + error);
            rep.valid = false;
            return rep;
        }
        for (std::size_t i = 0; i < kHistory; ++i)
            store.append(history[i].fingerprint(), historyBytes[i], false);
        for (std::size_t i = 0; i < kHotSet; ++i)
            store.append(hot[i].fingerprint(), hotBytes[i], false);
    }
    pool.reset();
    std::vector<std::string> hotLines;
    for (const auto &req : hot)
        hotLines.push_back(wireLine(req));

    // ---- setup: Server::start() = journal recovery + cache warm start ---
    hpe::serve::ServeConfig cfg;
    cfg.socketPath = "tcp:127.0.0.1:0";
    cfg.shards = kShards;
    cfg.jobs = kWorkers;
    cfg.storeDir = storeDir;
    // Room for every result of a run: once a shard's cache is full, each
    // new cell evicts one (journalled as a tombstone, later compacted),
    // and when that starts would depend on how fast the earlier phases
    // ran.
    cfg.cacheCapacity = 1 << 20;
    std::vector<double> setupS;
    std::unique_ptr<hpe::serve::Server> server;
    for (int r = 0; r < kSetupRepeats; ++r) {
        if (server != nullptr)
            server->stop();
        server.reset();
        auto s = std::make_unique<hpe::serve::Server>(cfg);
        std::string error;
        const std::int64_t t0 = nowNs();
        const bool started = s->start(error);
        const std::int64_t t1 = nowNs();
        if (!started) {
            rep.notes.push_back("server start failed: " + error);
            rep.valid = false;
            return rep;
        }
        setupS.push_back(secondsBetween(t0, t1));
        if (opt.trace)
            spans.add("Server::start", t0, t1, 0, 0);
        server = std::move(s);
    }
    hpe::serve::Endpoint endpoint;
    {
        std::string error;
        hpe::serve::parseEndpoint(server->boundEndpoints().front(), endpoint,
                                  error);
    }

    // ---- the open-loop phases ------------------------------------------
    std::vector<hpe::api::ExperimentRequest> cold;
    std::vector<std::string> coldLines;
    std::size_t coldNext = 0;
    std::uint64_t rng = opt.seed * 0x9E3779B97F4A7C15ull | 1;
    const auto ensureCold = [&](std::size_t upTo, double scale = kCellScale) {
        while (cold.size() < upTo) {
            cold.push_back(cellRequest(base + 200'000 + cold.size(), cold.size(),
                                       scale));
            coldLines.push_back(wireLine(cold.back()));
        }
    };
    const auto lineOf = [&](const Request &r) -> const std::string & {
        return r.hot ? hotLines[r.cell] : coldLines[r.cell];
    };

    std::string connectError;
    Generator gen(endpoint, 4, connectError);
    if (!gen.ready(4)) {
        server->stop();
        rep.notes.push_back("cannot connect the generator: " + connectError);
        rep.valid = false;
        return rep;
    }

    double queuePeak = 0;
    const auto sample = [&] {
        if (!opt.trace)
            return;
        const auto v = json::parse(server->statsJson());
        if (v.has_value())
            queuePeak = std::max(queuePeak,
                                 static_cast<double>(uintField(*v, "queue_depth")));
    };
    const auto statsNow = [&] { return *json::parse(server->statsJson()); };

    const double nominalS = opt.seconds * kNominalShare;
    const double stepS = opt.seconds * kLadderShare / std::size(kLadder);
    const double saturateS = opt.seconds * (1.0 - kNominalShare - kLadderShare);
    // Closed loop, cold requests on all four connections.  The daemon
    // routes each to one of its two single-worker shards, so a worker
    // mostly has a request queued behind the one it computes: the round
    // trips are mostly hidden and the phase measures the write path's
    // throughput.  It runs first, on the daemon as start() left it: run
    // after the other phases, its throughput fell through the phase.
    const std::size_t saturateBase = coldNext;
    const std::int64_t saturate0 = nowNs();
    const std::int64_t saturateEnd =
        saturate0 + static_cast<std::int64_t>(saturateS * 1e9);
    const std::vector<Outcome> saturateOut = gen.saturate(
        [&](std::size_t i) -> const std::string & {
            ensureCold(saturateBase + i + 1, kSaturateScale);
            return coldLines[saturateBase + i];
        },
        saturateEnd, 2'000'000'000);
    coldNext = saturateBase + saturateOut.size();

    const json::Value before = statsNow();

    // Nominal rate: the open-loop latencies.
    std::vector<Request> nominal = schedule(nominalS, kHotRate, kColdRate,
                                            coldNext, rng);
    ensureCold(coldNext);
    startAt(nominal, nowNs() + 20'000'000);
    const std::vector<Outcome> nominalOut =
        gen.run(nominal, lineOf, 2, 2'000'000'000, sample);
    const json::Value afterNominal = statsNow();
    // Peak memory of setup, the closed loop and the nominal phase; the
    // ladder's overload
    // steps queue requests in the daemon and would make it load-dependent.
    const double rssMb = peakRssMb();
    const PhaseStats nominalStats = summarize(nominal, nominalOut);

    // Ladder: the highest offered rate whose p99 meets the limit with no
    // failure and no backlog left at the end of the step.
    double maxRps = 0;
    std::vector<std::string> ladderNotes;
    std::vector<std::pair<std::vector<Request>, std::vector<Outcome>>> steps;
    for (double mult : kLadder) {
        std::vector<Request> reqs = schedule(stepS, kHotRate * mult,
                                             kColdRate * mult, coldNext, rng);
        ensureCold(coldNext);
        startAt(reqs, nowNs() + 20'000'000);
        std::vector<Outcome> out = gen.run(reqs, lineOf, 2, 2'000'000'000, [] {});
        const PhaseStats s = summarize(reqs, out);
        // A backlog that grows through the step shows in its last quarter.
        const std::size_t tailFrom = reqs.size() - reqs.size() / 4;
        const PhaseStats tail = summarize(
            std::vector<Request>(reqs.begin() + tailFrom, reqs.end()),
            std::vector<Outcome>(out.begin() + tailFrom, out.end()));
        std::int64_t lastDone = 0;
        for (const Outcome &o : out)
            lastDone = std::max(lastDone, o.done);
        const double p99 = quantile(s.allMs, 0.99);
        const double tailP99 = quantile(tail.allMs, 0.99);
        const double achieved = static_cast<double>(reqs.size() - s.failures)
            / secondsBetween(reqs.front().due, std::max(lastDone, reqs.back().due));
        const bool pass = s.failures == 0 && p99 <= kSloMs && tailP99 <= kSloMs;
        char buf[200];
        std::snprintf(buf, sizeof buf,
                      "ladder x%.1f: offered %.0f/s achieved %.1f/s p99 %.3f ms "
                      "last-quarter p99 %.3f ms failures %zu -> %s",
                      mult, (kHotRate + kColdRate) * mult, achieved, p99,
                      tailP99, s.failures, pass ? "pass" : "fail");
        ladderNotes.push_back(buf);
        steps.emplace_back(std::move(reqs), std::move(out));
        if (!pass)
            break;
        maxRps = achieved;
    }

    const json::Value after = statsNow();
    server->stop();
    pool.emplace(opt.threads);

    // ---- correctness ----------------------------------------------------
    const auto checkPhase = [&](const std::vector<Request> &reqs,
                                const std::vector<Outcome> &out,
                                bool countFailures) {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const Outcome &o = out[i];
            if (!o.ok) {
                if (countFailures)
                    rep.check(false, std::string(reqs[i].hot ? "hot" : "cold")
                                         + " request failed: " + o.error);
                continue;
            }
            if (reqs[i].hot)
                rep.check(o.result == hotBytes[reqs[i].cell],
                          "hot result bytes differ from in-process");
        }
    };
    checkPhase(nominal, nominalOut, true);
    for (const auto &[reqs, out] : steps)
        checkPhase(reqs, out, false);
    for (const Outcome &o : saturateOut)
        rep.check(o.ok, "saturation request failed: " + o.error);

    // Every served cold result against in-process api::runExperiment.
    std::vector<const Outcome *> coldServed(cold.size(), nullptr);
    for (std::size_t i = 0; i < nominal.size(); ++i)
        if (!nominal[i].hot && nominalOut[i].ok)
            coldServed[nominal[i].cell] = &nominalOut[i];
    for (const auto &[reqs, out] : steps)
        for (std::size_t i = 0; i < reqs.size(); ++i)
            if (!reqs[i].hot && out[i].ok)
                coldServed[reqs[i].cell] = &out[i];
    for (std::size_t i = 0; i < saturateOut.size(); ++i)
        if (saturateOut[i].ok)
            coldServed[saturateBase + i] = &saturateOut[i];
    std::vector<double> computeMs(cold.size());
    const std::int64_t replay0 = nowNs();
    const std::vector<std::string> coldBytes =
        pool->map(cold.size(), [&](std::size_t i) {
            const std::int64_t t0 = nowNs();
            std::string bytes = payload(cold[i]);
            computeMs[i] = static_cast<double>(nowNs() - t0) * 1e-6;
            return bytes;
        });
    const double replayWall = secondsBetween(replay0, nowNs());
    std::uint64_t digest = kFnvBasis;
    for (std::size_t i = 0; i < cold.size(); ++i) {
        digest = fnv1a(digest, coldBytes[i] + "\n");
        if (coldServed[i] != nullptr)
            rep.check(coldServed[i]->result == coldBytes[i],
                      "cold result " + cold[i].fingerprint()
                          + " differs from in-process");
    }

    // One-second windows of the nominal phase, every one of them counted.
    // A window in which the generator itself ran late is reported; when
    // that is most of them, the run measured the host, not the daemon.
    const std::int64_t phase0 = nominal.front().due;
    const auto windows = std::max<std::size_t>(1, static_cast<std::size_t>(nominalS));
    std::vector<std::vector<Request>> winReqs(windows);
    std::vector<std::vector<Outcome>> winOut(windows);
    for (std::size_t i = 0; i < nominal.size(); ++i) {
        const auto w = std::min<std::size_t>(
            windows - 1, static_cast<std::size_t>((nominal[i].due - phase0) / 1'000'000'000));
        winReqs[w].push_back(nominal[i]);
        winOut[w].push_back(nominalOut[i]);
    }
    std::vector<double> winP99;
    std::size_t lateWindows = 0;
    for (std::size_t w = 0; w < windows; ++w) {
        const PhaseStats ws = summarize(winReqs[w], winOut[w]);
        if (quantile(ws.lateMs, 0.99) > kMaxLateP99Ms)
            ++lateWindows;
        winP99.push_back(quantile(ws.allMs, tailQuantile(ws.allMs.size())));
    }
    // Windows of about half a second of the closed loop after its
    // warm-up, by answer time: the simulated references answered in each.
    const double measuredS = saturateS * (1.0 - kSaturateWarmShare);
    const std::int64_t measured0 =
        saturateEnd - static_cast<std::int64_t>(measuredS * 1e9);
    const auto satWindows = std::max<std::size_t>(
        1, static_cast<std::size_t>(measuredS * 1e9 / kSaturateWindowNs));
    const double satWindowNs =
        static_cast<double>(saturateEnd - measured0) / static_cast<double>(satWindows);
    std::vector<double> satRefs(satWindows, 0.0);
    for (const Outcome &o : saturateOut) {
        if (!o.ok || o.done < measured0 || o.done >= saturateEnd)
            continue;
        const auto v = json::parse(o.result);
        satRefs[static_cast<std::size_t>(static_cast<double>(o.done - measured0)
                                         / satWindowNs)] +=
            v.has_value() ? static_cast<double>(uintField(*v, "references")) : 0.0;
    }
    std::vector<double> satKrefs;
    for (double refs : satRefs)
        satKrefs.push_back(refs / (satWindowNs * 1e-9) / 1e3);
    if (lateWindows * 2 > windows) {
        rep.valid = false;
        rep.notes.push_back("generator fell behind in "
                            + std::to_string(lateWindows) + " of "
                            + std::to_string(windows) + " windows");
    }

    rep.notes.push_back(spreadLine("setup repeats", setupS));
    rep.notes.push_back("sim_digest = " + hex64(digest) + " ("
                        + std::to_string(cold.size()) + " cold cells)");
    rep.notes.push_back("nominal: " + std::to_string(nominal.size())
                        + " requests, " + std::to_string(nominalStats.failures)
                        + " failed; " + std::to_string(lateWindows) + " of "
                        + std::to_string(windows) + " one-second windows generator-late ("
                        + std::to_string(nominalStats.hotMs.size()) + " hot, "
                        + std::to_string(nominalStats.coldMs.size()) + " cold samples)");
    {
        std::string line = "window tails (ms):";
        char buf[32];
        for (double v : winP99) {
            std::snprintf(buf, sizeof buf, " %.2f", v);
            line += buf;
        }
        rep.notes.push_back(line);
    }
    for (const std::string &line : ladderNotes)
        rep.notes.push_back(line);
    {
        std::string line = "closed loop: " + std::to_string(saturateOut.size())
            + " cold requests; window krefs/s:";
        char buf[32];
        for (double v : satKrefs) {
            std::snprintf(buf, sizeof buf, " %.0f", v);
            line += buf;
        }
        rep.notes.push_back(line);
    }
    rep.note("hot_p50_ms", quantile(nominalStats.hotMs, 0.50), "ms");
    rep.note("hot_p99_ms", quantile(nominalStats.hotMs, 0.99), "ms");
    rep.note("cold_p50_ms", quantile(nominalStats.coldMs, 0.50), "ms");
    rep.note("cold_p99_ms", quantile(nominalStats.coldMs, 0.99), "ms");
    rep.note("max_rps_at_slo", maxRps, "1/s");
    rep.note("gen.late_p99_ms", quantile(nominalStats.lateMs, 0.99), "ms");
    rep.note("gen.late_windows", static_cast<double>(lateWindows), "count");
    rep.note("serve.shed_transitions",
             static_cast<double>(uintField(after, "shed_transitions")
                                 - uintField(before, "shed_transitions")),
             "count");

    if (!opt.trace) {
        rep.add("setup_s", median(setupS), "s");
        rep.add("krefs_per_s", median(satKrefs), "krefs/s");
        rep.add("peak_rss_mb", rssMb, "MB");
        fs::remove_all(work, ec);
        return rep;
    }

    // ---- per-layer (traced run) -----------------------------------------
    PerLayer L;
    // One span per request, timed from its due time.
    for (std::size_t i = 0; i < nominal.size(); ++i) {
        const Outcome &o = nominalOut[i];
        const std::uint64_t group = i + 1;
        const std::uint64_t id =
            spans.add(nominal[i].hot ? "request hot" : "request cold",
                      nominal[i].due, o.answered ? o.done : o.sent, 0, group);
        spans.add("generator wait", nominal[i].due, o.sent, id, group);
    }
    // In-process replay of the cold cells: untraced (above) and through
    // the counting policy wrapper.
    std::vector<TracedCell> traced(cold.size());
    double refs = 0;
    const std::int64_t traced0 = nowNs();
    const std::uint64_t replaySpan = spans.open("replay cold cells", traced0, 0, 0);
    const std::vector<double> built = pool->map(cold.size(), [&](std::size_t i) {
        const hpe::api::ExperimentRequest &req = cold[i];
        const std::int64_t b0 = nowNs();
        const hpe::Trace trace = hpe::buildApp(req.app, req.scale, req.seed);
        const double b = secondsBetween(b0, nowNs());
        traced[i] = runTracedCell(true, trace, hpe::api::policyOrDie(req.policy),
                                  hpe::api::buildRunConfig(req), spans,
                                  replaySpan, nominal.size() + i + 1,
                                  req.fingerprint());
        return b;
    });
    const double tracedWall = secondsBetween(traced0, nowNs());
    spans.close(replaySpan, nowNs());
    PolicyTotals totals;
    for (std::size_t i = 0; i < cold.size(); ++i) {
        totals.add(traced[i]);
        refs += static_cast<double>(traced[i].paging.references);
        L.driverFaults += static_cast<double>(traced[i].paging.faults);
        L.driverEvictions += static_cast<double>(traced[i].paging.evictions);
        L.driverHits += static_cast<double>(traced[i].paging.hits);
        const auto untraced = json::parse(coldBytes[i]);
        rep.check(untraced.has_value()
                      && traced[i].paging.references
                          == uintField(*untraced, "references")
                      && traced[i].paging.hits == uintField(*untraced, "hits")
                      && traced[i].paging.faults == uintField(*untraced, "faults")
                      && traced[i].paging.evictions
                          == uintField(*untraced, "evictions"),
                  "traced cold cell " + cold[i].fingerprint()
                      + " differs from untraced");
    }
    L.workloadBuildS = 0;
    for (double b : built)
        L.workloadBuildS += b;
    L.workloadRefs = refs;
    fillPolicyLayers({totals}, refs, L);
    double busy = 0, maxCell = 0;
    for (double ms : computeMs) {
        busy += ms * 1e-3;
        maxCell = std::max(maxCell, ms * 1e-3);
    }
    L.sweepWallS = replayWall;
    L.sweepBusyS = busy;
    L.sweepEfficiency = busy / (replayWall * pool->jobs());
    L.sweepMaxCellS = maxCell;

    std::vector<double> parseUs, fpUs, resultUs;
    for (std::size_t i = 0; i < nominal.size(); ++i) {
        const Request &r = nominal[i];
        const std::string &line = lineOf(r);
        std::string fp, err;
        const auto bytes = json::parse(r.hot ? hotBytes[r.cell] : coldBytes[r.cell]);
        const auto result = bytes.has_value()
            ? hpe::api::ExperimentResult::fromJson(*bytes, err)
            : std::nullopt;
        if (!result.has_value()) {
            rep.check(false, "in-process result does not parse: " + err);
            continue;
        }
        const ApiCost cost = timeApi(line.substr(0, line.size() - 1), *result, fp);
        parseUs.push_back(cost.parseUs);
        fpUs.push_back(cost.fingerprintUs);
        resultUs.push_back(cost.resultJsonUs);
    }
    L.apiParseUs = median(parseUs);
    L.apiFingerprintUs = median(fpUs);
    L.apiResultJsonUs = median(resultUs);
    L.apiComputeMs = median(computeMs);

    const auto delta = [&](const char *key) {
        return static_cast<double>(uintField(afterNominal, key) - uintField(before, key));
    };
    const double hits = delta("cache_hits"), misses = delta("cache_misses");
    L.serveCacheHitRatio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    // Bounded by the four-request client window, so printed, not tracked.
    rep.note("serve.queue_depth_peak", queuePeak, "count");
    double shed = 0;
    for (const Outcome &o : nominalOut)
        if (o.error.rfind("shed", 0) == 0 || o.error == "saturated")
            shed += 1;
    rep.note("serve.shed_frac",
             nominal.empty() ? 0.0 : shed / static_cast<double>(nominal.size()),
             "ratio");
    {
        double lo = 0, hi = 0;
        bool first = true;
        const json::Value *sa = afterNominal.find("shards");
        const json::Value *sb = before.find("shards");
        for (std::size_t i = 0; sa != nullptr && sb != nullptr && i < sa->asArray().size(); ++i) {
            const double h = static_cast<double>(uintField(sa->asArray()[i], "cache_hits")
                                                 - uintField(sb->asArray()[i], "cache_hits"));
            lo = first ? h : std::min(lo, h);
            hi = first ? h : std::max(hi, h);
            first = false;
        }
        L.serveShardSkew = lo > 0 ? hi / lo : 0.0;
    }
    L.traceOverhead = tracedWall / replayWall;
    emitPerLayer(L, rep);

    // store.append_us: the cold payloads appended to a fresh store;
    // store.recover_s: reopening the daemon's store after the run.
    {
        hpe::serve::ResultStoreConfig scfg;
        scfg.dir = (work / "append-probe").string();
        hpe::serve::ShardedResultStore probe(scfg, kShards);
        std::string error;
        std::vector<double> appendUs;
        if (probe.open(error))
            for (std::size_t i = 0; i < cold.size(); ++i) {
                const std::int64_t t0 = nowNs();
                probe.append(cold[i].fingerprint(), coldBytes[i], false);
                appendUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
            }
        rep.note("store.append_us", median(appendUs), "us");
        hpe::serve::ResultStoreConfig rcfg;
        rcfg.dir = storeDir;
        hpe::serve::ShardedResultStore reopened(rcfg, kShards);
        const std::int64_t t0 = nowNs();
        const bool ok = reopened.open(error);
        rep.note("store.recover_s", secondsBetween(t0, nowNs()), "s");
        rep.check(ok, "store reopen failed: " + error);
    }
    fs::remove_all(work, ec);
    return rep;
}

} // namespace perfbench
