/**
 * @file
 * Tests for the networked, sharded face of hpe_serve: the endpoint
 * grammar, TCP listeners on ephemeral ports, the v2 wire protocol (and
 * its refusal of retired v1 requests), robustness against hostile or
 * broken TCP clients (malformed frames, oversized lines, slowloris
 * senders, mid-request disconnects), the fingerprint→shard routing
 * property, the store layout, and reshard-on-restart journal
 * migration.  (Single-socket daemon behaviour lives in test_serve.cpp;
 * the journal format in test_store.cpp.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "api/api.hpp"
#include "api/json.hpp"
#include "api/protocol.hpp"
#include "serve/client.hpp"
#include "serve/endpoint.hpp"
#include "serve/server.hpp"
#include "serve/sharded_store.hpp"

namespace hpe::serve {
namespace {

using api::json::Value;
namespace protocol = api::protocol;

// -------------------------------------------------------- endpoint grammar

TEST(EndpointGrammar, ParsesEverySpelling)
{
    Endpoint ep;
    std::string error;

    ASSERT_TRUE(parseEndpoint("unix:/tmp/hpe.sock", ep, error)) << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/hpe.sock");
    EXPECT_EQ(ep.spell(), "unix:/tmp/hpe.sock");

    // Back-compat: a bare path is a Unix socket.
    ASSERT_TRUE(parseEndpoint("/tmp/bare.sock", ep, error)) << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Unix);
    EXPECT_EQ(ep.path, "/tmp/bare.sock");

    ASSERT_TRUE(parseEndpoint("tcp:127.0.0.1:8080", ep, error)) << error;
    EXPECT_EQ(ep.kind, Endpoint::Kind::Tcp);
    EXPECT_EQ(ep.host, "127.0.0.1");
    EXPECT_EQ(ep.port, 8080);
    EXPECT_EQ(ep.spell(), "tcp:127.0.0.1:8080");

    // Port 0 = "pick an ephemeral port" (daemon side).
    ASSERT_TRUE(parseEndpoint("tcp:localhost:0", ep, error)) << error;
    EXPECT_EQ(ep.port, 0);
}

TEST(EndpointGrammar, RejectsMalformedSpellings)
{
    Endpoint ep;
    for (const char *bad : {"", "unix:", "tcp:", "tcp:hostonly",
                            "tcp::1234", "tcp:host:", "tcp:host:notaport",
                            "tcp:host:70000", "tcp:host:-1"}) {
        std::string error;
        EXPECT_FALSE(parseEndpoint(bad, ep, error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

// ----------------------------------------------------------- test fixtures

/** A started server; listeners given by the caller; tears down on
 *  destruction.  `endpoint()` is the first bound spelling (ephemeral
 *  TCP ports resolved), which is what clients should dial. */
struct NetServer
{
    explicit NetServer(std::vector<std::string> listen, unsigned shards = 1,
                       std::size_t maxQueue = 64,
                       std::size_t maxLineBytes = ServeConfig{}.maxLineBytes)
    {
        cfg.listen = std::move(listen);
        cfg.shards = shards;
        cfg.maxQueue = maxQueue;
        cfg.maxLineBytes = maxLineBytes;
        server = std::make_unique<Server>(cfg);
        std::string error;
        EXPECT_TRUE(server->start(error)) << error;
    }

    ~NetServer() { server->stop(); }

    const std::string &endpoint() const
    {
        return server->boundEndpoints().front();
    }

    /** One request line over a fresh connection; EXPECT success. */
    Value
    roundTrip(const std::string &request,
              const std::string &endpointText = "")
    {
        std::string response, error;
        EXPECT_TRUE(submitLine(
            endpointText.empty() ? endpoint() : endpointText, request,
            response, error))
            << error;
        api::json::ParseError perr;
        const auto v = api::json::parse(response, &perr);
        EXPECT_TRUE(v.has_value()) << perr.message << ": " << response;
        return v.value_or(Value{});
    }

    /** Like roundTrip but returning the raw response bytes (for the
     *  byte-for-byte shape pins). */
    std::string
    rawRoundTrip(const std::string &request)
    {
        std::string response, error;
        EXPECT_TRUE(submitLine(endpoint(), request, response, error))
            << error;
        return response;
    }

    ServeConfig cfg;
    std::unique_ptr<Server> server;
};

/** A tcp:127.0.0.1:0 listener spelling (every test binds ephemeral). */
std::vector<std::string>
tcpOnly()
{
    return {"tcp:127.0.0.1:0"};
}

/** The request object of a tiny run (fast functional cell); seed
 *  varies the cell. */
std::string
runBody(std::uint64_t seed = 0)
{
    std::string body = R"({"app":"STN","policy":"LRU","functional":true,)"
                       R"("scale":0.1,"trace_digest":true)";
    if (seed != 0)
        body += ",\"seed\":" + std::to_string(seed);
    return body + "}";
}

/** A v2 run request line for runBody(@p seed). */
std::string
runRequest(std::uint64_t seed = 0)
{
    return R"({"v":2,"type":"run","request":)" + runBody(seed) + "}";
}

/** The structured error code of a failure response ("" if none). */
std::string
errorCode(const Value &response)
{
    const Value *error = response.find("error");
    if (error == nullptr || !error->isObject())
        return "";
    const Value *code = error->find("code");
    return code != nullptr && code->isString() ? code->asString() : "";
}

/** Blocking connect to @p endpointText; returns the raw fd (>= 0). */
int
rawConnect(const std::string &endpointText)
{
    Endpoint ep;
    std::string error;
    EXPECT_TRUE(parseEndpoint(endpointText, ep, error)) << error;
    const int fd = connectEndpoint(ep, error);
    EXPECT_GE(fd, 0) << error;
    return fd;
}

/** Read one '\n'-terminated line from @p fd (newline stripped); ""
 *  on EOF-before-newline.  A receive timeout bounds hangs. */
std::string
rawReadLine(int fd)
{
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    std::string line;
    char ch = 0;
    while (true) {
        const ssize_t n = ::recv(fd, &ch, 1, 0);
        if (n <= 0)
            return "";
        if (ch == '\n')
            return line;
        line.push_back(ch);
    }
}

// ---------------------------------------------------------- TCP listeners

TEST(ServeTcp, EphemeralPortRoundTripsPingAndRun)
{
    NetServer ts(tcpOnly());
    // The bound spelling resolved port 0 to a real port.
    ASSERT_EQ(ts.server->boundEndpoints().size(), 1u);
    EXPECT_EQ(ts.endpoint().rfind("tcp:127.0.0.1:", 0), 0u);
    EXPECT_NE(ts.endpoint(), "tcp:127.0.0.1:0");

    const Value pong = ts.roundTrip(R"({"v":2,"type":"ping","id":"tcp"})");
    EXPECT_TRUE(pong.find("ok")->asBool());
    EXPECT_EQ(pong.find("id")->asString(), "tcp");

    const Value first = ts.roundTrip(runRequest());
    ASSERT_TRUE(first.find("ok")->asBool());
    const Value second = ts.roundTrip(runRequest());
    ASSERT_TRUE(second.find("ok")->asBool());
    // Cache hits over TCP return the same bytes as the computation.
    EXPECT_TRUE(second.find("cached")->asBool());
    EXPECT_EQ(second.find("result")->dump(), first.find("result")->dump());
}

TEST(ServeTcp, MixedUnixAndTcpListenersShareOneCache)
{
    NetServer ts({"unix:" + ::testing::TempDir() + "/hpe_mixed.sock",
                  "tcp:127.0.0.1:0"});
    ASSERT_EQ(ts.server->boundEndpoints().size(), 2u);
    const std::string &unixEp = ts.server->boundEndpoints()[0];
    const std::string &tcpEp = ts.server->boundEndpoints()[1];

    const Value viaUnix = ts.roundTrip(runRequest(), unixEp);
    ASSERT_TRUE(viaUnix.find("ok")->asBool());
    const Value viaTcp = ts.roundTrip(runRequest(), tcpEp);
    ASSERT_TRUE(viaTcp.find("ok")->asBool());
    // One experiment, one computation, whatever socket family asked.
    EXPECT_TRUE(viaTcp.find("cached")->asBool());
    EXPECT_EQ(viaTcp.find("result")->dump(), viaUnix.find("result")->dump());

    // stats reports both bound endpoints, canonical spelling.
    const Value stats = ts.roundTrip(R"({"v":2,"type":"stats"})");
    const Value *endpoints = stats.find("stats")->find("endpoints");
    ASSERT_NE(endpoints, nullptr);
    ASSERT_EQ(endpoints->asArray().size(), 2u);
    EXPECT_EQ(endpoints->asArray()[0].asString(), unixEp);
    EXPECT_EQ(endpoints->asArray()[1].asString(), tcpEp);
}

// ------------------------------------------------------------ protocol v2

TEST(ProtocolV2, ResponsesEchoVersionAndId)
{
    NetServer ts(tcpOnly());
    EXPECT_EQ(ts.rawRoundTrip(R"({"v":2,"type":"ping","id":"x"})"),
              R"({"id":"x","ok":true,"type":"pong","v":2})");

    const Value run = ts.roundTrip(
        R"({"v":2,"type":"run","id":7,"request":{"app":"STN",)"
        R"("policy":"LRU","functional":true,"scale":0.1,)"
        R"("trace_digest":true}})");
    ASSERT_TRUE(run.find("ok")->asBool());
    EXPECT_EQ(run.find("v")->asUint(), 2u);
    EXPECT_EQ(run.find("id")->asUint(), 7u);
}

TEST(ProtocolV2, ErrorsAreStructuredObjectsWithCodeAndId)
{
    NetServer ts(tcpOnly(), 1, 1);
    const Value bad =
        ts.roundTrip(R"({"v":2,"type":"transmogrify","id":"tag"})");
    EXPECT_FALSE(bad.find("ok")->asBool());
    EXPECT_EQ(bad.find("v")->asUint(), 2u);
    EXPECT_EQ(bad.find("id")->asString(), "tag");
    const Value *error = bad.find("error");
    ASSERT_NE(error, nullptr);
    ASSERT_TRUE(error->isObject());
    EXPECT_EQ(error->find("code")->asString(), protocol::kErrUnknownType);
    EXPECT_NE(error->find("message")->asString().find("transmogrify"),
              std::string::npos);

    // Retryable failures nest the hint inside the error object — and
    // nowhere else.
    const auto holder = ts.server->cache().acquire("held-slot");
    const Value shed = ts.roundTrip(runRequest());
    EXPECT_FALSE(shed.find("ok")->asBool());
    ASSERT_TRUE(shed.find("error")->isObject());
    EXPECT_GT(shed.find("error")->find("retry_after_ms")->asUint(), 0u);
    EXPECT_EQ(shed.find("retry_after_ms"), nullptr);
    EXPECT_GT(protocol::retryAfterMs(shed).value_or(0), 0u);
    ts.server->cache().complete(holder.entry, "freed");
}

TEST(ProtocolV2, UnsupportedVersionsAreRefusedInV2Shape)
{
    NetServer ts(tcpOnly());
    const Value tooNew = ts.roundTrip(R"({"v":3,"type":"ping","id":"n"})");
    EXPECT_FALSE(tooNew.find("ok")->asBool());
    EXPECT_EQ(tooNew.find("id")->asString(), "n");
    ASSERT_TRUE(tooNew.find("error")->isObject());
    EXPECT_EQ(tooNew.find("error")->find("code")->asString(),
              protocol::kErrUnsupportedVersion);
    EXPECT_NE(tooNew.find("error")->find("message")->asString().find(
                  "unsupported protocol version 3"),
              std::string::npos);

    const Value notANumber = ts.roundTrip(R"({"v":"two","type":"ping"})");
    EXPECT_FALSE(notANumber.find("ok")->asBool());
    EXPECT_EQ(notANumber.find("error")->find("code")->asString(),
              protocol::kErrUnsupportedVersion);

    // Only the integer 2 is v2: no fraction or out-of-range double is
    // truncated onto it.
    for (const char *request : {R"({"v":2.5,"type":"ping"})",
                                R"({"v":1e300,"type":"ping"})",
                                R"({"v":-2,"type":"ping"})"}) {
        const Value refused = ts.roundTrip(request);
        EXPECT_FALSE(refused.find("ok")->asBool()) << request;
        EXPECT_EQ(errorCode(refused), protocol::kErrUnsupportedVersion)
            << request;
    }

    // The daemon survived and still speaks v2.
    EXPECT_TRUE(ts.roundTrip(R"({"v":2,"type":"ping"})").find("ok")->asBool());
}

TEST(ProtocolV2, RetiredV1AndUnreadableLinesGetV2Errors)
{
    NetServer ts(tcpOnly(), 1, 64, 1024);
    // A v1 request (no "v", or "v":1) is refused in v2 shape with its
    // id echoed, and nothing is computed for it.
    for (const std::string &v1 :
         {std::string(R"({"type":"ping","id":"tag"})"),
          R"({"v":1,"type":"run","id":"tag","request":)" + runBody() + "}"}) {
        const Value refused = ts.roundTrip(v1);
        EXPECT_FALSE(refused.find("ok")->asBool()) << v1;
        EXPECT_EQ(refused.find("v")->asUint(), 2u) << v1;
        EXPECT_EQ(refused.find("id")->asString(), "tag") << v1;
        EXPECT_EQ(errorCode(refused), protocol::kErrUnsupportedVersion);
        const std::string message = protocol::errorMessage(refused);
        EXPECT_NE(message.find("retired"), std::string::npos) << message;
        EXPECT_NE(message.find(R"(send "v":2)"), std::string::npos)
            << message;
    }
    EXPECT_EQ(ts.server->cache().misses(), 0u);

    // A line whose version cannot be read is answered in v2 shape too
    // (no id: there is no envelope to take it from).
    const Value garbage = ts.roundTrip("this is not json");
    EXPECT_FALSE(garbage.find("ok")->asBool());
    EXPECT_EQ(garbage.find("v")->asUint(), 2u);
    EXPECT_EQ(garbage.find("id"), nullptr);
    EXPECT_EQ(errorCode(garbage), protocol::kErrParse);

    const int fd = rawConnect(ts.endpoint());
    const std::string flood(2048, 'x'); // over the cap, no newline
    ASSERT_EQ(::send(fd, flood.data(), flood.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(flood.size()));
    const auto oversized = api::json::parse(rawReadLine(fd));
    ::close(fd);
    ASSERT_TRUE(oversized.has_value());
    EXPECT_FALSE(oversized->find("ok")->asBool());
    EXPECT_EQ(oversized->find("v")->asUint(), 2u);
    EXPECT_EQ(oversized->find("id"), nullptr);
    EXPECT_EQ(errorCode(*oversized), protocol::kErrOversized);
}

TEST(ProtocolV2, VersionLivesOutsideTheFingerprint)
{
    NetServer ts(tcpOnly());
    const Value first = ts.roundTrip(runRequest());
    ASSERT_TRUE(first.find("ok")->asBool());
    EXPECT_FALSE(first.find("cached")->asBool());
    // The fingerprint is the request object's alone: "v" rides the
    // envelope beside id and deadline_ms.
    std::string error;
    const auto req = api::ExperimentRequest::fromJson(
        api::json::parse(runBody()).value_or(Value{}), error);
    ASSERT_TRUE(req.has_value()) << error;
    EXPECT_EQ(first.find("fingerprint")->asString(), req->fingerprint());

    // The same experiment under a different envelope is a cache hit
    // with identical bytes.
    const Value second = ts.roundTrip(
        R"({"v":2,"type":"run","id":"other","deadline_ms":60000,)"
        R"("request":)"
        + runBody() + "}");
    ASSERT_TRUE(second.find("ok")->asBool());
    EXPECT_TRUE(second.find("cached")->asBool());
    EXPECT_EQ(second.find("fingerprint")->asString(),
              first.find("fingerprint")->asString());
    EXPECT_EQ(second.find("result")->dump(), first.find("result")->dump());
}

// --------------------------------------------- hostile / broken TCP peers

TEST(ServeTcpRobustness, MalformedFrameGetsErrorAndDaemonSurvives)
{
    NetServer ts(tcpOnly());
    const int fd = rawConnect(ts.endpoint());
    // Binary junk with an embedded NUL (sized explicitly: the NUL
    // must go over the wire, not truncate the literal).
    constexpr char kGarbage[] = "\x01\x02\xff not a frame \x00!\n";
    const std::string garbage(kGarbage, sizeof kGarbage - 1);
    ASSERT_EQ(::send(fd, garbage.data(), garbage.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(garbage.size()));
    const std::string response = rawReadLine(fd);
    api::json::ParseError perr;
    const auto v = api::json::parse(response, &perr);
    ASSERT_TRUE(v.has_value()) << response;
    EXPECT_FALSE(v->find("ok")->asBool());
    EXPECT_EQ(errorCode(*v), protocol::kErrParse);
    EXPECT_NE(protocol::errorMessage(*v).find("parse error"),
              std::string::npos);
    // Same connection keeps working after the bad frame...
    const std::string ping = "{\"v\":2,\"type\":\"ping\"}\n";
    ASSERT_EQ(::send(fd, ping.data(), ping.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(ping.size()));
    EXPECT_NE(rawReadLine(fd).find("pong"), std::string::npos);
    ::close(fd);
    // ...and so does the daemon.
    EXPECT_TRUE(ts.roundTrip(R"({"v":2,"type":"ping"})").find("ok")->asBool());
}

TEST(ServeTcpRobustness, OversizedLineIsRefusedAndConnectionClosed)
{
    // A tiny line cap keeps the test fast.
    NetServer ts(tcpOnly(), 1, 64, 1024);

    const int fd = rawConnect(ts.endpoint());
    const std::string flood(8192, 'x'); // no newline anywhere
    ASSERT_EQ(::send(fd, flood.data(), flood.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(flood.size()));
    const std::string response = rawReadLine(fd);
    api::json::ParseError perr;
    const auto v = api::json::parse(response, &perr);
    ASSERT_TRUE(v.has_value()) << response;
    EXPECT_FALSE(v->find("ok")->asBool());
    EXPECT_EQ(errorCode(*v), protocol::kErrOversized);
    EXPECT_NE(protocol::errorMessage(*v).find("exceeds 1024 bytes"),
              std::string::npos);
    // After the error the daemon hangs up: EOF, not a second response.
    EXPECT_EQ(rawReadLine(fd), "");
    ::close(fd);
    EXPECT_TRUE(ts.roundTrip(R"({"v":2,"type":"ping"})").find("ok")->asBool());
}

TEST(ServeTcpRobustness, SlowlorisByteAtATimeSenderStillGetsAnswered)
{
    NetServer ts(tcpOnly());
    const int fd = rawConnect(ts.endpoint());
    const std::string request = "{\"v\":2,\"type\":\"ping\",\"id\":\"slow\"}\n";
    for (const char ch : request) {
        ASSERT_EQ(::send(fd, &ch, 1, MSG_NOSIGNAL), 1);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::string response = rawReadLine(fd);
    EXPECT_NE(response.find("pong"), std::string::npos) << response;
    EXPECT_NE(response.find("slow"), std::string::npos) << response;
    ::close(fd);
}

TEST(ServeTcpRobustness, MidRequestDisconnectLeavesDaemonHealthy)
{
    NetServer ts(tcpOnly());
    // A client that dies mid-line: half a request, no newline, gone.
    int fd = rawConnect(ts.endpoint());
    const std::string half = R"({"v":2,"type":"run","request":{"app":)";
    ASSERT_EQ(::send(fd, half.data(), half.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(half.size()));
    ::close(fd);

    // A client that sends a full run request and vanishes before the
    // answer: the computation must not take the daemon down with it.
    fd = rawConnect(ts.endpoint());
    const std::string full = runRequest(99) + "\n";
    ASSERT_EQ(::send(fd, full.data(), full.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(full.size()));
    ::close(fd);

    // The daemon answers the next client as if nothing happened, and
    // the abandoned computation still landed in the cache.
    EXPECT_TRUE(ts.roundTrip(R"({"v":2,"type":"ping"})").find("ok")->asBool());
    for (int i = 0; i < 200; ++i) {
        if (ts.server->cache().misses() >= 1
            && ts.server->cache().pending() == 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const Value retry = ts.roundTrip(runRequest(99));
    ASSERT_TRUE(retry.find("ok")->asBool());
    EXPECT_TRUE(retry.find("cached")->asBool());
}

// ---------------------------------------------------------------- sharding

TEST(Sharding, FingerprintRoutingIsDeterministicAndCoversEveryShard)
{
    constexpr unsigned kShards = 4;
    std::set<unsigned> seen;
    for (int i = 0; i < 1000; ++i) {
        const std::string fp = "fingerprint-" + std::to_string(i);
        const unsigned shard = ShardedResultStore::shardOf(fp, kShards);
        ASSERT_LT(shard, kShards);
        // Same fingerprint, same shard — every time.
        EXPECT_EQ(ShardedResultStore::shardOf(fp, kShards), shard);
        EXPECT_EQ(ShardedResultStore::shardOf(fp, 1), 0u);
        seen.insert(shard);
    }
    // FNV-1a spreads arbitrary fingerprints over all shards.
    EXPECT_EQ(seen.size(), kShards);
}

TEST(Sharding, RequestsLandOnTheOwningShardCache)
{
    constexpr unsigned kShards = 4;
    NetServer ts(tcpOnly(), kShards);
    ASSERT_EQ(ts.server->shards(), kShards);

    constexpr std::uint64_t kCells = 8;
    for (std::uint64_t seed = 1; seed <= kCells; ++seed) {
        const Value first = ts.roundTrip(runRequest(seed));
        ASSERT_TRUE(first.find("ok")->asBool());
        const std::string fp = first.find("fingerprint")->asString();
        const unsigned owner = ShardedResultStore::shardOf(fp, kShards);

        // The repeat hits — and the hit lands on the owning shard.
        const std::uint64_t hitsBefore =
            ts.server->shardCache(owner).hits();
        const Value again = ts.roundTrip(runRequest(seed));
        EXPECT_TRUE(again.find("cached")->asBool());
        EXPECT_EQ(ts.server->shardCache(owner).hits(), hitsBefore + 1);
    }

    std::uint64_t misses = 0, hits = 0;
    for (unsigned i = 0; i < kShards; ++i) {
        misses += ts.server->shardCache(i).misses();
        hits += ts.server->shardCache(i).hits();
    }
    EXPECT_EQ(misses, kCells);
    EXPECT_EQ(hits, kCells);
}

TEST(Sharding, StatsExposePerShardRowsBesideAggregates)
{
    NetServer ts(tcpOnly(), 2);
    ts.roundTrip(runRequest(1));
    ts.roundTrip(runRequest(1));

    const Value stats = ts.roundTrip(R"({"v":2,"type":"stats"})");
    const Value *body = stats.find("stats");
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(body->find("shard_count")->asUint(), 2u);
    // Aggregates keep their pre-sharding names and meanings...
    EXPECT_EQ(body->find("cache_hits")->asUint(), 1u);
    EXPECT_EQ(body->find("cache_misses")->asUint(), 1u);
    // ...the per-shard array sums to them...
    const auto &shards = body->find("shards")->asArray();
    ASSERT_EQ(shards.size(), 2u);
    std::uint64_t hits = 0, misses = 0;
    for (const Value &shard : shards) {
        hits += shard.find("cache_hits")->asUint();
        misses += shard.find("cache_misses")->asUint();
    }
    EXPECT_EQ(hits, 1u);
    EXPECT_EQ(misses, 1u);
    // ...and the CSV carries both aggregate and per-shard rows.
    const std::string csv = body->find("stats_csv")->asString();
    EXPECT_NE(csv.find("serve.cache.hits,1,1"), std::string::npos);
    EXPECT_NE(csv.find("serve.shard0.cache."), std::string::npos);
    EXPECT_NE(csv.find("serve.shard1.cache."), std::string::npos);
    EXPECT_NE(csv.find("serve.shards,1,2"), std::string::npos);
}

/** Names in @p dir, sorted. */
std::vector<std::string>
dirNames(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Sharding, OneShardStoreWritesSegmentsOnlyUnderShardZero)
{
    ResultStoreConfig cfg;
    cfg.dir = ::testing::TempDir() + "/hpe_one_shard_store";
    std::filesystem::remove_all(cfg.dir);
    {
        ShardedResultStore store(cfg, 1);
        std::string error;
        ASSERT_TRUE(store.open(error)) << error;
        store.append("fp-a", R"({"x":1})", false);
        store.append("fp-b", R"({"x":2})", false);
        store.appendTombstone("fp-a");
    }
    // Nothing in the root but the lock and the one shard: even a
    // single-shard store never writes the unsharded layout.
    EXPECT_EQ(dirNames(cfg.dir),
              (std::vector<std::string>{"LOCK", "shard-0"}));
    std::size_t segments = 0;
    for (const std::string &name : dirNames(cfg.dir + "/shard-0"))
        segments += name.rfind("journal-", 0) == 0 ? 1 : 0;
    EXPECT_GE(segments, 1u);
}

TEST(Sharding, UnshardedRootJournalIsRefusedUntouched)
{
    ResultStoreConfig cfg;
    cfg.dir = ::testing::TempDir() + "/hpe_unsharded_store";
    std::filesystem::remove_all(cfg.dir);
    {
        // A bare ResultStore on the root writes the retired layout.
        ResultStore rootStore(cfg);
        std::string error;
        ASSERT_TRUE(rootStore.open(error)) << error;
        rootStore.append("fp-old", R"({"x":1})", false);
    }
    std::string segment;
    for (const std::string &name : dirNames(cfg.dir))
        if (name.rfind("journal-", 0) == 0)
            segment = name;
    ASSERT_FALSE(segment.empty());
    const std::string before = fileBytes(cfg.dir + "/" + segment);
    ASSERT_FALSE(before.empty());

    std::string error;
    {
        ShardedResultStore store(cfg, 2);
        EXPECT_FALSE(store.open(error));
    }
    EXPECT_NE(error.find("'" + cfg.dir + "'"), std::string::npos) << error;
    EXPECT_NE(error.find("unsharded layout is no longer read"),
              std::string::npos)
        << error;
    // Durable bytes are never dropped: the segment is exactly as it
    // was, and no shard directory was created beside it.
    EXPECT_EQ(fileBytes(cfg.dir + "/" + segment), before);
    EXPECT_EQ(dirNames(cfg.dir), (std::vector<std::string>{"LOCK", segment}));

    // The recovery the message names works: moved into an empty
    // shard-0/, the record is read back (and re-homed if need be).
    std::filesystem::create_directory(cfg.dir + "/shard-0");
    std::filesystem::rename(cfg.dir + "/" + segment,
                            cfg.dir + "/shard-0/" + segment);
    ShardedResultStore store(cfg, 2);
    ASSERT_TRUE(store.open(error)) << error;
    ASSERT_EQ(store.recovered().size(), 1u);
    EXPECT_EQ(store.recovered().front().fingerprint, "fp-old");
}

TEST(Sharding, ReshardRestartRecoversEveryFrame)
{
    ServeConfig cfg;
    cfg.listen = tcpOnly();
    cfg.shards = 3;
    cfg.storeDir = ::testing::TempDir() + "/hpe_reshard_store";
    std::filesystem::remove_all(cfg.storeDir);

    constexpr std::uint64_t kCells = 6;
    std::map<std::string, std::string> expected; // fingerprint -> result
    {
        Server server(cfg);
        std::string error;
        ASSERT_TRUE(server.start(error)) << error;
        const std::string endpoint = server.boundEndpoints().front();
        for (std::uint64_t seed = 1; seed <= kCells; ++seed) {
            std::string response, err;
            ASSERT_TRUE(submitLine(endpoint, runRequest(seed), response,
                                   err))
                << err;
            const Value v = api::json::parse(response).value_or(Value{});
            ASSERT_TRUE(v.find("ok")->asBool());
            expected[v.find("fingerprint")->asString()] =
                v.find("result")->dump();
        }
        ASSERT_NE(server.store(), nullptr);
        EXPECT_EQ(server.store()->appendCount(), kCells);
        server.stop();
    }
    ASSERT_EQ(expected.size(), kCells);

    // Restart over the same journals with a different shard count: the
    // stray shard-2 journal is migrated, every frame survives, and
    // every cell answers as a warm hit with identical bytes.
    cfg.shards = 2;
    Server server(cfg);
    std::string error;
    ASSERT_TRUE(server.start(error)) << error;
    ASSERT_NE(server.store(), nullptr);
    EXPECT_EQ(server.store()->recoveredCount(), kCells);
    EXPECT_EQ(server.store()->shards(), 2u);
    EXPECT_FALSE(
        std::filesystem::exists(cfg.storeDir + "/shard-2"));

    const std::string endpoint = server.boundEndpoints().front();
    for (std::uint64_t seed = 1; seed <= kCells; ++seed) {
        std::string response, err;
        ASSERT_TRUE(submitLine(endpoint, runRequest(seed), response, err))
            << err;
        const Value v = api::json::parse(response).value_or(Value{});
        ASSERT_TRUE(v.find("ok")->asBool());
        EXPECT_TRUE(v.find("cached")->asBool());
        const std::string fp = v.find("fingerprint")->asString();
        ASSERT_EQ(expected.count(fp), 1u);
        EXPECT_EQ(v.find("result")->dump(), expected.at(fp));
    }
    std::uint64_t misses = 0;
    for (unsigned i = 0; i < server.shards(); ++i)
        misses += server.shardCache(i).misses();
    EXPECT_EQ(misses, 0u); // nothing was recomputed
    server.stop();
}

} // namespace
} // namespace hpe::serve
