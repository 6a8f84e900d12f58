#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <sstream>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "api/api.hpp"
#include "api/protocol.hpp"
#include "common/log.hpp"
#include "common/stats.hpp"
#include "sim/sweep.hpp"

namespace hpe::serve {

using api::json::Object;
using api::json::Value;
namespace protocol = api::protocol;

namespace {

/** The server signals route to (one daemon per process). */
Server *g_signalServer = nullptr;

extern "C" void
serveSignalHandler(int)
{
    // Async-signal-safe: requestStop() only write()s to the self-pipe.
    if (g_signalServer != nullptr)
        g_signalServer->requestStop();
}

/** epoll user-data tags for the non-connection fds (connection events
 *  carry the connection id, which never sets the high bit). */
constexpr std::uint64_t kControlBit = 1ull << 63;
constexpr std::uint64_t kStopTag = kControlBit | 1;
constexpr std::uint64_t kNotifyTag = kControlBit | 2;
constexpr std::uint64_t kListenTagBase = kControlBit | 0x100;

/**
 * One failure line: the structured v2 error object, echoing @p id when
 * the request carried one.
 */
std::string
errorResponse(const char *code, const std::string &message,
              std::optional<std::uint64_t> retryAfterMs = std::nullopt,
              const std::optional<Value> &id = std::nullopt)
{
    Object errorObj{{"code", code}, {"message", message}};
    if (retryAfterMs.has_value())
        errorObj.emplace("retry_after_ms", *retryAfterMs);
    Object obj{{"error", std::move(errorObj)},
               {"ok", false},
               {"v", protocol::kVersionCurrent}};
    if (id.has_value())
        obj.emplace("id", *id);
    return Value(std::move(obj)).dump();
}

/** Copy the request's optional "id" member into a response object. */
void
echoId(const Value &envelope, Object &response)
{
    if (const Value *id = envelope.find("id"); id != nullptr)
        response.emplace("id", *id);
}

std::optional<Value>
envelopeId(const Value &envelope)
{
    if (const Value *id = envelope.find("id"); id != nullptr)
        return *id;
    return std::nullopt;
}

/**
 * Is a daemon answering on @p addr?  Connect and round-trip a `ping`
 * with a one-second receive timeout.  "No" only when the connection is
 * refused or immediately dropped — a bound-but-dead socket.  A busy
 * daemon that is slow to answer counts as alive (never steal a socket
 * that something is listening on).
 */
bool
probeAlive(const sockaddr_un &addr)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return true; // cannot prove it dead; err on the safe side
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return false; // nothing accepting: the socket file is stale
    }
    const timeval timeout{1, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    const char ping[] = "{\"type\":\"ping\",\"v\":2}\n";
    if (::send(fd, ping, sizeof ping - 1, MSG_NOSIGNAL) < 0) {
        ::close(fd);
        return false;
    }
    char byte;
    const ssize_t n = ::recv(fd, &byte, 1, 0);
    ::close(fd);
    if (n > 0)
        return true; // something answered
    // Timed out: a listener exists but is wedged or drowning — still
    // alive for our purposes.  Only a clean EOF means dead.
    return !(n == 0);
}

} // namespace

const char *
shedModeName(ShedMode mode)
{
    switch (mode) {
      case ShedMode::Full: return "full";
      case ShedMode::HitOnly: return "hit_only";
      case ShedMode::Reject: return "reject";
    }
    return "?";
}

Server::Server(const ServeConfig &cfg)
    : cfg_(cfg),
      shedHitOnlyDepth_(cfg.shedHitOnlyDepth > 0 ? cfg.shedHitOnlyDepth
                                                 : std::max<std::size_t>(
                                                       cfg.maxQueue, 1)),
      shedRejectDepth_(std::max(cfg.shedRejectDepth > 0
                                    ? cfg.shedRejectDepth
                                    : 4 * std::max<std::size_t>(cfg.maxQueue,
                                                                1),
                                shedHitOnlyDepth_ + 1))
{
    // The capacity, admission bound, and worker budget split evenly
    // across the shards (every shard gets at least one of each), so
    // `--shards 1` preserves the unsharded daemon's behaviour exactly.
    const unsigned shardCount = std::max(cfg.shards, 1u);
    const unsigned totalJobs = resolveJobs(cfg.jobs);
    const unsigned perShardWorkers = std::max(1u, totalJobs / shardCount);
    jobsTotal_ = perShardWorkers * shardCount;
    const std::size_t perShardCapacity = std::max<std::size_t>(
        1, std::max<std::size_t>(cfg.cacheCapacity, 1) / shardCount);
    const std::size_t perShardPending = std::max<std::size_t>(
        1, std::max<std::size_t>(cfg.maxQueue, 1) / shardCount);
    shards_.reserve(shardCount);
    for (unsigned i = 0; i < shardCount; ++i)
        shards_.push_back(std::make_unique<Shard>(
            perShardCapacity, perShardPending, perShardWorkers));
}

Server::~Server()
{
    stop();
    if (g_signalServer == this)
        installSignalHandlers(nullptr);
}

ResultCache &
Server::shardCache(unsigned index)
{
    return shards_.at(index)->cache;
}

bool
Server::bindEndpoint(const Endpoint &endpoint, int &fd, std::string &error)
{
    if (endpoint.kind == Endpoint::Kind::Unix) {
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        if (endpoint.path.size() >= sizeof(addr.sun_path)) {
            error = strformat("socket path '{}' exceeds {} bytes",
                              endpoint.path, sizeof(addr.sun_path) - 1);
            return false;
        }
        std::memcpy(addr.sun_path, endpoint.path.c_str(),
                    endpoint.path.size() + 1);
        // Nonblocking listener: after the accept loop drains the
        // backlog, the next accept4 must return EAGAIN, not block the
        // IO thread (the SOCK_NONBLOCK flag to accept4 covers only the
        // accepted socket).
        fd = ::socket(AF_UNIX,
                      SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0);
        if (fd < 0) {
            error = strformat("socket(): {}", std::strerror(errno));
            return false;
        }
        int bound = ::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                           sizeof(addr));
        if (bound != 0 && errno == EADDRINUSE && !probeAlive(addr)) {
            // A dead daemon (crash, SIGKILL) left its socket file
            // behind; nothing answered the probe, so reclaim the path.
            inform("hpe_serve reclaiming stale socket {}", endpoint.path);
            ::unlink(endpoint.path.c_str());
            bound = ::bind(fd, reinterpret_cast<const sockaddr *>(&addr),
                           sizeof(addr));
        }
        if (bound != 0) {
            error = strformat("bind('{}'): {} (is another hpe_serve "
                              "running? remove the stale socket if not)",
                              endpoint.path, std::strerror(errno));
            ::close(fd);
            fd = -1;
            return false;
        }
        return true;
    }

    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *result = nullptr;
    const std::string portText = std::to_string(endpoint.port);
    if (const int rc = ::getaddrinfo(endpoint.host.c_str(), portText.c_str(),
                                     &hints, &result);
        rc != 0) {
        error = strformat("resolve('{}'): {}", endpoint.spell(),
                          ::gai_strerror(rc));
        return false;
    }
    std::string lastError = "no addresses";
    fd = -1;
    for (const addrinfo *ai = result; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family,
                      ai->ai_socktype | SOCK_CLOEXEC | SOCK_NONBLOCK,
                      ai->ai_protocol);
        if (fd < 0) {
            lastError = strformat("socket(): {}", std::strerror(errno));
            continue;
        }
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        lastError = strformat("bind('{}'): {} (is another hpe_serve "
                              "listening there?)",
                              endpoint.spell(), std::strerror(errno));
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(result);
    if (fd < 0) {
        error = lastError;
        return false;
    }
    return true;
}

void
Server::closeListeners()
{
    // Unlink Unix socket paths *before* closing the fds: once an fd is
    // closed a starting daemon's probe sees a dead socket and may
    // reclaim the path, and a late unlink would then delete the socket
    // file the new daemon just bound.
    for (std::size_t i = 0; i < endpoints_.size() && i < listenFds_.size();
         ++i)
        if (listenFds_[i] >= 0
            && endpoints_[i].kind == Endpoint::Kind::Unix)
            ::unlink(endpoints_[i].path.c_str());
    for (int &fd : listenFds_) {
        if (fd >= 0)
            ::close(fd);
        fd = -1;
    }
}

bool
Server::start(std::string &error)
{
    HPE_ASSERT(!started_, "server started twice");

    // Resolve the endpoint list: the primary --socket spelling (the
    // back-compat slot) plus every --listen.
    endpoints_.clear();
    std::vector<std::string> spellings;
    if (!cfg_.socketPath.empty())
        spellings.push_back(cfg_.socketPath);
    for (const std::string &text : cfg_.listen)
        spellings.push_back(text);
    if (spellings.empty()) {
        error = "socket path is empty";
        return false;
    }
    for (const std::string &text : spellings) {
        Endpoint endpoint;
        if (!parseEndpoint(text, endpoint, error))
            return false;
        endpoints_.push_back(std::move(endpoint));
    }

    // Bind — the daemon's mutual-exclusion point — *before* the store
    // is touched: a second daemon racing a live one must fail fast
    // while the live daemon's journal is untouched (replay truncates
    // torn tails, may compact, and may migrate shards; doing any of
    // that under a live owner would destroy its journal).  Clients
    // cannot connect until listen(), so the warm start below still
    // finishes before the first request is accepted.
    listenFds_.assign(endpoints_.size(), -1);
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        if (!bindEndpoint(endpoints_[i], listenFds_[i], error)) {
            closeListeners();
            return false;
        }
    }

    // Warm-start from the durable store: the first client a recovered
    // daemon accepts already sees every cell the previous incarnation
    // computed.  The store's root flock backstops the bind against
    // daemons sharing a store dir across socket paths.
    if (!cfg_.storeDir.empty()) {
        ResultStoreConfig storeCfg;
        storeCfg.dir = cfg_.storeDir;
        storeCfg.segmentBytes = cfg_.storeSegmentBytes;
        storeCfg.syncEveryAppend = cfg_.storeSync;
        store_ = std::make_unique<ShardedResultStore>(
            storeCfg, static_cast<unsigned>(shards_.size()));
        if (!store_->open(error)) {
            store_.reset();
            closeListeners();
            return false;
        }
        // Observer first: entries the warm start itself displaces (more
        // journal than cache capacity) get their tombstones journaled.
        for (const auto &shard : shards_)
            shard->cache.setEvictionObserver([this](const std::string &fp) {
                store_->appendTombstone(fp);
            });
        for (const ResultStore::Record &rec : store_->recovered())
            shards_[ShardedResultStore::shardOf(
                        rec.fingerprint,
                        static_cast<unsigned>(shards_.size()))]
                ->cache.seed(rec.fingerprint, rec.payload, rec.failed);
        if (store_->recoveredCount() > 0)
            inform("hpe_serve warm-started {} cached results from {} "
                   "({} torn-tail truncations, {} migrated across shards)",
                   store_->recoveredCount(), cfg_.storeDir,
                   store_->tornTruncations(), store_->migratedRecords());
        // The caches hold the live copies now; drop the snapshot.
        store_->releaseRecovered();
    }

    boundEndpoints_.clear();
    for (std::size_t i = 0; i < endpoints_.size(); ++i) {
        if (::listen(listenFds_[i], 1024) != 0) {
            error = strformat("listen('{}'): {}", endpoints_[i].spell(),
                              std::strerror(errno));
            closeListeners();
            if (store_ != nullptr)
                store_->close();
            return false;
        }
        // tcp:host:0 asked the kernel for a port; report the real one.
        if (endpoints_[i].kind == Endpoint::Kind::Tcp
            && endpoints_[i].port == 0) {
            sockaddr_storage bound{};
            socklen_t len = sizeof bound;
            if (::getsockname(listenFds_[i],
                              reinterpret_cast<sockaddr *>(&bound), &len)
                == 0) {
                if (bound.ss_family == AF_INET)
                    endpoints_[i].port = ntohs(
                        reinterpret_cast<sockaddr_in *>(&bound)->sin_port);
                else if (bound.ss_family == AF_INET6)
                    endpoints_[i].port = ntohs(
                        reinterpret_cast<sockaddr_in6 *>(&bound)->sin6_port);
            }
        }
        boundEndpoints_.push_back(endpoints_[i].spell());
    }

    epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
    notifyFd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    // Nonblocking on both ends: the IO thread drains until EAGAIN, and
    // a full pipe must never block a signal handler (one pending byte
    // already guarantees the wakeup).
    const bool piped = ::pipe2(stopPipe_, O_CLOEXEC | O_NONBLOCK) == 0;
    if (epollFd_ < 0 || notifyFd_ < 0 || !piped) {
        error = strformat("event setup: {}", std::strerror(errno));
        closeListeners();
        if (store_ != nullptr)
            store_->close();
        return false;
    }

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kStopTag;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, stopPipe_[0], &ev);
    ev.data.u64 = kNotifyTag;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, notifyFd_, &ev);
    for (std::size_t i = 0; i < listenFds_.size(); ++i) {
        ev.data.u64 = kListenTagBase + i;
        ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, listenFds_[i], &ev);
    }

    started_ = true;
    ioThread_ = std::thread([this] { ioLoop(); });
    return true;
}

void
Server::requestStop()
{
    // Called from signal handlers: only async-signal-safe calls allowed.
    if (stopPipe_[1] >= 0) {
        const char byte = 's';
        [[maybe_unused]] const ssize_t n = ::write(stopPipe_[1], &byte, 1);
    }
}

void
Server::wait()
{
    std::unique_lock<std::mutex> lock(stateMutex_);
    stopCv_.wait(lock, [this] { return stopRequested_; });
}

void
Server::stop()
{
    if (!started_ || stopped_)
        return;
    stopped_ = true;
    requestStop();
    ioThread_.join();

    // Flush and close the journal: a computation that outlives the
    // drain (its waiter hit its deadline and is gone) completes
    // memory-only — append-after-close is a no-op.  Releasing the
    // store locks here, not at destruction, lets a successor daemon
    // take the store as soon as the socket paths free.
    if (store_ != nullptr)
        store_->close();

    closeListeners();
    ::close(epollFd_);
    epollFd_ = -1;
    ::close(notifyFd_);
    notifyFd_ = -1;
    ::close(stopPipe_[0]);
    ::close(stopPipe_[1]);
    stopPipe_[0] = stopPipe_[1] = -1;
}

void
Server::installSignalHandlers(Server *server)
{
    g_signalServer = server;
    struct sigaction sa{};
    sa.sa_handler = server != nullptr ? serveSignalHandler : SIG_DFL;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    if (server != nullptr)
        ::signal(SIGPIPE, SIG_IGN);
}

void
Server::beginDrain()
{
    if (draining_)
        return;
    draining_ = true;
    // Stop accepting (the fds stay open — and Unix paths stay linked —
    // until stop(), so a starting daemon cannot mistake a draining one
    // for dead) and stop reading from every connection; what is
    // in-flight answers and flushes, then the loop closes everything.
    for (const int fd : listenFds_)
        if (fd >= 0)
            ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
    for (auto &[id, conn] : conns_) {
        ::shutdown(conn->fd, SHUT_RD);
        updateEpollInterest(*conn);
    }
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

int
Server::epollTimeoutMs(Clock::time_point now) const
{
    if (deadlines_.empty())
        return -1;
    const auto next = deadlines_.top().first;
    if (next <= now)
        return 0;
    const auto ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
            .count();
    return static_cast<int>(std::min<long long>(ms + 1, 60'000));
}

void
Server::ioLoop()
{
    std::vector<epoll_event> events(256);
    for (;;) {
        const int timeout = epollTimeoutMs(Clock::now());
        const int ready = ::epoll_wait(epollFd_, events.data(),
                                       static_cast<int>(events.size()),
                                       timeout);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            warn("hpe_serve epoll_wait(): {}", std::strerror(errno));
            break;
        }
        for (int i = 0; i < ready; ++i) {
            const std::uint64_t tag = events[i].data.u64;
            const std::uint32_t ev = events[i].events;
            if (tag == kStopTag) {
                char drain[64];
                while (::read(stopPipe_[0], drain, sizeof drain) > 0) {}
                beginDrain();
                continue;
            }
            if (tag == kNotifyTag) {
                std::uint64_t count = 0;
                [[maybe_unused]] const ssize_t n =
                    ::read(notifyFd_, &count, sizeof count);
                deliverCompletions();
                continue;
            }
            if ((tag & kControlBit) != 0) {
                if (!draining_)
                    acceptFrom(listenFds_[tag - kListenTagBase]);
                continue;
            }
            const auto it = conns_.find(tag);
            if (it == conns_.end())
                continue; // closed earlier this batch
            Connection &conn = *it->second;
            bool alive = true;
            if ((ev & EPOLLIN) != 0)
                alive = handleReadable(conn);
            if (alive && (ev & EPOLLOUT) != 0)
                alive = handleWritable(conn);
            if (alive && (ev & (EPOLLERR | EPOLLHUP)) != 0
                && (ev & EPOLLIN) == 0 && conn.wbuf.empty()
                && !conn.awaiting)
                alive = false;
            if (!alive)
                closeConn(tag);
        }
        deliverCompletions();
        expireDeadlines(Clock::now());
        sweepClosable();
        if (draining_ && conns_.empty())
            break;
    }
    // Normal exit leaves conns_ empty; a fatal epoll error may not.
    while (!conns_.empty())
        closeConn(conns_.begin()->first);
    {
        std::lock_guard<std::mutex> lock(stateMutex_);
        stopRequested_ = true;
    }
    stopCv_.notify_all();
}

void
Server::acceptFrom(int listenFd)
{
    for (;;) {
        const int fd = ::accept4(listenFd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK
                && errno != ECONNABORTED)
                warn("hpe_serve accept(): {}", std::strerror(errno));
            return;
        }
        ++connectionsTotal_;
        auto conn = std::make_unique<Connection>();
        conn->id = nextConnId_++;
        conn->fd = fd;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.u64 = conn->id;
        if (::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
            warn("hpe_serve epoll add: {}", std::strerror(errno));
            ::close(fd);
            continue;
        }
        conns_.emplace(conn->id, std::move(conn));
    }
}

bool
Server::handleReadable(Connection &conn)
{
    char chunk[16384];
    while (!conn.closing) {
        const ssize_t n = ::recv(conn.fd, chunk, sizeof chunk, 0);
        if (n > 0) {
            conn.rbuf.append(chunk, static_cast<std::size_t>(n));
            // An oversized line turns into an error + close inside
            // processLines; check between reads so an endless stream
            // of newline-free bytes cannot grow the buffer unbounded.
            if (conn.rbuf.size() > cfg_.maxLineBytes
                && conn.rbuf.find('\n') == std::string::npos)
                break;
            continue;
        }
        if (n == 0) {
            // Half-close: the peer is done sending.  Whatever complete
            // lines are buffered (and the response still in flight)
            // are answered and flushed before the close.
            conn.closing = true;
            updateEpollInterest(conn);
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        return false; // reset or worse: nothing left to salvage
    }
    return processLines(conn);
}

bool
Server::processLines(Connection &conn)
{
    while (!conn.awaiting) {
        const std::size_t newline = conn.rbuf.find('\n');
        if (newline == std::string::npos) {
            if (conn.rbuf.size() > cfg_.maxLineBytes && !conn.closing) {
                ++errors_;
                enqueueResponse(
                    conn,
                    errorResponse(
                        protocol::kErrOversized,
                        strformat("request line exceeds {} bytes",
                                  cfg_.maxLineBytes)));
                conn.rbuf.clear();
                conn.closing = true;
                ::shutdown(conn.fd, SHUT_RD);
                updateEpollInterest(conn);
            }
            return true;
        }
        const std::string line = conn.rbuf.substr(0, newline);
        conn.rbuf.erase(0, newline + 1);
        if (line.empty())
            continue;
        handleLine(conn, line);
    }
    return true;
}

bool
Server::flushWrite(Connection &conn)
{
    while (conn.woff < conn.wbuf.size()) {
        const ssize_t n = ::send(conn.fd, conn.wbuf.data() + conn.woff,
                                 conn.wbuf.size() - conn.woff, MSG_NOSIGNAL);
        if (n > 0) {
            conn.woff += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
            break;
        // Broken peer: drop the buffered response, close at the sweep.
        conn.wbuf.clear();
        conn.woff = 0;
        conn.closing = true;
        break;
    }
    if (conn.woff == conn.wbuf.size()) {
        conn.wbuf.clear();
        conn.woff = 0;
    } else if (conn.woff > 65536) {
        conn.wbuf.erase(0, conn.woff);
        conn.woff = 0;
    }
    updateEpollInterest(conn);
    return true;
}

void
Server::enqueueResponse(Connection &conn, const std::string &line)
{
    conn.wbuf += line;
    conn.wbuf += '\n';
    flushWrite(conn);
}

bool
Server::handleWritable(Connection &conn)
{
    return flushWrite(conn);
}

void
Server::updateEpollInterest(Connection &conn)
{
    std::uint32_t mask = 0;
    if (!conn.closing && !draining_)
        mask |= EPOLLIN;
    if (conn.woff < conn.wbuf.size())
        mask |= EPOLLOUT;
    conn.wantWrite = (mask & EPOLLOUT) != 0;
    epoll_event ev{};
    ev.events = mask;
    ev.data.u64 = conn.id;
    ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void
Server::closeConn(std::uint64_t id)
{
    const auto it = conns_.find(id);
    if (it == conns_.end())
        return;
    ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, it->second->fd, nullptr);
    ::close(it->second->fd);
    conns_.erase(it);
}

void
Server::sweepClosable()
{
    for (auto it = conns_.begin(); it != conns_.end();) {
        Connection &conn = *it->second;
        const bool drainable = conn.closing || draining_;
        if (drainable && !conn.awaiting && conn.wbuf.empty()) {
            const std::uint64_t id = it->first;
            ++it;
            closeConn(id);
        } else {
            ++it;
        }
    }
}

void
Server::pushCompletion(std::uint64_t connId, std::string line)
{
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        done_.emplace_back(connId, std::move(line));
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(notifyFd_, &one, sizeof one);
}

void
Server::deliverCompletions()
{
    std::vector<std::pair<std::uint64_t, std::string>> batch;
    {
        std::lock_guard<std::mutex> lock(doneMutex_);
        batch.swap(done_);
    }
    for (auto &[connId, line] : batch) {
        const auto it = conns_.find(connId);
        if (it == conns_.end())
            continue; // the client vanished mid-request; drop quietly
        Connection &conn = *it->second;
        conn.awaiting = false;
        enqueueResponse(conn, line);
        processLines(conn);
    }
}

void
Server::expireDeadlines(Clock::time_point now)
{
    while (!deadlines_.empty() && deadlines_.top().first <= now) {
        const TicketPtr ticket = deadlines_.top().second;
        deadlines_.pop();
        if (ticket->answered.exchange(true))
            continue; // the computation won the race
        if (!ticket->coalesced)
            --outstanding_;
        ++errors_;
        const std::string response = errorResponse(
            protocol::kErrDeadline,
            strformat("deadline exceeded after {}ms (the computation "
                      "continues; retry to pick it up from the cache)",
                      ticket->deadlineMs),
            ticket->deadlineMs, ticket->id);
        const auto it = conns_.find(ticket->connId);
        if (it == conns_.end())
            continue;
        Connection &conn = *it->second;
        conn.awaiting = false;
        enqueueResponse(conn, response);
        processLines(conn);
    }
}

void
Server::handleLine(Connection &conn, const std::string &line)
{
    api::json::ParseError perr;
    const auto envelope = api::json::parse(line, &perr);
    if (!envelope.has_value()) {
        ++errors_;
        enqueueResponse(
            conn, errorResponse(
                      protocol::kErrParse,
                      strformat("request parse error at byte {}: {}",
                                perr.offset, perr.message)));
        return;
    }
    if (!envelope->isObject()) {
        ++errors_;
        enqueueResponse(conn,
                        errorResponse(protocol::kErrBadRequest,
                                      "request must be a JSON object"));
        return;
    }

    // Only the exact integer 2 passes: a fraction or a huge double must
    // not be cast onto it.
    std::string versionError;
    const Value *v = envelope->find("v");
    const auto integerIs = [v](std::uint64_t version) {
        return v->kind() == Value::Kind::Uint && v->asUint() == version;
    };
    if (v == nullptr || integerIs(1))
        versionError = "protocol v1 (no \"v\", or \"v\":1) is retired; "
                       "send \"v\":2";
    else if (!v->isNumber())
        versionError = "field 'v' must be a number";
    else if (!integerIs(protocol::kVersionCurrent))
        versionError = strformat("unsupported protocol version {} "
                                 "(supported: {})",
                                 v->dump(), protocol::kVersionCurrent);
    if (!versionError.empty()) {
        ++errors_;
        enqueueResponse(conn, errorResponse(protocol::kErrUnsupportedVersion,
                                            versionError, std::nullopt,
                                            envelopeId(*envelope)));
        return;
    }

    std::string type = "run";
    if (const Value *t = envelope->find("type"); t != nullptr) {
        if (!t->isString()) {
            ++errors_;
            enqueueResponse(conn, errorResponse(
                                      protocol::kErrBadRequest,
                                      "field 'type' must be a string",
                                      std::nullopt, envelopeId(*envelope)));
            return;
        }
        type = t->asString();
    }

    if (type == "run") {
        handleRun(conn, *envelope);
        return;
    }
    if (type == "stats") {
        Object response{{"ok", true},
                        {"type", "stats"},
                        {"v", protocol::kVersionCurrent}};
        echoId(*envelope, response);
        api::json::ParseError ignored;
        response.emplace("stats", *api::json::parse(statsJson(), &ignored));
        ++served_;
        enqueueResponse(conn, Value(std::move(response)).dump());
        return;
    }
    if (type == "ping") {
        Object response{{"ok", true},
                        {"type", "pong"},
                        {"v", protocol::kVersionCurrent}};
        echoId(*envelope, response);
        ++served_;
        enqueueResponse(conn, Value(std::move(response)).dump());
        return;
    }
    if (type == "shutdown") {
        Object response{{"ok", true},
                        {"type", "shutting_down"},
                        {"v", protocol::kVersionCurrent}};
        echoId(*envelope, response);
        ++served_;
        // Response first: it sits in the write buffer and the drain
        // flushes it before the connection closes.
        enqueueResponse(conn, Value(std::move(response)).dump());
        requestStop();
        return;
    }
    ++errors_;
    enqueueResponse(
        conn, errorResponse(
                  protocol::kErrUnknownType,
                  strformat("unknown request type '{}' (valid: run, stats, "
                            "ping, shutdown)",
                            type),
                  std::nullopt, envelopeId(*envelope)));
}

void
Server::handleRun(Connection &conn, const Value &envelope)
{
    // Empty "request" = the default experiment, like a bare `hpe_sim run`.
    Value requestJson{Object{}};
    if (const Value *r = envelope.find("request"); r != nullptr)
        requestJson = *r;
    std::string error;
    const auto req = api::ExperimentRequest::fromJson(requestJson, error);
    if (!req.has_value()) {
        ++errors_;
        enqueueResponse(conn, errorResponse(protocol::kErrBadRequest,
                                            "invalid request: " + error,
                                            std::nullopt,
                                            envelopeId(envelope)));
        return;
    }

    std::uint64_t deadlineMs = cfg_.defaultDeadlineMs;
    if (const Value *d = envelope.find("deadline_ms"); d != nullptr) {
        if (!d->isNumber()) {
            ++errors_;
            enqueueResponse(conn, errorResponse(
                                      protocol::kErrBadRequest,
                                      "field 'deadline_ms' must be a number",
                                      std::nullopt, envelopeId(envelope)));
            return;
        }
        deadlineMs = d->asUint();
    }

    // One outstanding-request token per run request, released when the
    // request is answered: together with the shards' pending counts
    // this is the *aggregate* load depth the shed tiers key on.
    // Coalesced waiters drop theirs as soon as they park — they hold
    // no worker, so a herd sharing one slow computation is not load —
    // and one saturated shard only ever sheds its own cold traffic.
    ++outstanding_;
    const std::size_t depth = loadDepth();
    const ShedMode mode = updateShedMode(depth);
    if (mode == ShedMode::Reject) {
        ++shedRejections_;
        ++errors_;
        --outstanding_;
        enqueueResponse(
            conn,
            errorResponse(protocol::kErrShedReject,
                          strformat("shedding load (mode reject, depth {}): "
                                    "retry later",
                                    depth),
                          100 * depth, envelopeId(envelope)));
        return;
    }

    const std::string fingerprint = req->fingerprint();
    const unsigned shardIndex = ShardedResultStore::shardOf(
        fingerprint, static_cast<unsigned>(shards_.size()));
    Shard &shard = *shards_[shardIndex];
    const ResultCache::Acquisition acq =
        shard.cache.acquire(fingerprint, mode == ShedMode::Full);

    if (acq.role == ResultCache::Role::Rejected) {
        ++errors_;
        --outstanding_;
        // Hint: one average service time per queued computation ahead.
        const std::uint64_t retry = 100 * (1 + shard.cache.pending());
        if (mode == ShedMode::HitOnly) {
            ++shard.shedColdRejections;
            enqueueResponse(
                conn,
                errorResponse(protocol::kErrShedHitOnly,
                              strformat("shedding load (mode hit_only, "
                                        "depth {}): only cached and "
                                        "in-flight fingerprints are admitted",
                                        depth),
                              retry, envelopeId(envelope)));
            return;
        }
        enqueueResponse(
            conn,
            errorResponse(protocol::kErrSaturated,
                          strformat("saturated: {} computations queued or "
                                    "running on shard {}",
                                    shard.cache.pending(), shardIndex),
                          retry, envelopeId(envelope)));
        return;
    }

    auto ticket = std::make_shared<Ticket>();
    ticket->connId = conn.id;
    ticket->id = envelopeId(envelope);
    ticket->fingerprint = fingerprint;
    ticket->entry = acq.entry;
    ticket->deadlineMs = deadlineMs;

    if (acq.role == ResultCache::Role::Hit) {
        // Synchronous: the payload is ready, answer in-line.
        ticket->cached = true;
        ticket->answered.store(true);
        --outstanding_;
        enqueueResponse(conn, buildRunResponse(*ticket));
        return;
    }

    ticket->coalesced = acq.role == ResultCache::Role::Wait;
    if (ticket->coalesced)
        --outstanding_;
    conn.awaiting = true;
    if (deadlineMs > 0)
        deadlines_.emplace(Clock::now()
                               + std::chrono::milliseconds(deadlineMs),
                           ticket);

    if (acq.role == ResultCache::Role::Compute) {
        const api::ExperimentRequest run = *req;
        const ResultCache::EntryPtr entry = acq.entry;
        ResultCache *cache = &shard.cache;
        shard.pool.post([this, run, entry, fingerprint, cache] {
            ++running_;
            std::string payload;
            bool failed = false;
            try {
                payload = api::runExperiment(run).toJson().dump();
            } catch (const std::exception &e) {
                payload = strformat("experiment failed: {}", e.what());
                failed = true;
            } catch (...) {
                payload = "experiment failed";
                failed = true;
            }
            --running_;
            // Journal before publishing: a result is never visible to a
            // waiter without being durable first (write-ahead order).
            if (store_ != nullptr)
                store_->append(fingerprint, payload, failed);
            cache->complete(entry, std::move(payload), failed);
        });
    }

    // The responder: fired by complete() on the computing worker (or
    // immediately, if the entry finished between acquire and here).
    // Whoever loses the race against the deadline timer stands down.
    shard.cache.whenDone(acq.entry, [this, ticket] {
        if (ticket->answered.exchange(true))
            return;
        if (!ticket->coalesced)
            --outstanding_;
        pushCompletion(ticket->connId, buildRunResponse(*ticket));
    });
}

std::string
Server::buildRunResponse(const Ticket &ticket)
{
    if (ticket.entry->failed) {
        ++errors_;
        return errorResponse(protocol::kErrExperimentFailed,
                             ticket.entry->payload, std::nullopt, ticket.id);
    }
    Object response{{"cached", ticket.cached},
                    {"coalesced", ticket.coalesced},
                    {"fingerprint", ticket.fingerprint},
                    {"ok", true},
                    {"type", "result"},
                    {"v", protocol::kVersionCurrent}};
    if (ticket.id.has_value())
        response.emplace("id", *ticket.id);
    api::json::ParseError ignored;
    const auto result = api::json::parse(ticket.entry->payload, &ignored);
    HPE_ASSERT(result.has_value(), "cached payload is not JSON");
    response.emplace("result", *result);
    ++served_;
    return Value(std::move(response)).dump();
}

std::size_t
Server::loadDepth() const
{
    std::size_t depth = static_cast<std::size_t>(outstanding_.load());
    for (const auto &shard : shards_)
        depth += static_cast<std::size_t>(shard->cache.pending());
    return depth;
}

ShedMode
Server::updateShedMode(std::size_t depth)
{
    // Thresholds are exclusive: full service while depth <= hit-only
    // threshold.  The depth includes the current request's own
    // outstanding token, so an inclusive compare would let a
    // --max-queue=1 daemon shed every cold request even when idle.
    ShedMode mode = ShedMode::Full;
    if (depth > shedRejectDepth_)
        mode = ShedMode::Reject;
    else if (depth > shedHitOnlyDepth_)
        mode = ShedMode::HitOnly;
    const int previous = shedMode_.exchange(static_cast<int>(mode));
    if (previous != static_cast<int>(mode))
        ++shedTransitions_;
    return mode;
}

std::string
Server::statsJson()
{
    std::uint64_t hits = 0, misses = 0, coalescedCount = 0, rejected = 0,
                  entries = 0, seeded = 0, evictions = 0, pending = 0,
                  shedCold = 0;
    for (const auto &shard : shards_) {
        hits += shard->cache.hits();
        misses += shard->cache.misses();
        coalescedCount += shard->cache.coalesced();
        rejected += shard->cache.rejected();
        entries += shard->cache.size();
        seeded += shard->cache.seeded();
        evictions += shard->cache.evictions();
        pending += shard->cache.pending();
        shedCold += shard->shedColdRejections.load();
    }

    // A fresh StatRegistry per snapshot: the daemon's counters surface
    // through the same machinery every simulation stat uses, so the CSV
    // dump format (and any tooling built on it) carries over unchanged.
    // Aggregate rows keep their pre-sharding names; each shard adds its
    // own `serve.shard<i>.*` rows beside them.
    StatRegistry stats;
    stats.counter("serve.served") += served_.load();
    stats.counter("serve.errors") += errors_.load();
    stats.counter("serve.connections") += connectionsTotal_.load();
    stats.counter("serve.cache.hits") += hits;
    stats.counter("serve.cache.misses") += misses;
    stats.counter("serve.cache.coalesced") += coalescedCount;
    stats.counter("serve.cache.rejected") += rejected;
    stats.counter("serve.cache.entries") += entries;
    stats.counter("serve.cache.seeded") += seeded;
    stats.counter("serve.cache.evictions") += evictions;
    stats.counter("serve.queue.depth") += pending;
    stats.counter("serve.jobs.in_flight") += running_.load();
    stats.counter("serve.shards") += shards_.size();
    stats.counter("serve.shed.transitions") += shedTransitions_.load();
    stats.counter("serve.shed.cold_rejections") += shedCold;
    stats.counter("serve.shed.rejections") += shedRejections_.load();
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard &shard = *shards_[i];
        const std::string prefix = strformat("serve.shard{}.", i);
        stats.counter(prefix + "cache.hits") += shard.cache.hits();
        stats.counter(prefix + "cache.misses") += shard.cache.misses();
        stats.counter(prefix + "cache.coalesced") += shard.cache.coalesced();
        stats.counter(prefix + "cache.rejected") += shard.cache.rejected();
        stats.counter(prefix + "cache.entries") += shard.cache.size();
        stats.counter(prefix + "cache.seeded") += shard.cache.seeded();
        stats.counter(prefix + "cache.evictions") += shard.cache.evictions();
        stats.counter(prefix + "queue.depth") += shard.cache.pending();
        stats.counter(prefix + "shed.cold_rejections") +=
            shard.shedColdRejections.load();
        if (store_ != nullptr) {
            const ResultStore &sub = store_->shard(static_cast<unsigned>(i));
            stats.counter(prefix + "store.appends") += sub.appendCount();
            stats.counter(prefix + "store.live") += sub.liveCount();
            stats.counter(prefix + "store.segments") += sub.segmentCount();
        }
    }
    if (store_ != nullptr) {
        stats.counter("serve.store.appends") += store_->appendCount();
        stats.counter("serve.store.tombstones") += store_->tombstoneCount();
        stats.counter("serve.store.recovered") += store_->recoveredCount();
        stats.counter("serve.store.torn_truncations") +=
            store_->tornTruncations();
        stats.counter("serve.store.compactions") += store_->compactions();
        stats.counter("serve.store.segments") += store_->segmentCount();
        stats.counter("serve.store.live") += store_->liveCount();
        stats.counter("serve.store.migrated") += store_->migratedRecords();
    }
    std::ostringstream csv;
    stats.dumpCsv(csv);

    api::json::Array shardArray;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
        const Shard &shard = *shards_[i];
        Object entry{
            {"cache_entries", shard.cache.size()},
            {"cache_evictions", shard.cache.evictions()},
            {"cache_hits", shard.cache.hits()},
            {"cache_misses", shard.cache.misses()},
            {"cache_seeded", shard.cache.seeded()},
            {"coalesced", shard.cache.coalesced()},
            {"queue_depth", shard.cache.pending()},
            {"rejected", shard.cache.rejected()},
            {"shard", static_cast<std::uint64_t>(i)},
            {"shed_cold_rejections", shard.shedColdRejections.load()},
        };
        if (store_ != nullptr) {
            ResultStore &sub = store_->shard(static_cast<unsigned>(i));
            entry.emplace("store",
                          Object{
                              {"appends", sub.appendCount()},
                              {"live", sub.liveCount()},
                              {"segments", sub.segmentCount()},
                              {"tombstones", sub.tombstoneCount()},
                              {"torn_truncations", sub.tornTruncations()},
                          });
        }
        shardArray.emplace_back(std::move(entry));
    }

    api::json::Array endpointArray;
    for (const std::string &spelling : boundEndpoints_)
        endpointArray.emplace_back(spelling);

    Object body{
        {"cache_entries", entries},
        {"cache_evictions", evictions},
        {"cache_hits", hits},
        {"cache_misses", misses},
        {"cache_seeded", seeded},
        {"coalesced", coalescedCount},
        {"connections", connectionsTotal_.load()},
        {"endpoints", std::move(endpointArray)},
        {"errors", errors_.load()},
        {"in_flight", running_.load()},
        {"jobs", jobsTotal_},
        {"outstanding", outstanding_.load()},
        {"queue_depth", pending},
        {"rejected", rejected},
        {"served", served_.load()},
        {"shard_count", static_cast<std::uint64_t>(shards_.size())},
        {"shards", std::move(shardArray)},
        {"shed_cold_rejections", shedCold},
        {"shed_hit_only_depth", static_cast<std::uint64_t>(shedHitOnlyDepth_)},
        {"shed_mode", shedModeName(shedMode())},
        {"shed_reject_depth", static_cast<std::uint64_t>(shedRejectDepth_)},
        {"shed_rejections", shedRejections_.load()},
        {"shed_transitions", shedTransitions_.load()},
        {"stats_csv", std::move(csv).str()},
    };
    if (store_ != nullptr)
        body.emplace("store",
                     Object{
                         {"appends", store_->appendCount()},
                         {"compactions", store_->compactions()},
                         {"dir", cfg_.storeDir},
                         {"healthy", store_->healthy()},
                         {"live", store_->liveCount()},
                         {"migrated", store_->migratedRecords()},
                         {"recovered", store_->recoveredCount()},
                         {"segments", store_->segmentCount()},
                         {"shards", store_->shards()},
                         {"tombstones", store_->tombstoneCount()},
                         {"torn_truncations", store_->tornTruncations()},
                     });
    return Value(std::move(body)).dump();
}

} // namespace hpe::serve
