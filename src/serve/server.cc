#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "api/codec.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lemons::serve {

namespace {

/** Listener pause after accept() runs out of descriptors. */
constexpr std::chrono::milliseconds kAcceptBackoff{10};

/** How often waitDrained() re-checks while requests remain. */
constexpr std::chrono::milliseconds kDrainPoll{20};

/** epoll tags of the two descriptors that are not connections
 *  (Server::nextId starts above them). */
constexpr uint64_t kListenTag = 0;
constexpr uint64_t kWakeTag = 1;

/** Bytes asked of one recv(). */
constexpr size_t kReadChunk = 16384;

/** Envelope carrying exactly one S-code diagnostic. */
std::string
errorEnvelope(lint::Code code, const std::string &message,
              const std::string &hint = "")
{
    lint::Report report;
    report.add(code, "request", "", message, hint);
    return api::renderEnvelope(report);
}

/** Bump the serve.responses.<class> counter for @p status. */
void
countResponse(int status)
{
    LEMONS_OBS_INCREMENT("serve.responses");
    if (status < 300)
        LEMONS_OBS_INCREMENT("serve.responses.2xx");
    else if (status < 500)
        LEMONS_OBS_INCREMENT("serve.responses.4xx");
    else
        LEMONS_OBS_INCREMENT("serve.responses.5xx");
}

/** (Re-)arm @p fd for one readiness event tagged @p tag. */
bool
arm(int epollFd, int fd, int op, uint32_t events, uint64_t tag)
{
    epoll_event event{};
    event.events = events | EPOLLONESHOT;
    event.data.u64 = tag;
    return ::epoll_ctl(epollFd, op, fd, &event) == 0;
}

/**
 * Close a client socket. FIN goes out first and input that already
 * arrived is discarded, so unread request bytes cannot turn the close
 * into a reset that destroys a response still in flight.
 */
void
closeSocket(int fd)
{
    ::shutdown(fd, SHUT_WR);
    char sink[4096];
    for (int i = 0; i < 16 && ::recv(fd, sink, sizeof(sink), 0) > 0; ++i) {
    }
    ::close(fd);
}

} // namespace

/** One client socket and the request on it. */
struct Server::Connection
{
    Connection(uint64_t tag, int socket, const HttpLimits &limits)
        : id(tag), fd(socket), parser(limits)
    {
    }

    const uint64_t id;
    const int fd;
    RequestParser parser;
    /** Rendered response, sent up to outSent. */
    std::string out;
    size_t outSent = 0;
    /** Close once `out` is written (the response said so). */
    bool closeAfterWrite = false;
    /** Responses queued so far. */
    uint64_t served = 0;
    /** Read, idle or write deadline. Only the owner writes it;
     *  sweep() reads it under mu while no loop owns the connection. */
    Clock::time_point deadline;
    // Guarded by Server::mu.
    bool owned = false;
    bool inflight = false;
};

Server::Server(ServerOptions options)
    : opts(std::move(options)), quota(opts.quota)
{
}

Server::~Server()
{
    stop();
}

bool
Server::start(std::string *error)
{
    const auto failWith = [&](const char *what) {
        if (error != nullptr) {
            std::ostringstream out;
            out << what << ": " << std::strerror(errno);
            *error = out.str();
        }
        for (int *fd : {&listenFd, &epollFd, &wakeFd}) {
            if (*fd >= 0)
                ::close(*fd);
            *fd = -1;
        }
        return false;
    };

    listenFd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                        0);
    if (listenFd < 0)
        return failWith("socket");

    const int enable = 1;
    setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &enable,
               sizeof(enable));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(opts.port);
    if (::inet_pton(AF_INET, opts.address.c_str(), &addr.sin_addr) != 1) {
        errno = EINVAL;
        return failWith("inet_pton");
    }
    if (::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0)
        return failWith("bind");
    if (::listen(listenFd, 64) != 0)
        return failWith("listen");

    sockaddr_in bound{};
    socklen_t boundLen = sizeof(bound);
    if (::getsockname(listenFd, reinterpret_cast<sockaddr *>(&bound),
                      &boundLen) != 0)
        return failWith("getsockname");
    listenPort = ntohs(bound.sin_port);

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    if (epollFd < 0)
        return failWith("epoll_create1");
    wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (wakeFd < 0)
        return failWith("eventfd");
    if (!arm(epollFd, listenFd, EPOLL_CTL_ADD, EPOLLIN, kListenTag) ||
        !arm(epollFd, wakeFd, EPOLL_CTL_ADD, EPOLLIN, kWakeTag))
        return failWith("epoll_ctl");

    const unsigned count = std::max(1u, opts.workers);
    loops.reserve(count);
    for (unsigned i = 0; i < count; ++i) {
        // The loops sleep in epoll_wait between requests, which would
        // idle a pool worker; they are the server's own threads.
        // LEMONS-TIDY-ALLOW(T001)
        loops.emplace_back([this] { loop(); });
    }
    return true;
}

void
Server::loop()
{
    for (;;) {
        epoll_event event{};
        // One event per wait: handlers run inline, so a second event
        // taken here would queue behind this thread's handler while
        // another loop may be idle.
        if (::epoll_wait(epollFd, &event, 1, waitMillis()) == 1) {
            if (event.data.u64 == kListenTag) {
                acceptPending();
            } else if (event.data.u64 == kWakeTag) {
                if (stopping.load(std::memory_order_acquire)) {
                    // The counter stays set, so the re-armed eventfd
                    // stops the next loop as well.
                    arm(epollFd, wakeFd, EPOLL_CTL_MOD, EPOLLIN, kWakeTag);
                    return;
                }
                uint64_t count = 0;
                static_cast<void>(::read(wakeFd, &count, sizeof(count)));
                sweep();
                arm(epollFd, wakeFd, EPOLL_CTL_MOD, EPOLLIN, kWakeTag);
                continue;
            } else if (Connection *conn = claim(event.data.u64)) {
                serve(*conn);
            }
        }
        if (Clock::now().time_since_epoch().count() >= wakeAt.load())
            sweep();
    }
}

int
Server::waitMillis() const
{
    const Clock::rep at = wakeAt.load();
    if (at == Clock::time_point::max().time_since_epoch().count())
        return -1;
    const Clock::duration left =
        Clock::duration(at) - Clock::now().time_since_epoch();
    if (left <= Clock::duration::zero())
        return 0;
    const auto millis =
        std::chrono::ceil<std::chrono::milliseconds>(left).count();
    return millis > INT_MAX ? INT_MAX : static_cast<int>(millis);
}

void
Server::wakeBy(Clock::time_point when)
{
    const Clock::rep at = when.time_since_epoch().count();
    if (at >= wakeAt.load())
        return;
    wakeAt.store(at);
    // A loop may be sleeping toward the later time while this one
    // goes on to run a long handler.
    wake();
}

void
Server::wake()
{
    const uint64_t one = 1;
    static_cast<void>(::write(wakeFd, &one, sizeof(one)));
}

void
Server::acceptPending()
{
    while (!draining()) {
        const int fd = ::accept4(listenFd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd >= 0) {
            LEMONS_OBS_INCREMENT("serve.accepted");
            admit(fd);
            continue;
        }
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        if (errno == EINTR)
            continue;
        LEMONS_OBS_INCREMENT("serve.accept_errors");
        if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
            errno == ENOMEM) {
            // Out of descriptors (or kernel memory): the pending
            // connection stays queued and would fire again at once.
            // Leave the listener disarmed for sweep() to re-arm after
            // a pause instead of spinning a core until one frees up.
            const std::lock_guard<std::mutex> lock(mu);
            listenRetry = Clock::now() + kAcceptBackoff;
            wakeBy(listenRetry);
            return;
        }
    }
    // Draining leaves the listener disarmed for good.
    if (!draining())
        arm(epollFd, listenFd, EPOLL_CTL_MOD, EPOLLIN, kListenTag);
}

void
Server::admit(int fd)
{
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    std::unique_lock<std::mutex> lock(mu);
    if (connections.size() >= opts.maxInflight) {
        lock.unlock();
        // Shed load without reading the request: the table is full.
        LEMONS_OBS_INCREMENT("serve.rejected.queue");
        HttpResponse response;
        response.status = 503;
        response.body = errorEnvelope(
            lint::Code::S009, "admission queue is full; retry shortly");
        response.headers.emplace_back("Retry-After", "1");
        countResponse(response.status);
        const std::string rendered = renderResponse(response);
        static_cast<void>(::send(fd, rendered.data(), rendered.size(),
                                 MSG_NOSIGNAL));
        closeSocket(fd);
        return;
    }
    const uint64_t id = nextId++;
    auto owner = std::make_unique<Connection>(id, fd, opts.http);
    Connection &conn = *owner;
    conn.deadline = Clock::now() + opts.socketTimeout;
    connections.emplace(id, std::move(owner));
    setInflight(conn, true);
    wakeBy(conn.deadline);
    // Registered under mu, so sweep() cannot close it first.
    arm(epollFd, fd, EPOLL_CTL_ADD, EPOLLIN, id);
}

Server::Connection *
Server::claim(uint64_t id)
{
    const std::lock_guard<std::mutex> lock(mu);
    const auto found = connections.find(id);
    // Gone (closed after the event was queued) or taken by sweep().
    if (found == connections.end() || found->second->owned)
        return nullptr;
    Connection &conn = *found->second;
    conn.owned = true;
    setInflight(conn, true);
    return &conn;
}

void
Server::serve(Connection &conn)
{
    char chunk[kReadChunk];
    for (;;) {
        while (conn.outSent < conn.out.size()) {
            const ssize_t wrote =
                ::send(conn.fd, conn.out.data() + conn.outSent,
                       conn.out.size() - conn.outSent, MSG_NOSIGNAL);
            if (wrote > 0) {
                conn.outSent += static_cast<size_t>(wrote);
            } else if (wrote < 0 && errno == EINTR) {
                continue;
            } else if (wrote < 0 &&
                       (errno == EAGAIN || errno == EWOULDBLOCK)) {
                park(conn, EPOLLOUT);
                return;
            } else {
                close(conn); // peer gone
                return;
            }
        }
        if (!conn.out.empty()) {
            conn.out.clear();
            conn.outSent = 0;
            if (conn.closeAfterWrite) {
                close(conn);
                return;
            }
            // The next request's deadline starts now.
            conn.deadline = Clock::now() + opts.socketTimeout;
            conn.parser.next();
            if (conn.parser.idle()) {
                park(conn, EPOLLIN);
                return;
            }
        }

        if (conn.parser.complete() || conn.parser.failed()) {
            respond(conn);
            continue;
        }

        const ssize_t got = ::recv(conn.fd, chunk, sizeof(chunk), 0);
        if (got > 0) {
            LEMONS_OBS_COUNT("serve.bytes_in", static_cast<uint64_t>(got));
            conn.parser.feed(
                std::string_view(chunk, static_cast<size_t>(got)));
            // A short read emptied the socket: wait for the rest
            // instead of asking again.
            if (static_cast<size_t>(got) < sizeof(chunk) &&
                !conn.parser.complete() && !conn.parser.failed()) {
                park(conn, EPOLLIN);
                return;
            }
        } else if (got == 0) {
            if (conn.parser.idle()) {
                close(conn); // peer done between requests
                return;
            }
            conn.parser.finish();
        } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
            park(conn, EPOLLIN);
            return;
        } else if (errno != EINTR) {
            close(conn);
            return;
        }
    }
}

void
Server::respond(Connection &conn)
{
    LEMONS_OBS_SCOPED_TIMER("serve.request");
    HttpResponse response;
    if (conn.parser.failed()) {
        LEMONS_OBS_INCREMENT("serve.rejected.malformed");
        response.status = conn.parser.errorStatus();
        response.body = errorEnvelope(conn.parser.errorCode(),
                                      conn.parser.errorMessage());
    } else {
        if (conn.served > 0)
            LEMONS_OBS_INCREMENT("serve.connections.reused");
        const HttpRequest &request = conn.parser.request();
        response = route(request);
        // Every response sent during a drain closes its connection.
        response.keepAlive = keepAlive(request) && !draining();
    }
    queue(conn, response);
}

void
Server::queue(Connection &conn, const HttpResponse &response)
{
    countResponse(response.status);
    conn.out = renderResponse(response);
    conn.outSent = 0;
    LEMONS_OBS_COUNT("serve.bytes_out",
                     static_cast<uint64_t>(conn.out.size()));
    conn.closeAfterWrite = !response.keepAlive;
    conn.deadline = Clock::now() + opts.socketTimeout;
    ++conn.served;
}

void
Server::park(Connection &conn, uint32_t events)
{
    std::unique_lock<std::mutex> lock(mu);
    const bool busy =
        conn.served == 0 || !conn.parser.idle() || !conn.out.empty();
    if (!busy && draining()) {
        lock.unlock();
        close(conn);
        return;
    }
    setInflight(conn, busy);
    conn.owned = false;
    wakeBy(conn.deadline);
    // Re-armed under mu, so sweep() cannot close it first.
    arm(epollFd, conn.fd, EPOLL_CTL_MOD, events, conn.id);
}

void
Server::close(Connection &conn)
{
    std::unique_ptr<Connection> gone;
    {
        const std::lock_guard<std::mutex> lock(mu);
        setInflight(conn, false);
        const auto found = connections.find(conn.id);
        gone = std::move(found->second);
        connections.erase(found);
    }
    closeSocket(gone->fd);
}

void
Server::sweep()
{
    const Clock::time_point now = Clock::now();
    const bool drain = draining();
    std::vector<Connection *> taken;
    {
        const std::lock_guard<std::mutex> lock(mu);
        if (listenRetry <= now) {
            listenRetry = Clock::time_point::max();
            if (!drain)
                arm(epollFd, listenFd, EPOLL_CTL_MOD, EPOLLIN, kListenTag);
        }
        Clock::time_point next = listenRetry;
        for (const auto &[id, conn] : connections) {
            if (conn->owned)
                continue;
            if (conn->deadline <= now || (drain && !conn->inflight)) {
                conn->owned = true;
                taken.push_back(conn.get());
            } else {
                next = std::min(next, conn->deadline);
            }
        }
        wakeAt.store(next.time_since_epoch().count());
    }

    for (Connection *conn : taken) {
        // An incomplete request is answered; an idle connection is
        // closed silently and a stalled write abandoned.
        if (conn->deadline <= now) {
            LEMONS_OBS_INCREMENT("serve.deadline_expired");
            if (conn->inflight && conn->out.empty()) {
                HttpResponse response;
                response.status = 400;
                response.body = errorEnvelope(lint::Code::S006,
                                              "request never completed");
                queue(*conn, response);
                // One attempt: the deadline has passed.
                static_cast<void>(::send(conn->fd, conn->out.data(),
                                         conn->out.size(), MSG_NOSIGNAL));
            }
        }
        close(*conn);
    }
}

void
Server::setInflight(Connection &conn, bool busy)
{
    if (conn.inflight == busy)
        return;
    conn.inflight = busy;
    if (busy)
        ++inflightCount;
    else if (--inflightCount == 0)
        idle.notify_all();
}

size_t
Server::inflight() const
{
    const std::lock_guard<std::mutex> lock(mu);
    return inflightCount;
}

HttpResponse
Server::route(const HttpRequest &request)
{
    HttpResponse response;
    try {
        LEMONS_OBS_INCREMENT("serve.requests");

        // Drain check happens per-request: a request that arrives on
        // an open connection after beginDrain() gets a clean 503.
        if (draining() && request.target != "/v1/healthz" &&
            request.target != "/metrics") {
            LEMONS_OBS_INCREMENT("serve.rejected.drain");
            response.status = 503;
            response.body = errorEnvelope(
                lint::Code::S008,
                "server is draining: new requests refused");
            return response;
        }

        const bool isGet = request.method == "GET";
        const bool isPost = request.method == "POST";
        const auto methodNotAllowed = [&](const char *allow) {
            response.status = 405;
            response.headers.emplace_back("Allow", allow);
            response.body = errorEnvelope(
                lint::Code::S004,
                request.method + " is not allowed on " + request.target,
                std::string("use ") + allow);
        };

        if (request.target == "/v1/healthz") {
            if (!isGet) {
                methodNotAllowed("GET");
                return response;
            }
            lint::Report empty;
            const bool drainingNow = draining();
            response.body = api::renderEnvelope(
                empty, [drainingNow](obs::JsonWriter &json) {
                    json.beginObject();
                    json.key("status");
                    json.value(drainingNow ? "draining" : "serving");
                    json.endObject();
                });
            return response;
        }

        if (request.target == "/metrics") {
            if (!isGet) {
                methodNotAllowed("GET");
                return response;
            }
            response.contentType =
                "text/plain; version=0.0.4; charset=utf-8";
            response.body = obs::Registry::global().toPrometheus();
            return response;
        }

        const bool knownPost = request.target == "/v1/solve" ||
            request.target == "/v1/lint" ||
            request.target == "/v1/verify" ||
            request.target == "/v1/analyze" ||
            request.target == "/v1/mc/run";
        if (!knownPost) {
            response.status = 404;
            response.body = errorEnvelope(
                lint::Code::S003,
                "no endpoint at \"" + request.target + "\"",
                "known endpoints: /v1/solve /v1/lint /v1/verify "
                "/v1/analyze /v1/mc/run /v1/healthz /metrics");
            return response;
        }
        if (!isPost) {
            methodNotAllowed("POST");
            return response;
        }

        // Per-tenant quota, keyed on the cooperative tenant header.
        const std::string *tenantHeader =
            request.header("x-lemons-tenant");
        const std::string tenant =
            tenantHeader != nullptr ? *tenantHeader : std::string();
        const TenantQuota::Decision decision = quota.admit(tenant);
        if (!decision.admitted) {
            LEMONS_OBS_INCREMENT("serve.rejected.quota");
            response.status = 429;
            const long waitSeconds = std::lround(
                std::ceil(decision.retryAfterSeconds));
            response.headers.emplace_back(
                "Retry-After",
                std::to_string(waitSeconds < 1 ? 1 : waitSeconds));
            response.body = errorEnvelope(
                lint::Code::S007,
                "request quota exhausted for tenant \"" + tenant + "\"",
                "retry after the Retry-After interval, or spread "
                "load across tenants");
            return response;
        }

        api::ServiceResult result;
        if (request.target == "/v1/solve") {
            result = service.solve(request.body);
        } else if (request.target == "/v1/lint") {
            result = service.lint(request.body);
        } else if (request.target == "/v1/verify") {
            result = service.verify(request.body);
        } else if (request.target == "/v1/analyze") {
            result = service.analyze(request.body);
        } else {
            api::McExecution exec;
            exec.cancel = &drainCancel;
            exec.deadline =
                std::chrono::steady_clock::now() + opts.mcDeadline;
            result = service.mcRun(request.body, exec);
        }
        response.status = result.status;
        response.body = std::move(result.body);
        return response;
    } catch (const std::exception &fault) {
        LEMONS_OBS_INCREMENT("serve.errors.internal");
        response.status = 500;
        response.headers.clear();
        response.body = errorEnvelope(
            lint::Code::S012,
            std::string("internal error: ") + fault.what());
        return response;
    } catch (...) {
        LEMONS_OBS_INCREMENT("serve.errors.internal");
        response.status = 500;
        response.headers.clear();
        response.body =
            errorEnvelope(lint::Code::S012, "internal error");
        return response;
    }
}

void
Server::beginDrain()
{
    drainRequested.store(true, std::memory_order_release);
    if (wakeFd >= 0)
        wake(); // a loop closes the idle connections
}

bool
Server::waitDrained(const std::function<bool()> &abandon)
{
    beginDrain();
    const auto drained = [this] { return inflightCount == 0; };
    const auto graceEnd = std::chrono::steady_clock::now() + opts.drainGrace;
    bool cancelled = false;
    std::unique_lock<std::mutex> lock(mu);
    while (!drained()) {
        if (abandon && abandon())
            return false;
        const auto now = std::chrono::steady_clock::now();
        if (!cancelled && now >= graceEnd) {
            // Grace expired: stop in-flight Monte Carlo runs at their
            // next wave boundary. Handlers still produce well-formed
            // (partial, interrupted-flagged) responses.
            LEMONS_OBS_INCREMENT("serve.drain.cancelled");
            drainCancel.cancel();
            cancelled = true;
        }
        const auto poll = now + kDrainPoll;
        idle.wait_until(lock, cancelled ? poll : std::min(poll, graceEnd),
                        drained);
    }
    return true;
}

void
Server::stop()
{
    if (loops.empty())
        return;
    waitDrained();
    stopping.store(true, std::memory_order_release);
    wake();
    for (std::thread &thread : loops)
        thread.join();
    loops.clear();
    {
        // Only a connection accepted as the drain began can be left.
        const std::lock_guard<std::mutex> lock(mu);
        for (const auto &[id, conn] : connections)
            ::close(conn->fd);
        connections.clear();
        inflightCount = 0;
    }
    for (int *fd : {&listenFd, &epollFd, &wakeFd}) {
        ::close(*fd);
        *fd = -1;
    }
}

} // namespace lemons::serve
