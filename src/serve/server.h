/**
 * @file
 * lemonsd — the lemons designs-as-a-service HTTP server.
 *
 * `workers` event-loop threads share one epoll set that holds the
 * listening socket and every client socket, all non-blocking and all
 * armed EPOLLONESHOT, so exactly one thread owns a socket between its
 * readiness event and the epoll_ctl(MOD) that re-arms it. The owning
 * thread accepts (accept4), feeds bytes into the connection's
 * RequestParser, runs the handler inline once a request is complete,
 * and writes the response without blocking: a response the socket
 * cannot take parks the connection for EPOLLOUT. No thread ever waits
 * on one socket, so a slow or silent client costs a table entry, not
 * a thread. Connections persist (HTTP/1.1 keep-alive), which keeps
 * connect/accept/close off the per-request path.
 *
 * Every connection carries one deadline, socketTimeout after it was
 * accepted, after its previous response, or after a response it is
 * writing began: an incomplete request at its deadline is answered
 * 400 + S006, an idle kept-alive connection is closed silently, and
 * a stalled write is abandoned. The loops sleep until the earliest
 * deadline; an eventfd wakes them for drain and shutdown.
 *
 * Admission control happens in three layers before a handler runs:
 *
 *   1. connection bound — a connection accepted while maxInflight
 *      are already open is answered 503 + S009 and closed,
 *   2. drain state — once beginDrain() is called no connection is
 *      accepted, idle ones are closed, and requests still arriving
 *      on open ones get 503 + S008 with `Connection: close`,
 *   3. per-tenant token buckets — the X-Lemons-Tenant header names a
 *      bucket; an empty one answers 429 + S007 with a Retry-After.
 *
 * Graceful drain rides the engine's cancellation machinery: handlers
 * pass the server's CancelToken and a per-request deadline into
 * /v1/mc/run executions, so waitDrained() first waits drainGrace for
 * requests to finish on their own and then fires the token, which
 * stops in-flight runs at the next wave boundary with a partial,
 * interrupted-flagged (still well-formed) response.
 *
 * Endpoints:
 *   POST /v1/solve    design-space solver        (lemons-api/1)
 *   POST /v1/lint     design-rule findings       (lemons-api/1)
 *   POST /v1/verify   static-verifier findings   (lemons-api/1)
 *   POST /v1/analyze  wear-budget analysis       (lemons-api/1)
 *   POST /v1/mc/run   Monte Carlo over [structure] sections
 *   GET  /v1/healthz  liveness + drain state
 *   GET  /metrics     Prometheus text exposition of the obs registry
 */

#ifndef LEMONS_SERVE_SERVER_H_
#define LEMONS_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/service.h"
#include "engine/engine.h"
#include "serve/http.h"
#include "serve/quota.h"

namespace lemons::serve {

/** Everything configurable about one lemonsd instance. */
struct ServerOptions
{
    /** Bind address (IPv4 dotted quad). */
    std::string address = "127.0.0.1";
    /** Bind port; 0 asks the kernel for an ephemeral one. */
    uint16_t port = 0;
    /** Event-loop threads; each accepts, reads, runs handlers and
     *  writes (at least one). */
    unsigned workers = 2;
    /** Request-size limits enforced while bytes arrive. */
    HttpLimits http{};
    /** Open-connection bound (S009 above it). */
    size_t maxInflight = 64;
    /** Per-tenant token buckets; ratePerSecond <= 0 disables. */
    QuotaOptions quota{};
    /** How long waitDrained() lets in-flight requests finish before
     *  firing the cancel token. */
    std::chrono::milliseconds drainGrace{2000};
    /** Read deadline of a whole request, idle timeout of a kept-alive
     *  connection, and write deadline of a response. */
    std::chrono::milliseconds socketTimeout{10000};
    /** Wall-clock budget for one /v1/mc/run execution. */
    std::chrono::milliseconds mcDeadline{30000};
};

class Server
{
  public:
    explicit Server(ServerOptions options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and start the event loops. Returns false (with
     * the OS error in @p error) when the socket cannot be set up.
     */
    bool start(std::string *error = nullptr);

    /** The bound port (resolves ephemeral binds); 0 before start(). */
    uint16_t boundPort() const { return listenPort; }

    /** Whether beginDrain() has been called. */
    bool draining() const
    {
        return drainRequested.load(std::memory_order_acquire);
    }

    /** Stop accepting and close idle connections; requests already
     *  started continue. */
    void beginDrain();

    /**
     * Block until every started request has been answered: waits
     * drainGrace for voluntary completion, then cancels in-flight
     * Monte Carlo runs and waits for the (now prompt) remainder.
     *
     * When @p abandon is set it is polled about every 20 ms while
     * requests remain; once it returns true the wait gives up and
     * returns false, leaving the drain unfinished (lemonsd's second
     * signal). Returns true once the server is drained.
     */
    bool waitDrained(const std::function<bool()> &abandon = {});

    /** beginDrain + waitDrained, then stop the loops and close every
     *  socket. */
    void stop();

    /**
     * Connections with a partly read or unanswered request: a fresh
     * connection counts from accept, a kept-alive one from the first
     * byte of its next request, until the response is written.
     */
    size_t inflight() const;

  private:
    using Clock = std::chrono::steady_clock;
    struct Connection;

    void loop();
    /** accept4 until the backlog is empty, then re-arm the listener. */
    void acceptPending();
    void admit(int fd);
    /** Take ownership of connection @p id; nullptr when it is gone or
     *  another thread owns it. */
    Connection *claim(uint64_t id);
    /** Read, route and write on an owned connection until it has to
     *  wait for its socket, then park or close it. */
    void serve(Connection &conn);
    /** Route a complete (or failed) request and queue its response. */
    void respond(Connection &conn);
    /** Render @p response into the connection's output; its write
     *  deadline starts now. */
    void queue(Connection &conn, const HttpResponse &response);
    /** Give up ownership and re-arm for @p events. */
    void park(Connection &conn, uint32_t events);
    void close(Connection &conn);
    /** Expire overdue connections, close idle ones while draining,
     *  retry a parked listener; recomputes wakeAt. */
    void sweep();
    /** Lower wakeAt to @p when; wakes a loop if it did. Caller holds mu. */
    void wakeBy(Clock::time_point when);
    void wake();
    /** epoll_wait timeout until wakeAt (-1: none pending). */
    int waitMillis() const;
    void setInflight(Connection &conn, bool busy);
    /** Route one parsed request to a handler; never throws. */
    HttpResponse route(const HttpRequest &request);

    ServerOptions opts;
    api::Service service;
    TenantQuota quota;

    int listenFd = -1;
    int epollFd = -1;
    /** eventfd that wakes a loop for drain, shutdown and new
     *  deadlines; armed EPOLLONESHOT like every other descriptor. */
    int wakeFd = -1;
    uint16_t listenPort = 0;
    std::atomic<bool> drainRequested{false};
    std::atomic<bool> stopping{false};
    /** Earliest deadline (or listener retry) of any socket no loop
     *  owns, in steady-clock ticks; a lower bound, refreshed by
     *  sweep(). */
    std::atomic<Clock::rep> wakeAt{
        Clock::time_point::max().time_since_epoch().count()};

    engine::CancelToken drainCancel;

    mutable std::mutex mu;
    std::condition_variable idle;
    std::unordered_map<uint64_t, std::unique_ptr<Connection>> connections;
    /** Ids 0 and 1 tag the listener and the eventfd. */
    uint64_t nextId = 2;
    size_t inflightCount = 0;
    /** When a listener parked on descriptor exhaustion is re-armed;
     *  max() while it is not parked. */
    Clock::time_point listenRetry = Clock::time_point::max();

    /** Declared last: the loops use every member above. */
    std::vector<std::thread> loops;
};

} // namespace lemons::serve

#endif // LEMONS_SERVE_SERVER_H_
