/**
 * @file
 * End-to-end tests for the lemonsd serving layer, driven over real
 * loopback sockets: routing, the lemons-api/1 error envelopes for
 * every malformed-transport case (truncated body, bad Content-Length,
 * oversized body), admission control (per-tenant quotas, the
 * connection bound), graceful drain, keep-alive and pipelining, the
 * whole-request read deadline, liveness under slow, silent and
 * non-reading clients, and the no-per-request-thread guarantee.
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/json.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "serve/server.h"

namespace lemons::serve {
namespace {

class ServeTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        // A peer closing mid-write must surface as EPIPE, not kill
        // the test binary.
        std::signal(SIGPIPE, SIG_IGN);
    }
};

/** Connect to 127.0.0.1:@p port; returns -1 on failure. */
int
connectTo(uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    // A test must never hang on a dead server: bound every socket op.
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    return fd;
}

bool
sendAll(int fd, const std::string &raw)
{
    size_t sent = 0;
    while (sent < raw.size()) {
        const ssize_t n =
            ::send(fd, raw.data() + sent, raw.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

/** Read until the server closes the connection. */
std::string
readToEnd(int fd)
{
    std::string response;
    char chunk[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        response.append(chunk, static_cast<size_t>(got));
    return response;
}

/** Read one Content-Length-framed response off a kept-alive
 *  connection; "" when the connection closes first. */
std::string
readResponse(int fd)
{
    std::string response;
    char byte = 0;
    while (response.find("\r\n\r\n") == std::string::npos) {
        if (::recv(fd, &byte, 1, 0) != 1)
            return "";
        response += byte;
    }
    const size_t at = response.find("Content-Length: ");
    if (at == std::string::npos)
        return "";
    size_t length = std::strtoull(response.c_str() + at + 16, nullptr, 10);
    std::vector<char> body(length);
    size_t have = 0;
    while (have < length) {
        const ssize_t got = ::recv(fd, body.data() + have, length - have, 0);
        if (got <= 0)
            return "";
        have += static_cast<size_t>(got);
    }
    return response.append(body.data(), length);
}

/**
 * Send @p raw on a new connection, optionally half-close, then read
 * until the server closes. The request must ask for that with
 * `Connection: close`, as get() and post() do.
 */
std::string
exchange(uint16_t port, const std::string &raw, bool halfClose = false)
{
    const int fd = connectTo(port);
    if (fd < 0)
        return "";
    sendAll(fd, raw);
    if (halfClose)
        ::shutdown(fd, SHUT_WR);
    std::string response = readToEnd(fd);
    ::close(fd);
    return response;
}

std::string
post(const std::string &target, const std::string &body,
     const std::string &extraHeaders = "")
{
    return "POST " + target + " HTTP/1.1\r\n" +
           "Host: localhost\r\nConnection: close\r\n" + extraHeaders +
           "Content-Length: " + std::to_string(body.size()) +
           "\r\n\r\n" + body;
}

/** A GET that closes the connection after its response. */
std::string
get(const std::string &target)
{
    return "GET " + target +
           " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
}

/** A GET that keeps the connection open. */
std::string
getKeepAlive(const std::string &target)
{
    return "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
}

uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).get();
}

double
millisSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

int
statusOf(const std::string &response)
{
    // "HTTP/1.1 200 OK\r\n..."
    if (response.size() < 12)
        return -1;
    return std::atoi(response.c_str() + 9);
}

std::string
bodyOf(const std::string &response)
{
    const size_t split = response.find("\r\n\r\n");
    return split == std::string::npos ? "" : response.substr(split + 4);
}

/** Whether any envelope diagnostic carries @p code. */
bool
hasCode(const std::string &body, std::string_view code)
{
    const api::JsonParseResult parsed = api::parseJson(body);
    if (!parsed.ok)
        return false;
    const api::JsonValue *diagnostics = parsed.value.find("diagnostics");
    if (diagnostics == nullptr || !diagnostics->isArray())
        return false;
    for (const api::JsonValue &finding : diagnostics->items()) {
        const api::JsonValue *member = finding.find("code");
        if (member != nullptr && member->asString() == code)
            return true;
    }
    return false;
}

constexpr const char *kLintBody =
    R"({"spec": "[structure]\nkind = parallel\nn = 4\nk = 2\n"})";

TEST_F(ServeTest, HealthzReportsServing)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/healthz"));
    EXPECT_EQ(statusOf(response), 200);
    EXPECT_NE(bodyOf(response).find("\"serving\""), std::string::npos);
    EXPECT_NE(response.find("Connection: close"), std::string::npos);
    server.stop();
}

TEST_F(ServeTest, SolveRoundTrip)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string body =
        R"({"alpha": 10, "beta": 12, "lab": 91250})";
    const std::string response =
        exchange(server.boundPort(), post("/v1/solve", body));
    EXPECT_EQ(statusOf(response), 200);
    const api::JsonParseResult parsed = api::parseJson(bodyOf(response));
    ASSERT_TRUE(parsed.ok) << bodyOf(response);
    EXPECT_TRUE(parsed.value.find("ok")->asBool());
    EXPECT_TRUE(parsed.value.find("result")->isObject());
    server.stop();
}

TEST_F(ServeTest, UnknownTargetIs404S003)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/nope"));
    EXPECT_EQ(statusOf(response), 404);
    EXPECT_TRUE(hasCode(bodyOf(response), "S003"));
    server.stop();
}

TEST_F(ServeTest, WrongMethodIs405WithAllow)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/solve"));
    EXPECT_EQ(statusOf(response), 405);
    EXPECT_NE(response.find("Allow: POST"), std::string::npos);
    EXPECT_TRUE(hasCode(bodyOf(response), "S004"));
    server.stop();
}

TEST_F(ServeTest, TruncatedBodyIs400)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    // Declares 100 bytes, delivers 4, half-closes.
    const std::string raw = "POST /v1/lint HTTP/1.1\r\n"
                            "Content-Length: 100\r\n\r\nfour";
    const std::string response =
        exchange(server.boundPort(), raw, /*halfClose=*/true);
    EXPECT_EQ(statusOf(response), 400);
    EXPECT_TRUE(hasCode(bodyOf(response), "S006"));
    server.stop();
}

TEST_F(ServeTest, BadContentLengthIs400)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string raw = "POST /v1/lint HTTP/1.1\r\n"
                            "Content-Length: banana\r\n\r\n";
    const std::string response =
        exchange(server.boundPort(), raw, /*halfClose=*/true);
    EXPECT_EQ(statusOf(response), 400);
    EXPECT_TRUE(hasCode(bodyOf(response), "S006"));
    server.stop();
}

TEST_F(ServeTest, OversizedBodyIs413S005)
{
    ServerOptions options;
    options.http.maxBodyBytes = 64;
    Server server(options);
    ASSERT_TRUE(server.start());
    const std::string big(1000, 'x');
    const std::string response =
        exchange(server.boundPort(), post("/v1/lint", big));
    EXPECT_EQ(statusOf(response), 413);
    EXPECT_TRUE(hasCode(bodyOf(response), "S005"));
    server.stop();
}

TEST_F(ServeTest, TenantQuotaIs429WithRetryAfter)
{
    ServerOptions options;
    options.quota.ratePerSecond = 0.001; // ~17 min per token
    options.quota.burst = 1.0;
    Server server(options);
    ASSERT_TRUE(server.start());
    const std::string request =
        post("/v1/lint", kLintBody, "X-Lemons-Tenant: ci-fleet-a\r\n");
    EXPECT_EQ(statusOf(exchange(server.boundPort(), request)), 200);
    const std::string denied = exchange(server.boundPort(), request);
    EXPECT_EQ(statusOf(denied), 429);
    EXPECT_NE(denied.find("Retry-After: "), std::string::npos);
    EXPECT_TRUE(hasCode(bodyOf(denied), "S007"));
    // A different tenant still has a full bucket.
    const std::string other =
        post("/v1/lint", kLintBody, "X-Lemons-Tenant: ci-fleet-b\r\n");
    EXPECT_EQ(statusOf(exchange(server.boundPort(), other)), 200);
    server.stop();
}

TEST_F(ServeTest, InflightBoundIs503S009)
{
    ServerOptions options;
    options.maxInflight = 0; // reject every admission attempt
    Server server(options);
    ASSERT_TRUE(server.start());
    const std::string response =
        exchange(server.boundPort(), get("/v1/healthz"));
    EXPECT_EQ(statusOf(response), 503);
    EXPECT_NE(response.find("Retry-After: "), std::string::npos);
    EXPECT_TRUE(hasCode(bodyOf(response), "S009"));
    server.stop();
}

TEST_F(ServeTest, GracefulDrainAnswersInflightWithS008)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());

    // Open a connection and deliver only the head: the request is now
    // in flight, its body still unread.
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    const std::string body = kLintBody;
    const std::string head = "POST /v1/lint HTTP/1.1\r\n"
                             "Content-Length: " +
                             std::to_string(body.size()) + "\r\n\r\n";
    ASSERT_EQ(::send(fd, head.data(), head.size(), 0),
              static_cast<ssize_t>(head.size()));
    for (int spins = 0; server.inflight() == 0 && spins < 200; ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(server.inflight(), 1u);

    // Drain while the request is in flight, then let it complete: the
    // response must be the 503 + S008 drain envelope, not a hang.
    server.beginDrain();
    EXPECT_TRUE(server.draining());
    ASSERT_EQ(::send(fd, body.data(), body.size(), 0),
              static_cast<ssize_t>(body.size()));
    std::string response;
    char chunk[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        response.append(chunk, static_cast<size_t>(got));
    ::close(fd);
    EXPECT_EQ(statusOf(response), 503);
    EXPECT_TRUE(hasCode(bodyOf(response), "S008"));

    server.waitDrained();
    EXPECT_EQ(server.inflight(), 0u);
    server.stop();
}

TEST_F(ServeTest, DescriptorExhaustionBacksOffThenServes)
{
    // accept() failing with EMFILE leaves the connection queued, so the
    // listener stays readable. The server must back off rather
    // than spin, and serve the connection once descriptors free up.
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    // The client socket exists before the cap; connecting needs no
    // new descriptor, but the server's accept() does.
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    timeval timeout{};
    timeout.tv_sec = 10;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));

    // Cap the soft limit at the lowest free descriptor: every lower
    // one is open, so the next accept() gets EMFILE.
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    const int lowestFree = ::dup(0);
    ASSERT_GE(lowestFree, 0);
    ::close(lowestFree);
    obs::Counter &errors =
        obs::Registry::global().counter("serve.accept_errors");
    const uint64_t errorsBefore = errors.get();
    rlimit capped = saved;
    capped.rlim_cur = static_cast<rlim_t>(lowestFree);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &capped), 0);

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server.boundPort());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const bool connected =
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof(addr)) ==
        0;
    const std::string request = get("/v1/healthz");
    const bool sent = connected && ::send(fd, request.data(), request.size(),
                                          0) ==
                                       static_cast<ssize_t>(request.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
    ASSERT_TRUE(sent) << "connect/send failed under the cap";
    const uint64_t failedAccepts = errors.get() - errorsBefore;
    EXPECT_GE(failedAccepts, 1u) << "the capped limit never bit";
    EXPECT_LE(failedAccepts, 50u) << "accept spun on EMFILE";

    std::string response;
    char chunk[4096];
    ssize_t got = 0;
    while ((got = ::recv(fd, chunk, sizeof(chunk), 0)) > 0)
        response.append(chunk, static_cast<size_t>(got));
    ::close(fd);
    EXPECT_EQ(statusOf(response), 200);
    server.stop();
}

TEST_F(ServeTest, KeepAliveServesSecondRequestOnOneConnection)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const uint64_t reusedBefore = counterValue("serve.connections.reused");
    const uint64_t acceptedBefore = counterValue("serve.accepted");
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);

    ASSERT_TRUE(sendAll(fd, getKeepAlive("/v1/healthz")));
    const std::string first = readResponse(fd);
    EXPECT_EQ(statusOf(first), 200);
    EXPECT_EQ(first.find("Connection: close"), std::string::npos);

    ASSERT_TRUE(sendAll(fd, get("/v1/healthz")));
    const std::string second = readToEnd(fd);
    ::close(fd);
    EXPECT_EQ(statusOf(second), 200);
    EXPECT_NE(second.find("Connection: close"), std::string::npos);
    EXPECT_EQ(bodyOf(first), bodyOf(second));
    EXPECT_EQ(counterValue("serve.connections.reused"), reusedBefore + 1);
    EXPECT_EQ(counterValue("serve.accepted"), acceptedBefore + 1);
    server.stop();
}

TEST_F(ServeTest, PipelinedRequestsAnsweredInOrder)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    // Three requests in one send: the bytes past the first request
    // must be kept and parsed, not dropped.
    ASSERT_TRUE(sendAll(fd, getKeepAlive("/v1/healthz") +
                                getKeepAlive("/v1/healthz") +
                                get("/v1/nope")));
    const std::string all = readToEnd(fd);
    ::close(fd);
    std::vector<int> statuses;
    for (size_t at = all.find("HTTP/1.1 "); at != std::string::npos;
         at = all.find("HTTP/1.1 ", at + 1))
        statuses.push_back(std::atoi(all.c_str() + at + 9));
    EXPECT_EQ(statuses, (std::vector<int>{200, 200, 404}));
}

TEST_F(ServeTest, HttpOneZeroAndConnectionCloseAreClosed)
{
    Server server(ServerOptions{});
    ASSERT_TRUE(server.start());
    const std::string old = exchange(
        server.boundPort(), "GET /v1/healthz HTTP/1.0\r\n\r\n");
    EXPECT_EQ(statusOf(old), 200);
    EXPECT_NE(old.find("Connection: close"), std::string::npos);
    const std::string listed = exchange(
        server.boundPort(),
        "GET /v1/healthz HTTP/1.1\r\nConnection: x-probe, Close\r\n\r\n");
    EXPECT_EQ(statusOf(listed), 200);
    EXPECT_NE(listed.find("Connection: close"), std::string::npos);
    server.stop();
}

TEST_F(ServeTest, ReadDeadlineCoversTheWholeRequest)
{
    // A byte every 100 ms never trips a per-recv timeout of 300 ms;
    // the deadline of the whole request must still end it.
    ServerOptions options;
    options.socketTimeout = std::chrono::milliseconds(300);
    Server server(options);
    ASSERT_TRUE(server.start());
    const uint64_t expiredBefore = counterValue("serve.deadline_expired");
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, "POST /v1/lint HTTP/1.1\r\nX-Slow: "));
    const auto start = std::chrono::steady_clock::now();
    std::string response;
    for (int i = 0; i < 30 && response.empty(); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        sendAll(fd, "x");
        char chunk[4096];
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), MSG_DONTWAIT);
        if (got > 0)
            response.assign(chunk, static_cast<size_t>(got));
    }
    const double waited = millisSince(start);
    ::close(fd);
    EXPECT_EQ(statusOf(response), 400);
    EXPECT_TRUE(hasCode(bodyOf(response), "S006"));
    EXPECT_LT(waited, 2000.0);
    EXPECT_EQ(counterValue("serve.deadline_expired"), expiredBefore + 1);
    server.stop();
}

TEST_F(ServeTest, IdleKeptAliveConnectionClosesSilently)
{
    ServerOptions options;
    options.socketTimeout = std::chrono::milliseconds(200);
    Server server(options);
    ASSERT_TRUE(server.start());
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, getKeepAlive("/v1/healthz")));
    EXPECT_EQ(statusOf(readResponse(fd)), 200);
    // No second request: after the idle timeout the server closes
    // without another byte.
    const auto start = std::chrono::steady_clock::now();
    EXPECT_EQ(readToEnd(fd), "");
    EXPECT_LT(millisSince(start), 5000.0);
    ::close(fd);
    server.stop();
}

TEST_F(ServeTest, DrainClosesIdleConnectionsAtOnce)
{
    Server server(ServerOptions{}); // 10 s idle timeout
    ASSERT_TRUE(server.start());
    const int fd = connectTo(server.boundPort());
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(sendAll(fd, getKeepAlive("/v1/healthz")));
    EXPECT_EQ(statusOf(readResponse(fd)), 200);
    const auto start = std::chrono::steady_clock::now();
    server.waitDrained();
    EXPECT_EQ(readToEnd(fd), "");
    EXPECT_LT(millisSince(start), 2000.0);
    ::close(fd);
    server.stop();
}

/** Latencies (ms) of @p count sequential /v1/healthz exchanges. */
std::vector<double>
healthzLatencies(uint16_t port, int count)
{
    const std::string request = get("/v1/healthz");
    std::vector<double> millis;
    for (int i = 0; i < count; ++i) {
        const auto start = std::chrono::steady_clock::now();
        const std::string response = exchange(port, request);
        millis.push_back(statusOf(response) == 200 ? millisSince(start)
                                                   : 1e9);
    }
    return millis;
}

TEST_F(ServeTest, SlowClientsDoNotStallOtherRequests)
{
    // Four connections send part of a head and go quiet, a fifth
    // trickles a byte every 200 ms. With a blocking read per worker
    // every request behind them would wait out the 10 s timeout.
    ServerOptions options;
    options.workers = 2;
    options.socketTimeout = std::chrono::milliseconds(10000);
    Server server(options);
    ASSERT_TRUE(server.start());

    std::vector<int> slow;
    for (int i = 0; i < 5; ++i) {
        const int fd = connectTo(server.boundPort());
        ASSERT_GE(fd, 0);
        ASSERT_TRUE(sendAll(fd, "POST /v1/lint HTTP/1.1\r\nX-Slow: "));
        slow.push_back(fd);
    }
    std::atomic<bool> done{false};
    std::thread trickle([&] {
        while (!done.load()) {
            std::this_thread::sleep_for(std::chrono::milliseconds(200));
            sendAll(slow.back(), "x");
        }
    });

    std::vector<double> millis = healthzLatencies(server.boundPort(), 50);
    done.store(true);
    trickle.join();
    std::sort(millis.begin(), millis.end());
    // Nearest-rank p99 of 50 samples.
    EXPECT_LT(millis[49], 100.0) << "p50 " << millis[24] << " ms";
    for (const int fd : slow)
        ::close(fd);
    server.stop();
}

TEST_F(ServeTest, NonReadingClientDoesNotStallOtherRequests)
{
    // Clients with a tiny receive buffer pipeline /metrics requests
    // and never read. Once their responses fill the socket buffers the
    // server stops reading their requests, which is when a client's
    // own send first fails with EAGAIN. The unwritten responses must
    // wait for EPOLLOUT instead of holding a thread in send().
    ServerOptions options;
    options.workers = 2;
    options.socketTimeout = std::chrono::milliseconds(10000);
    Server server(options);
    ASSERT_TRUE(server.start());

    const std::string request = getKeepAlive("/metrics");
    std::vector<int> stuck;
    for (unsigned i = 0; i < options.workers; ++i) {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        ASSERT_GE(fd, 0);
        stuck.push_back(fd);
        const int small = 1024;
        ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.boundPort());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
        size_t offset = 0;
        bool blocked = false;
        const auto start = std::chrono::steady_clock::now();
        while (!blocked && millisSince(start) < 30000.0) {
            const ssize_t n =
                ::send(fd, request.data() + offset, request.size() - offset,
                       MSG_DONTWAIT | MSG_NOSIGNAL);
            if (n > 0)
                offset = (offset + static_cast<size_t>(n)) % request.size();
            else if (errno == EAGAIN || errno == EWOULDBLOCK)
                blocked = true;
            else
                break;
        }
        ASSERT_TRUE(blocked) << "the server kept reading requests";
    }
    // Both connections hold an unwritten response.
    for (int spins = 0; server.inflight() < stuck.size() && spins < 500;
         ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(server.inflight(), stuck.size());

    std::vector<double> millis = healthzLatencies(server.boundPort(), 10);
    EXPECT_LT(*std::max_element(millis.begin(), millis.end()), 100.0);
    EXPECT_EQ(server.inflight(), stuck.size());
    for (const int fd : stuck)
        ::close(fd);
    server.stop();
}

/** Threads of this process, from /proc/self/status. */
int
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::atoi(line.c_str() + 8);
    return -1;
}

/** processThreads() once it holds still: a joined thread can stay
 *  counted for a moment after join() returns. */
int
settledThreads()
{
    int seen = processThreads();
    for (int i = 0; i < 50; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        const int now = processThreads();
        if (now == seen)
            return now;
        seen = now;
    }
    return seen;
}

TEST_F(ServeTest, ConcurrentClientsNeverSpawnRequestThreads)
{
    // Handlers run inline on the server's event loops: start() adds
    // exactly `workers` threads, requests and connections add none,
    // and serving never grows the engine pool. Runs the same load at
    // 1, 2, and 8 workers.
    const uint64_t poolThreadsBefore =
        counterValue("sim.mc.pool.threads_created");
    for (const unsigned workers : {1u, 2u, 8u}) {
        ServerOptions options;
        options.workers = workers;
        options.quota.ratePerSecond = 0.0; // load test, not a quota test
        const int threadsBefore = settledThreads();
        Server server(options);
        ASSERT_TRUE(server.start());
        const int serverThreads = settledThreads();
        EXPECT_EQ(serverThreads, threadsBefore + static_cast<int>(workers));

        constexpr int kClients = 8;
        constexpr int kRequestsPerClient = 4;
        std::vector<std::string> failures;
        std::mutex failuresMu;
        std::atomic<int> mostThreads{0};
        std::vector<std::thread> clients;
        clients.reserve(kClients);
        for (int c = 0; c < kClients; ++c) {
            clients.emplace_back([&, c] {
                for (int r = 0; r < kRequestsPerClient; ++r) {
                    const std::string response = exchange(
                        server.boundPort(), post("/v1/lint", kLintBody));
                    const int threads = processThreads();
                    int seen = mostThreads.load();
                    while (threads > seen &&
                           !mostThreads.compare_exchange_weak(seen, threads)) {
                    }
                    if (statusOf(response) != 200) {
                        const std::lock_guard<std::mutex> lock(failuresMu);
                        failures.push_back(
                            "client " + std::to_string(c) + " got: " +
                            response.substr(0, 64));
                    }
                }
            });
        }
        for (std::thread &client : clients)
            client.join();
        EXPECT_TRUE(failures.empty())
            << failures.size() << " failed, first: " << failures[0];
        EXPECT_LE(mostThreads.load(), serverThreads + kClients);
        server.stop();
        EXPECT_EQ(settledThreads(), threadsBefore);
    }
    EXPECT_EQ(counterValue("sim.mc.pool.threads_created"),
              poolThreadsBefore);
}

} // namespace
} // namespace lemons::serve
