#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <sstream>
#include <thread>
#include <utility>

#include "api/codec.h"
#include "engine/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace lemons::serve {

namespace {

/** Acceptor pause after accept() runs out of descriptors. */
constexpr std::chrono::milliseconds kAcceptBackoff{10};

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

void
setSocketTimeout(int fd, std::chrono::milliseconds timeout)
{
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
    tv.tv_usec =
        static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

} // namespace

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
        if (listenFd >= 0) {
            ::close(listenFd);
            listenFd = -1;
        }
        return false;
    };

    listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
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

    // Pre-grow the pool so the first burst of requests runs
    // concurrently instead of serializing behind worker creation.
    engine::ThreadPool::global().submit([] {}, opts.workers);

    // The one thread lemonsd owns: it only accepts and hands off.
    // LEMONS-TIDY-ALLOW(T001): the acceptor blocks in poll()/accept()
    // and must not occupy a pool worker; request handlers all run on
    // the pool via submit().
    acceptor = std::thread([this] { acceptLoop(); });
    return true;
}

void
Server::acceptLoop()
{
    while (!drainRequested.load(std::memory_order_acquire)) {
        pollfd watched{};
        watched.fd = listenFd;
        watched.events = POLLIN;
        // Short poll timeout keeps drain latency bounded without a
        // wakeup pipe: worst case the loop notices beginDrain() 50 ms
        // late.
        const int ready = ::poll(&watched, 1, 50);
        if (ready <= 0)
            continue;

        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0) {
            LEMONS_OBS_INCREMENT("serve.accept_errors");
            // Out of descriptors (or kernel memory), the pending
            // connection stays queued and keeps poll() readable: back
            // off instead of spinning a core until one frees up.
            if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
                errno == ENOMEM)
                std::this_thread::sleep_for(kAcceptBackoff);
            continue;
        }
        LEMONS_OBS_INCREMENT("serve.accepted");
        setSocketTimeout(fd, opts.socketTimeout);

        {
            std::lock_guard<std::mutex> lock(mu);
            if (inflightCount >= opts.maxInflight) {
                // Reject on the acceptor: a full queue must shed load
                // without consuming the very workers it is waiting on.
                LEMONS_OBS_INCREMENT("serve.rejected.queue");
                HttpResponse response;
                response.status = 503;
                response.body = errorEnvelope(
                    lint::Code::S009,
                    "admission queue is full; retry shortly");
                response.headers.emplace_back("Retry-After", "1");
                countResponse(response.status);
                writeAll(fd, renderResponse(response));
                ::close(fd);
                continue;
            }
            ++inflightCount;
        }

        engine::ThreadPool::global().submit(
            [this, fd] {
                handleConnection(fd);
                finishRequest();
            },
            opts.workers);
    }
    acceptorDone.store(true, std::memory_order_release);
}

void
Server::finishRequest()
{
    std::lock_guard<std::mutex> lock(mu);
    --inflightCount;
    if (inflightCount == 0)
        idle.notify_all();
}

size_t
Server::inflight() const
{
    std::lock_guard<std::mutex> lock(mu);
    return inflightCount;
}

void
Server::handleConnection(int fd)
{
    LEMONS_OBS_SCOPED_TIMER("serve.request");
    RequestParser parser(opts.http);
    char chunk[4096];
    while (!parser.complete() && !parser.failed()) {
        const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
        if (got < 0) {
            // Timeout or reset: whatever arrived is all there is.
            parser.finish();
            break;
        }
        if (got == 0) {
            parser.finish();
            break;
        }
        LEMONS_OBS_COUNT("serve.bytes_in", static_cast<uint64_t>(got));
        parser.feed(std::string_view(chunk, static_cast<size_t>(got)));
    }

    HttpResponse response;
    if (parser.failed()) {
        LEMONS_OBS_INCREMENT("serve.rejected.malformed");
        response.status = parser.errorStatus();
        response.body =
            errorEnvelope(parser.errorCode(), parser.errorMessage());
    } else if (!parser.complete()) {
        response.status = 400;
        response.body = errorEnvelope(lint::Code::S006,
                                      "request never completed");
    } else {
        response = route(parser.request());
    }

    countResponse(response.status);
    const std::string rendered = renderResponse(response);
    LEMONS_OBS_COUNT("serve.bytes_out",
                     static_cast<uint64_t>(rendered.size()));
    writeAll(fd, rendered);
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
}

HttpResponse
Server::route(const HttpRequest &request)
{
    HttpResponse response;
    try {
        LEMONS_OBS_INCREMENT("serve.requests");

        // Drain check happens per-request so a connection that was
        // admitted just before beginDrain() still gets a response,
        // while one racing past the acceptor gets a clean 503.
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
Server::writeAll(int fd, const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t wrote =
            ::send(fd, bytes.data() + sent, bytes.size() - sent,
                   MSG_NOSIGNAL);
        if (wrote <= 0)
            return; // peer gone or timeout: nothing left to do
        sent += static_cast<size_t>(wrote);
    }
}

void
Server::beginDrain()
{
    drainRequested.store(true, std::memory_order_release);
}

void
Server::waitDrained()
{
    beginDrain();
    if (acceptor.joinable())
        acceptor.join();

    std::unique_lock<std::mutex> lock(mu);
    if (!idle.wait_for(lock, opts.drainGrace,
                       [this] { return inflightCount == 0; })) {
        // Grace expired: stop in-flight Monte Carlo runs at their
        // next wave boundary. Handlers still produce well-formed
        // (partial, interrupted-flagged) responses.
        LEMONS_OBS_INCREMENT("serve.drain.cancelled");
        drainCancel.cancel();
        idle.wait(lock, [this] { return inflightCount == 0; });
    }
}

void
Server::stop()
{
    if (listenFd < 0 && !acceptor.joinable())
        return;
    waitDrained();
    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
}

} // namespace lemons::serve
