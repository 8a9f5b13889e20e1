/**
 * @file
 * lemonsd — long-running designs-as-a-service daemon.
 *
 *     lemonsd --port 8787
 *     curl -s localhost:8787/v1/solve -d '{"alpha":10,"beta":12}'
 *
 * --workers event-loop threads accept, read, run handlers and write;
 * connections stay open between requests (HTTP/1.1 keep-alive). The
 * process stays up until SIGTERM/SIGINT, then drains gracefully:
 * accepting stops, idle connections close, in-flight requests finish
 * (Monte Carlo runs are cancelled at the next wave boundary once the
 * grace period expires), and the daemon exits 0. A second signal
 * during the drain exits at once with status 1, abandoning whatever
 * is still in flight.
 *
 * --port 0 binds an ephemeral port; --port-file writes the resolved
 * port (one line) so scripts and the CI smoke test can find it
 * without racing the log output.
 */

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include <poll.h>
#include <unistd.h>

#include "serve/server.h"
#include "util/argparse.h"

namespace {

/** Self-pipe the signal handler writes one byte into. */
int signalPipe[2] = {-1, -1};

extern "C" void
onSignal(int)
{
    // Only async-signal-safe calls allowed here.
    const char byte = 's';
    static_cast<void>(::write(signalPipe[1], &byte, 1));
}

} // namespace

int
main(int argc, char **argv)
{
    lemons::serve::ServerOptions options;
    std::string address = options.address;
    uint64_t port = 8787;
    uint64_t maxInflight = options.maxInflight;
    uint64_t maxBody = options.http.maxBodyBytes;
    uint64_t drainGraceMs =
        static_cast<uint64_t>(options.drainGrace.count());
    uint64_t socketTimeoutMs =
        static_cast<uint64_t>(options.socketTimeout.count());
    uint64_t mcDeadlineMs =
        static_cast<uint64_t>(options.mcDeadline.count());
    std::string portFile;

    lemons::ArgParser parser(
        "lemonsd",
        "Serve the lemons design analyses over HTTP/JSON: the design\n"
        "solver, the L/V/A spec pipeline, and reproducible Monte Carlo\n"
        "runs, all speaking the lemons-api/1 envelope.");
    parser.value("--address", &address, "ADDR",
                 "IPv4 address to bind (default 127.0.0.1)");
    parser.value("--port", &port, "PORT",
                 "TCP port to bind; 0 = ephemeral (default 8787)");
    parser.value("--port-file", &portFile, "PATH",
                 "write the resolved port to PATH after binding");
    parser.value("--workers", &options.workers, "N",
                 "event-loop threads; each accepts, reads, runs "
                 "handlers and writes (default 2)");
    parser.value("--max-inflight", &maxInflight, "N",
                 "open-connection bound; above it new connections "
                 "get 503 (default 64)");
    parser.value("--max-body", &maxBody, "BYTES",
                 "request body size limit; above it 413 (default 1 MiB)");
    parser.value("--quota-rate", &options.quota.ratePerSecond, "R",
                 "per-tenant sustained requests/second; <= 0 disables "
                 "quotas (default 10)");
    parser.value("--quota-burst", &options.quota.burst, "B",
                 "per-tenant burst capacity in requests (default 20)");
    parser.value("--drain-grace-ms", &drainGraceMs, "MS",
                 "how long a drain lets in-flight requests finish "
                 "before cancelling them (default 2000)");
    parser.value("--socket-timeout-ms", &socketTimeoutMs, "MS",
                 "deadline to read a whole request, idle timeout of a "
                 "kept-alive connection, and deadline to write a "
                 "response (default 10000)");
    parser.value("--mc-deadline-ms", &mcDeadlineMs, "MS",
                 "wall-clock budget for one /v1/mc/run (default 30000)");
    parser.epilog(
        "endpoints:\n"
        "  POST /v1/solve /v1/lint /v1/verify /v1/analyze /v1/mc/run\n"
        "  GET  /v1/healthz /metrics\n"
        "\n"
        "example:\n"
        "  lemonsd --port 0 --port-file /tmp/lemonsd.port &\n"
        "  curl -s \"localhost:$(cat /tmp/lemonsd.port)/v1/healthz\"");

    switch (parser.parse(argc, argv)) {
    case lemons::ArgParser::Outcome::Ok:
        break;
    case lemons::ArgParser::Outcome::Help:
        return 0;
    case lemons::ArgParser::Outcome::Error:
        std::cerr << parser.error() << '\n';
        return 2;
    }
    if (port > 65535) {
        std::cerr << "lemonsd: --port must be in [0, 65535]\n";
        return 2;
    }

    options.address = address;
    options.port = static_cast<uint16_t>(port);
    options.maxInflight = maxInflight;
    options.http.maxBodyBytes = maxBody;
    options.drainGrace =
        std::chrono::milliseconds(static_cast<int64_t>(drainGraceMs));
    options.socketTimeout = std::chrono::milliseconds(
        static_cast<int64_t>(socketTimeoutMs));
    options.mcDeadline =
        std::chrono::milliseconds(static_cast<int64_t>(mcDeadlineMs));

    if (::pipe(signalPipe) != 0) {
        std::perror("lemonsd: pipe");
        return 1;
    }
    struct sigaction action = {};
    action.sa_handler = onSignal;
    sigemptyset(&action.sa_mask);
    sigaction(SIGTERM, &action, nullptr);
    sigaction(SIGINT, &action, nullptr);
    // A dying client mid-write must not kill the daemon.
    signal(SIGPIPE, SIG_IGN);

    lemons::serve::Server server(options);
    std::string error;
    if (!server.start(&error)) {
        std::cerr << "lemonsd: " << error << '\n';
        return 1;
    }

    if (!portFile.empty()) {
        std::ofstream out(portFile, std::ios::trunc);
        out << server.boundPort() << '\n';
        if (!out) {
            std::cerr << "lemonsd: cannot write --port-file " << portFile
                      << '\n';
            server.stop();
            return 1;
        }
    }
    std::cout << "lemonsd: listening on " << options.address << ':'
              << server.boundPort() << std::endl;

    // Park until the first signal arrives.
    char byte = 0;
    while (::read(signalPipe[0], &byte, 1) < 0 && errno == EINTR)
        continue;
    std::cout << "lemonsd: draining (" << server.inflight()
              << " request(s) in flight)" << std::endl;
    // Keep watching the pipe while the drain runs: a second signal
    // ends the process without waiting for slow requests.
    const auto secondSignal = [] {
        pollfd watch = {signalPipe[0], POLLIN, 0};
        return ::poll(&watch, 1, 0) > 0;
    };
    if (!server.waitDrained(secondSignal)) {
        std::cout << "lemonsd: second signal, exiting without draining ("
                  << server.inflight() << " request(s) in flight)"
                  << std::endl;
        std::_Exit(1);
    }
    server.stop();
    std::cout << "lemonsd: drained, exiting" << std::endl;
    return 0;
}
