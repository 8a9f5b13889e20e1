/**
 * @file
 * perfbench-loadgen: the benchmark's HTTP load generator for lemonsd.
 *
 *   perfbench-loadgen open|closed PORT IN OUT SENDERS SECONDS \
 *                     SLOW TRICKLE_MS TRICKLE_BYTES PAUSE_MS
 *
 * IN holds request records "<path> <due_ns> <bytes>\n<body>\n" in send
 * order. `open` sends record i at window time due_ns from one of
 * SENDERS threads and times it from that due time, so a stall also
 * delays every request due behind it; lag is how late a free sender
 * sent it. `closed` keeps SENDERS clients each sending the next record
 * as soon as its previous reply arrived, for SECONDS, timed from the
 * send. SLOW slowloris connections send a request line, then one
 * header byte every TRICKLE_MS for TRICKLE_BYTES bytes, then go quiet;
 * PAUSE_MS after the server closes one it is reopened. They start with
 * the window and stop when the last measured request is done.
 *
 * OUT gets one record per sent request, in record order:
 * "<index> <latency_ns> <lag_ns> <done_ns> <status> <bytes>\n<body>\n",
 * done_ns counted from the window start; status 0 is a connection
 * error and the body says which. Responses are framed
 * by Content-Length; a connection is reused unless the response says
 * "Connection: close". One process, SENDERS + 1 threads, at most
 * SENDERS + SLOW sockets.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

namespace {

int64_t
nowNs()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/**
 * Sleep until @p target. No spinning: the daemon may share this CPU,
 * and how late the wake-up comes is recorded as lag.
 */
void
waitUntil(int64_t target)
{
    timespec ts{};
    ts.tv_sec = target / 1000000000;
    ts.tv_nsec = target % 1000000000;
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

int
connectTo(uint16_t port)
{
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) != 0) {
        close(fd);
        return -1;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    return fd;
}

bool
sendAll(int fd, const std::string &bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        const ssize_t n =
            send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return false;
        sent += static_cast<size_t>(n);
    }
    return true;
}

struct Record
{
    std::string path;
    int64_t dueNs = 0;
    std::string body;
};

struct Outcome
{
    bool sent = false;
    int64_t latencyNs = 0;
    int64_t lagNs = 0;
    int64_t doneNs = 0; ///< completion, from the window start
    int status = 0;
    std::string body;
};

/** One client connection, reopened when the server closes it. */
class Client
{
  public:
    explicit Client(uint16_t serverPort) : port(serverPort) {}
    ~Client() { reset(); }
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Status and body, or status 0 with the error in @p body. */
    int request(const Record &record, std::string &body)
    {
        if (fd < 0 && (fd = connectTo(port)) < 0) {
            body = "connect failed";
            return 0;
        }
        std::string wire = (record.body.empty() ? "GET " : "POST ") +
            record.path +
            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            "Content-Type: application/json\r\nContent-Length: " +
            std::to_string(record.body.size()) + "\r\n\r\n" + record.body;
        if (!sendAll(fd, wire)) {
            reset();
            body = "send failed";
            return 0;
        }
        return readResponse(body);
    }

  private:
    void reset()
    {
        if (fd >= 0)
            close(fd);
        fd = -1;
    }

    int fail(std::string &body, const char *why)
    {
        reset();
        body = why;
        return 0;
    }

    int readResponse(std::string &body)
    {
        std::string buf;
        char chunk[65536];
        size_t headEnd;
        while ((headEnd = buf.find("\r\n\r\n")) == std::string::npos) {
            const ssize_t n = recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                return fail(body, "closed before the response head");
            buf.append(chunk, static_cast<size_t>(n));
        }
        std::string head = buf.substr(0, headEnd);
        for (char &c : head)
            c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
        const size_t space = head.find(' ');
        const int status =
            space == std::string::npos ? 0 : std::atoi(head.c_str() + space + 1);
        const size_t lengthAt = head.find("\r\ncontent-length:");
        if (status == 0 || lengthAt == std::string::npos)
            return fail(body, "response without status or Content-Length");
        const size_t length = static_cast<size_t>(
            std::strtoull(head.c_str() + lengthAt + 17, nullptr, 10));
        body = buf.substr(headEnd + 4);
        while (body.size() < length) {
            const ssize_t n = recv(fd, chunk, sizeof chunk, 0);
            if (n <= 0)
                return fail(body, "closed inside the body");
            body.append(chunk, static_cast<size_t>(n));
        }
        body.resize(length);
        if (head.find("\r\nconnection: close") != std::string::npos)
            reset();
        return status;
    }

    uint16_t port;
    int fd = -1;
};

/** Connections that trickle header bytes and never finish a request. */
void
slowloris(uint16_t port, int count, int64_t trickleNs, int trickleBytes,
          int64_t pauseNs, const std::atomic<bool> &stop)
{
    struct Slow
    {
        int fd = -1;
        int sent = 0;
        int64_t next = 0;
    };
    std::vector<Slow> conns(static_cast<size_t>(count));
    const auto open = [&](Slow &c) {
        c.fd = connectTo(port);
        c.sent = 0;
        c.next = nowNs() + trickleNs;
        if (c.fd >= 0)
            sendAll(c.fd, "POST /v1/lint HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "X-Slow: ");
        else
            c.next = nowNs() + pauseNs; // retry the connect later
    };
    for (Slow &c : conns)
        open(c);
    while (!stop.load(std::memory_order_acquire)) {
        const int64_t now = nowNs();
        std::vector<pollfd> watched;
        for (Slow &c : conns) {
            if (c.fd < 0 && now >= c.next)
                open(c);
            else if (c.fd >= 0 && c.sent < trickleBytes && now >= c.next) {
                sendAll(c.fd, "x");
                ++c.sent;
                c.next = now + trickleNs;
            }
            if (c.fd >= 0)
                watched.push_back({c.fd, POLLIN, 0});
        }
        poll(watched.data(), watched.size(), 5);
        for (const pollfd &p : watched) {
            if (p.revents == 0)
                continue;
            // The server answered (request never completed) and closed:
            // drop ours and reopen after the pause.
            for (Slow &c : conns)
                if (c.fd == p.fd) {
                    close(c.fd);
                    c.fd = -1;
                    c.next = nowNs() + pauseNs;
                }
        }
    }
    for (Slow &c : conns)
        if (c.fd >= 0)
            close(c.fd);
}

bool
readRecords(const std::string &path, std::vector<Record> &out)
{
    std::ifstream in(path, std::ios::binary);
    Record record;
    size_t length = 0;
    while (in >> record.path >> record.dueNs >> length) {
        in.get();
        record.body.assign(length, '\0');
        in.read(record.body.data(), static_cast<std::streamsize>(length));
        in.get();
        if (!in)
            return false;
        out.push_back(record);
    }
    return static_cast<bool>(in.eof());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 11) {
        std::cerr << "usage: perfbench-loadgen open|closed PORT IN OUT "
                     "SENDERS SECONDS SLOW TRICKLE_MS TRICKLE_BYTES "
                     "PAUSE_MS\n";
        return 2;
    }
    const bool openLoop = std::string(argv[1]) == "open";
    const auto port = static_cast<uint16_t>(std::atoi(argv[2]));
    const int senders = std::atoi(argv[5]);
    const auto windowNs = static_cast<int64_t>(std::atof(argv[6]) * 1e9);
    const int slowCount = std::atoi(argv[7]);
    const int64_t trickleNs = std::atoll(argv[8]) * 1000000;
    const int trickleBytes = std::atoi(argv[9]);
    const int64_t pauseNs = std::atoll(argv[10]) * 1000000;

    std::vector<Record> records;
    if (!readRecords(argv[3], records)) {
        std::cerr << "perfbench-loadgen: cannot read " << argv[3] << '\n';
        return 1;
    }
    // Wake at the due time, not up to the default 50 us after it; the
    // threads started below inherit this.
    prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    std::vector<Outcome> outcomes(records.size());
    std::atomic<size_t> cursor{0};
    std::atomic<bool> stopSlow{false};
    const int64_t start = nowNs() + 50000000;

    std::thread slowThread;
    if (slowCount > 0)
        slowThread = std::thread([&] {
            waitUntil(start);
            slowloris(port, slowCount, trickleNs, trickleBytes, pauseNs,
                      stopSlow);
        });

    const auto sender = [&] {
        Client client(port);
        if (!openLoop)
            waitUntil(start);
        for (;;) {
            const size_t i = cursor.fetch_add(1);
            if (i >= records.size())
                return;
            Outcome &out = outcomes[i];
            const int64_t free = nowNs();
            int64_t from;
            if (openLoop) {
                from = start + records[i].dueNs;
                waitUntil(from);
            } else {
                from = nowNs();
                if (from >= start + windowNs)
                    return;
            }
            const int64_t sent = nowNs();
            out.status = client.request(records[i], out.body);
            const int64_t done = nowNs();
            out.latencyNs = done - from;
            out.doneNs = done - start;
            out.lagNs = openLoop ? sent - std::max(from, free) : 0;
            out.sent = true;
        }
    };
    std::vector<std::thread> threads;
    for (int i = 0; i < senders; ++i)
        threads.emplace_back(sender);
    for (std::thread &t : threads)
        t.join();
    stopSlow.store(true, std::memory_order_release);
    if (slowThread.joinable())
        slowThread.join();

    std::ofstream out(argv[4], std::ios::binary | std::ios::trunc);
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &o = outcomes[i];
        if (!o.sent)
            continue;
        out << i << ' ' << o.latencyNs << ' ' << o.lagNs << ' ' << o.doneNs
            << ' ' << o.status << ' ' << o.body.size() << '\n'
            << o.body << '\n';
    }
    return out ? 0 : 1;
}
