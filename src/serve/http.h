/**
 * @file
 * Minimal HTTP/1.1 machinery for lemonsd: an incremental request
 * parser and a response renderer. No external dependency — the
 * serving layer's transport needs are a strict subset of HTTP
 * (explicit Content-Length bodies, persistent connections), so a few
 * hundred lines beat linking a framework the container may not have.
 *
 * The parser is byte-incremental: feed() it whatever recv() produced
 * and ask whether a full request has materialized. Every way a
 * request can be malformed maps to a stable S-code plus the HTTP
 * status the server should answer with (400 malformed, 413 oversized
 * body, 431 oversized header block), so the error path produces the
 * same machine-readable envelopes as every other failure.
 *
 * Connections persist per RFC 7230 §6.3: an HTTP/1.1 request without
 * `Connection: close` leaves the connection open for the next one
 * (keepAlive()), and bytes received past the end of one request are
 * kept and parsed as the next (next()), so pipelined requests are
 * answered in order.
 *
 * Deliberate non-features: no chunked transfer encoding (rejected,
 * not ignored), no multi-line header folding (obsolete per RFC 7230),
 * no HTTP/1.0 keep-alive extension (1.0 requests are answered and
 * closed).
 */

#ifndef LEMONS_SERVE_HTTP_H_
#define LEMONS_SERVE_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "lint/diagnostics.h"

namespace lemons::serve {

/** One parsed request. Header names are stored lowercased. */
struct HttpRequest
{
    std::string method;  ///< "GET", "POST", ...
    std::string target;  ///< origin-form path, e.g. "/v1/solve"
    std::string version; ///< "HTTP/1.1"
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;

    /** Header value by (case-insensitive) name; nullptr when absent. */
    const std::string *header(std::string_view name) const;
};

/** Limits the parser enforces while bytes arrive. */
struct HttpLimits
{
    /** Ceiling on the declared Content-Length (S005 -> 413). */
    size_t maxBodyBytes = 1u << 20;
    /** Ceiling on start-line + headers together (S006 -> 431). */
    size_t maxHeaderBytes = 16u << 10;
};

/**
 * Incremental request parser. Feed bytes until complete() or
 * failed(); a failed parse reports the diagnostic code, a
 * human-readable reason, and the HTTP status to answer with.
 */
class RequestParser
{
  public:
    explicit RequestParser(HttpLimits limits = {});

    /** Consume the next chunk of received bytes. No-op once done. */
    void feed(std::string_view bytes);

    /** Signal end-of-stream (peer closed before a full request). */
    void finish();

    /**
     * Start on the next request of a persistent connection: forget
     * the completed one and parse whatever pipelined bytes arrived
     * after it. @pre complete().
     */
    void next();

    bool complete() const { return phase == Phase::Complete; }
    bool failed() const { return phase == Phase::Error; }
    /** No byte of the current request has arrived yet. */
    bool idle() const { return phase == Phase::Head && buffer.empty(); }

    /** @pre complete(). */
    const HttpRequest &request() const { return parsed; }

    /** @pre failed(). */
    lint::Code errorCode() const { return code; }
    int errorStatus() const { return status; }
    const std::string &errorMessage() const { return message; }

  private:
    enum class Phase { Head, Body, Complete, Error };

    void fail(lint::Code diagnostic, int httpStatus, std::string why);
    /** Parse as far as the buffered bytes allow. */
    void advance();
    /** Try to cut a full head (start-line + headers) out of buffer. */
    void parseHead();
    bool parseStartLine(std::string_view line);
    bool parseHeaderLine(std::string_view line);
    /** Validate Content-Length et al. once the head is in. */
    void finishHead();

    HttpLimits limits;
    Phase phase = Phase::Head;
    std::string buffer;
    HttpRequest parsed;
    size_t contentLength = 0;
    lint::Code code = lint::Code::S006;
    int status = 400;
    std::string message;
};

/** One response to render. */
struct HttpResponse
{
    int status = 200;
    std::string contentType = "application/json";
    /** Extra headers (e.g. Retry-After, Allow). */
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
    /** Leave the connection open; false adds `Connection: close`. */
    bool keepAlive = false;
};

/** Whether @p request lets the connection stay open after its
 *  response: HTTP/1.1 without a `close` connection option. */
bool keepAlive(const HttpRequest &request);

/** Standard reason phrase for the statuses lemonsd emits. */
const char *reasonPhrase(int status);

/** Serialize status line, headers (Content-Length, extras, then
 *  `Connection: close` unless keepAlive), blank line, and body. */
std::string renderResponse(const HttpResponse &response);

} // namespace lemons::serve

#endif // LEMONS_SERVE_HTTP_H_
