/**
 * @file
 * Minimal POSIX TCP helpers shared by the server tier's transport and
 * client (no third-party networking dependency; plain sockets).
 *
 * Everything here is loopback-grade plumbing: open/connect/close,
 * full-buffer sends, and a buffered newline-framed reader.  Error
 * reporting is by message string — the server tier's contract is that
 * transport failures become structured replies or dropped connections,
 * never aborts.
 */

#ifndef SQUARE_SERVER_NET_H
#define SQUARE_SERVER_NET_H

#include <cstdint>
#include <string>
#include <string_view>

#include "server/conn_buffer.h"

namespace square::net {

/**
 * Split "HOST:PORT" at its last ':' — the one parser of every shard,
 * router and dashboard address.  False unless HOST is non-empty and
 * PORT is a whole decimal number in [1, 65535].
 */
bool splitHostPort(std::string_view address, std::string &host,
                   uint16_t &port);

/**
 * Open a TCP listener bound to @p host:@p port (port 0 picks an
 * ephemeral port; @p bound_port receives the actual one).  Returns the
 * listening fd, or -1 with a message in @p error.
 */
int listenTcp(const std::string &host, uint16_t port, int backlog,
              uint16_t &bound_port, std::string &error);

/** Blocking connect; returns the fd, or -1 with a message. */
int connectTcp(const std::string &host, uint16_t port,
               std::string &error);

/**
 * Send the whole buffer (SIGPIPE suppressed); false on any failure.
 * When @p sys_calls is non-null it is incremented per send() issued.
 */
bool sendAll(int fd, const char *data, size_t len,
             int64_t *sys_calls = nullptr);

/** Send @p line plus the terminating newline (pass an rvalue on hot
    paths: the newline is appended in place, no copy). */
inline bool
sendLine(int fd, std::string line)
{
    line.push_back('\n');
    return sendAll(fd, line.data(), line.size());
}

/**
 * Disable Nagle on a connected socket.  Protocol replies are small
 * and latency-bound: without NODELAY a pipelined peer pays Nagle +
 * delayed-ACK stalls (~40 ms).  Both transports and the client call
 * this on every connection.
 */
void setNoDelay(int fd);

/**
 * Bound every blocking send() on @p fd to @p ms milliseconds (at
 * least 1; SO_SNDTIMEO): a send to a peer that stops reading then
 * fails instead of blocking forever once the socket buffers fill.
 */
void setSendTimeout(int fd, double ms);

/** Best-effort full-duplex shutdown (wakes blocked reads). */
void shutdownFd(int fd);

/** Close, ignoring errors. */
void closeFd(int fd);

/**
 * Buffered newline-framed reader over a connected socket.
 *
 * A "line" is bytes up to (and excluding) '\n', with a trailing '\r'
 * stripped.  A connection that closes mid-line yields that truncated
 * tail as Status::Partial — the server replies to it (typically with a
 * structured parse error) instead of dropping it silently.
 *
 * Lines are capped at ReadBuffer::kMaxLine bytes: a peer that streams
 * bytes without ever sending a newline must not grow server memory
 * without bound.  On overflow the buffer is discarded and a short
 * prefix is handed back as Status::Overflow — the serving layer answers
 * it (with a parse error, for the NDJSON protocol) and drops the
 * connection.
 *
 * Framing is delegated to ReadBuffer (conn_buffer.h) — the same
 * implementation the epoll transport multiplexes — so nextView() hands
 * out lines with zero copies: the view stays valid until the next
 * call.  next() keeps the copying contract for callers that store the
 * line.
 */
class LineReader
{
  public:
    enum class Status {
        Line,     ///< @p out holds one complete line
        Partial,  ///< EOF hit mid-line; @p out holds the truncated tail
        Eof,      ///< clean EOF, no pending bytes
        Error,    ///< read error (connection reset, etc.)
        Overflow  ///< line exceeded the cap; @p out holds a prefix
    };

    explicit LineReader(int fd) : fd_(fd) {}

    /** Read the next line (blocking); copies into @p out. */
    Status next(std::string &out);

    /**
     * Read the next line (blocking) without copying: the view borrows
     * the reader's buffer and is invalidated by the next call.
     */
    Status nextView(std::string_view &out);

  private:
    int fd_;
    ReadBuffer buf_;
    bool eof_ = false;
};

} // namespace square::net

#endif // SQUARE_SERVER_NET_H
