/**
 * @file
 * Per-connection I/O buffers for the serving tier's transports.
 *
 * The framing rules of the NDJSON protocol live here, factored out of
 * any particular I/O model so the blocking LineReader (net.h) and the
 * epoll event loop (epoll_transport.h) share one implementation:
 *
 *  - ReadBuffer accumulates raw bytes and hands back complete lines as
 *    string_views — no per-line allocation, no per-line memmove; the
 *    consumed prefix is dropped in one batched compact() between
 *    reads.  A peer that streams bytes without a newline is bounded by
 *    kMaxLine: past it the buffer is discarded and a short prefix
 *    is surfaced as an Overflow line (the serving layer answers it
 *    with a diagnostic and drops the connection).
 *
 *  - WriteBuffer is the corked reply buffer: every reply for a batch
 *    of pipelined requests is appended back-to-back and flushed with
 *    as few send() calls as the socket allows — one, when the peer
 *    keeps up.  Unsent bytes survive partial writes (EAGAIN) so the
 *    event loop can re-arm write interest and resume.
 *
 * Neither class owns a file descriptor; callers drive recv()/send()
 * (ReadBuffer via prepare()/commit() so bytes land directly in place).
 */

#ifndef SQUARE_SERVER_CONN_BUFFER_H
#define SQUARE_SERVER_CONN_BUFFER_H

#include <cstdint>
#include <string>
#include <string_view>

namespace square::net {

class ReadBuffer
{
  public:
    enum class LineStatus {
        Line,    ///< one complete line extracted
        None,    ///< no complete line buffered (read more)
        Overflow ///< line cap exceeded; a short prefix was extracted
    };

    /** Line cap: far above any legitimate protocol line. */
    static constexpr size_t kMaxLine = 1u << 20;

    /** Length of the prefix surfaced for an Overflow line. */
    static constexpr size_t kOverflowPrefix = 200;

    /**
     * Reserve @p n writable bytes and return the append position (for
     * recv() straight into the buffer).  Must be paired with commit().
     * Invalidates previously returned views.
     */
    char *prepare(size_t n);

    /** Record that @p n of the prepared bytes were filled. */
    void commit(size_t n);

    /** Append a copy of @p n bytes (convenience for tests/clients). */
    void append(const char *data, size_t n);

    /**
     * Extract the next complete line (excluding '\n', trailing '\r'
     * stripped).  The view stays valid until the next prepare(),
     * append(), or compact().  Overflow discards the buffered bytes
     * and hands back a short prefix for diagnostics.
     */
    LineStatus nextLine(std::string_view &line);

    /** Unconsumed bytes buffered (a partial trailing line, usually). */
    size_t pending() const { return buf_.size() - pos_; }

    /** True when a truncated tail is buffered (EOF mid-line). */
    bool hasTail() const { return pending() > 0; }

    /** True when pending unframed bytes exceed the line cap. */
    bool atLimit() const { return pending() > kMaxLine; }

    /**
     * Consume the truncated tail (EOF hit mid-line).  Same view
     * lifetime as nextLine().
     */
    std::string_view takeTail();

    /** Drop the consumed prefix (amortized; call between read bursts). */
    void compact();

  private:
    std::string buf_;
    /** Owns the Overflow prefix so the view survives the discard. */
    std::string overflow_;
    size_t pos_ = 0;      ///< consumed prefix
    size_t scan_ = 0;     ///< newline-scan frontier (no rescans)
    size_t prepared_ = 0; ///< buf_ size at the last prepare()
};

class WriteBuffer
{
  public:
    enum class FlushStatus {
        Drained, ///< everything written
        Blocked, ///< partial write; re-arm write interest
        Error    ///< connection-fatal write error
    };

    /** The append area: replies (with newlines) are corked here. */
    std::string &bytes() { return buf_; }

    size_t pending() const { return buf_.size() - pos_; }
    bool empty() const { return pending() == 0; }

    /**
     * Write as much pending data as the (non-blocking) socket accepts;
     * @p sys_calls is incremented per send() issued.
     */
    FlushStatus flush(int fd, int64_t &sys_calls);

  private:
    std::string buf_;
    size_t pos_ = 0; ///< bytes already written
};

} // namespace square::net

#endif // SQUARE_SERVER_CONN_BUFFER_H
