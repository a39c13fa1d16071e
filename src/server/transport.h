/**
 * @file
 * The handler contract of the serving tier's transport.
 *
 * The transport (EpollTransport, epoll_transport.h) owns a listening
 * socket and delivers newline-framed request lines to a LineHandler,
 * writing whatever the handler appends back to the peer.
 *
 * Handler contract: called with one request line (without the
 * newline); the handler appends the complete framed reply — including
 * the trailing '\n' — to @p out, or appends nothing for protocol
 * no-ops.  Setting @p close_conn winds the connection down after the
 * pending replies are written.  Handlers are called concurrently from
 * event-loop threads and must be thread-safe.
 *
 * Asynchronous replies: the handler's fourth argument is the
 * connection's AsyncReplySink.  A handler that wants to defer a reply
 * (a cold compile dispatched to a worker pool) calls expectReply()
 * before returning — synchronously, on the event-loop thread — and
 * later, from any thread, post()s the framed reply bytes.  The
 * transport routes the bytes back to the owning event loop (completion
 * queue + eventfd wake), so a slow compile never stalls the loop's
 * other connections.  post() is safe after the connection dies: the
 * bytes are dropped, never written to a closed or reused fd.  Replies
 * on one connection may interleave out of request order once a request
 * goes asynchronous; clients match replies by id.
 */

#ifndef SQUARE_SERVER_TRANSPORT_H
#define SQUARE_SERVER_TRANSPORT_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

namespace square {

/** Monotonic transport counters (syscall and batch accounting). */
struct TransportStats
{
    int64_t accepted = 0; ///< connections accepted since start()
    int64_t rejected = 0; ///< connections refused at the cap
    int64_t lines = 0;    ///< request lines handled
    int64_t active = 0;   ///< connections currently open
    int64_t readCalls = 0;  ///< recv() syscalls issued
    int64_t writeCalls = 0; ///< send() syscalls issued
    int64_t flushes = 0;    ///< reply batches written
    int64_t batchedReplies = 0; ///< replies coalesced into flushes
    int64_t maxFlushBatch = 0;  ///< largest reply batch in one flush
    int64_t backpressured = 0;  ///< read pauses under write pressure
};

/**
 * Per-connection sink for asynchronously completed replies.  Handed to
 * the LineHandler; see the handler contract in the file comment.
 *
 * Threading: expectReply() may only be called on the event-loop
 * thread, inside the handler invocation it was handed to (it marks the
 * connection as owing one more reply).  post() may be called from any
 * thread, any time — including after the connection is gone, in which
 * case the bytes are dropped.  Each expectReply() must be matched by
 * exactly one post().
 */
class AsyncReplySink
{
  public:
    virtual ~AsyncReplySink() = default;

    /** Declare one pending async reply (event-loop thread only). */
    virtual void expectReply() = 0;

    /** Deliver one framed reply line, trailing '\n' included. */
    virtual void post(std::string &&bytes) = 0;
};

/**
 * Handler for one request line: append the framed reply (with the
 * trailing newline) to @p out, or nothing for a no-op line.  Set
 * @p close_conn to drop the connection once replies are written.
 * @p async is the connection's completion sink.
 */
using LineHandler = std::function<void(
    std::string_view line, std::string &out, bool &close_conn,
    const std::shared_ptr<AsyncReplySink> &async)>;

} // namespace square

#endif // SQUARE_SERVER_TRANSPORT_H
