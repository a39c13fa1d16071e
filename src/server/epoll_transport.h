/**
 * @file
 * Epoll-multiplexed event-loop transport: the serving tier's only
 * transport (the handler contract is in transport.h).
 *
 * Thread-per-connection serving pays a dedicated-thread wakeup and at
 * least one recv()+send() pair per request.  This transport
 * multiplexes all connections over one event-loop thread per process
 * (memcached/redis lineage — see PAPERS.md); to scale out, run more
 * shard daemons behind square_router:
 *
 *  - every socket is non-blocking; readiness is level-triggered epoll;
 *  - the loop thread accepts every connection and owns it for its
 *    whole life, so per-connection state needs no locks — an
 *    invariant TSan checks in CI;
 *  - a read slurps until EAGAIN, then every complete buffered line is
 *    parsed and handled back-to-back; the replies of that pipelined
 *    batch are corked into the connection's WriteBuffer and flushed
 *    with one gathered send() — syscalls per request approach 2/B for
 *    pipeline depth B, instead of a fixed 2;
 *  - write interest (EPOLLOUT) is armed only while unsent bytes are
 *    pending, and re-disarmed on drain;
 *  - backpressure: when a connection's pending replies exceed the
 *    high-water mark, the loop stops parsing (and stops reading —
 *    EPOLLIN is disarmed) until the peer drains below the low-water
 *    mark, so a slow reader bounds its own memory, not the server's.
 *
 * Framing at teardown: EOF with a truncated trailing line still
 * delivers the tail to the handler and writes the reply; line-cap
 * overflow answers a short prefix and disconnects.  A connection being
 * closed by the server first gets a FIN (shutdown(SHUT_WR)) and has its
 * remaining inbound bytes drained, so the peer's kernel never RSTs away
 * a reply it hasn't read yet.
 *
 * Asynchronous completions: handlers still run on the event loop, so
 * a *blocking* handler would stall every connection — which is why
 * the server's cold path doesn't block.  The loop owns a completion
 * queue; a handler that goes asynchronous (sink->expectReply())
 * returns immediately, and the worker thread later post()s the framed
 * reply bytes, which enqueue under the queue's mutex and wake the loop
 * through its eventfd (the same wake stop() uses).  The loop drains
 * completions on its own thread: it routes each by connection id (a
 * dead connection drops its bytes — nothing ever writes to a closed
 * or reused fd), appends to the write buffer, and flushes.  A
 * connection with outstanding async replies is kept alive through
 * EOF/close until the last one lands (or the peer vanishes).
 */

#ifndef SQUARE_SERVER_EPOLL_TRANSPORT_H
#define SQUARE_SERVER_EPOLL_TRANSPORT_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "server/conn_buffer.h"
#include "server/transport.h"

namespace square {

class EpollTransport final
{
  public:
    /** Multiplexed connections are cheap; the cap is an fd budget. */
    static constexpr size_t kMaxConnections = 4096;
    /** Pending-reply bytes above which a connection stops reading. */
    static constexpr size_t kWriteHighWater = 1u << 20;
    /** Pending-reply bytes below which reading resumes. */
    static constexpr size_t kWriteLowWater = 64u << 10;
    /** recv() chunk size, and the per-wakeup read budget multiplier. */
    static constexpr size_t kReadChunk = 16u << 10;

    EpollTransport();
    ~EpollTransport();

    EpollTransport(const EpollTransport &) = delete;
    EpollTransport &operator=(const EpollTransport &) = delete;

    /**
     * Bind @p host:@p port (port 0 picks an ephemeral port) and start
     * serving.  Returns false with a message on failure.
     */
    bool start(const std::string &host, uint16_t port,
               LineHandler handler, std::string &error);

    /** The actual bound port (after start()). */
    uint16_t port() const { return port_; }

    /**
     * Shut down: close the listener and every live connection, join
     * the event-loop thread.  Idempotent; must not be called from the
     * event-loop thread.
     */
    void stop();

    TransportStats stats() const;

    /**
     * The transport's metrics registry (obs/metrics.h), for the
     * {"cmd": "metrics"} Prometheus exposition; stats() is the
     * structured view of the same counters.
     */
    const obs::Registry &metricsRegistry() const { return metrics_; }

  private:
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;      ///< routing key for async completions
        net::ReadBuffer rbuf;
        net::WriteBuffer wbuf;
        uint32_t armed = 0;   ///< epoll interest currently registered
        int batch = 0;        ///< replies corked since the last flush
        int pendingAsync = 0; ///< replies owed by worker threads
        bool paused = false;  ///< EPOLLIN off (write backpressure)
        bool sawEof = false;  ///< peer's write half closed
        bool closing = false; ///< no more requests; close after drain
        bool draining = false;///< FIN sent; discarding reads until EOF
        /** This connection's async completion sink (see Sink, .cc). */
        std::shared_ptr<AsyncReplySink> sink;
    };

    /**
     * The cross-thread half of the loop: worker threads push framed
     * reply bytes here (keyed by connection id) and kick the loop's
     * eventfd.  `open` flips false under `mu` during stop(), BEFORE
     * the eventfd closes — so no post() can ever write to a closed
     * (possibly reused) descriptor.
     */
    struct CompletionQueue
    {
        std::mutex mu;
        bool open = true;
        int wakeFd = -1;
        std::vector<std::pair<uint64_t, std::string>> items;
    };

    class Sink;

    void runLoop();
    void acceptReady();
    void adoptConn(int fd);
    void drainCompletions();
    /** All return false when the connection was destroyed. */
    bool onReadable(Conn &conn);
    bool serviceConn(Conn &conn);
    bool flushConn(Conn &conn);
    void processLines(Conn &conn);
    void updateInterest(Conn &conn);
    void destroyConn(Conn &conn);
    void noteFlushBatch(int batch);

    LineHandler handler_;
    uint16_t port_ = 0;
    int listenFd_ = -1;
    int epfd_ = -1;
    int wakeFd_ = -1;
    std::atomic<bool> running_{false};
    /** Loop-thread-only state: the owned connections and their ids. */
    std::unordered_map<int, std::unique_ptr<Conn>> conns_;
    std::unordered_map<uint64_t, Conn *> byId_;
    uint64_t nextConnId_ = 1;
    /** Shared with every Sink, which may outlive the transport. */
    std::shared_ptr<CompletionQueue> cq_;

    /**
     * Telemetry (obs/metrics.h): the registry owns every transport
     * counter — stats() is a view over it — plus the flush-batch
     * distribution, which TransportStats summarizes as a max.
     * References resolved once at construction; the per-line cost is
     * one relaxed fetch_add, same as the raw atomics it replaced.
     */
    obs::Registry metrics_;
    obs::Counter &acceptedC_;
    obs::Counter &rejectedC_;
    obs::Counter &linesC_;
    obs::Gauge &activeG_;
    obs::Counter &readCallsC_;
    obs::Counter &writeCallsC_;
    obs::Counter &flushesC_;
    obs::Counter &batchedRepliesC_;
    obs::Gauge &maxFlushBatchG_;
    obs::Counter &backpressuredC_;
    obs::Histogram &flushBatchH_;

    /** The event-loop thread; declared last, as it uses every member. */
    std::thread loop_;
};

} // namespace square

#endif // SQUARE_SERVER_EPOLL_TRANSPORT_H
