#include "server/epoll_transport.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/watchdog.h"
#include "server/faults.h"
#include "server/net.h"

namespace square {

namespace {

/** epoll_data tags for the two non-connection event sources. */
constexpr uint64_t kWakeTag = 1;
constexpr uint64_t kListenTag = 2;

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** eventfd signal/drain with EINTR retry (signals must not be lost). */
void
eventfdSignal(int fd)
{
    while (::eventfd_write(fd, 1) != 0 && errno == EINTR) {
    }
}

void
eventfdDrain(int fd)
{
    eventfd_t ignored = 0;
    while (::eventfd_read(fd, &ignored) != 0 && errno == EINTR) {
    }
}

} // namespace

/**
 * The per-connection AsyncReplySink.  Holds the loop's completion
 * queue (shared, mutex-guarded: outlives every producer safely) plus
 * the connection id for routing.  The raw Conn pointer is used ONLY by
 * expectReply(), which the handler contract restricts to the loop
 * thread while the connection is alive.
 */
class EpollTransport::Sink final : public AsyncReplySink
{
  public:
    Sink(std::shared_ptr<CompletionQueue> cq, uint64_t id, Conn *conn)
        : cq_(std::move(cq)), id_(id), conn_(conn)
    {
    }

    void
    expectReply() override
    {
        ++conn_->pendingAsync; // loop thread, conn alive (contract)
    }

    void
    post(std::string &&bytes) override
    {
        std::lock_guard<std::mutex> lock(cq_->mu);
        if (!cq_->open)
            return; // transport stopped: drop, never touch the fd
        const bool was_empty = cq_->items.empty();
        cq_->items.emplace_back(id_, std::move(bytes));
        // Signal under the lock: stop() closes wakeFd only after
        // flipping open=false under this same mutex.
        if (was_empty)
            eventfdSignal(cq_->wakeFd);
    }

  private:
    std::shared_ptr<CompletionQueue> cq_;
    const uint64_t id_;
    Conn *const conn_;
};

EpollTransport::EpollTransport()
    : acceptedC_(metrics_.counter("accepted")),
      rejectedC_(metrics_.counter("rejected")),
      linesC_(metrics_.counter("lines")),
      activeG_(metrics_.gauge("active_connections")),
      readCallsC_(metrics_.counter("read_calls")),
      writeCallsC_(metrics_.counter("write_calls")),
      flushesC_(metrics_.counter("flushes")),
      batchedRepliesC_(metrics_.counter("batched_replies")),
      maxFlushBatchG_(metrics_.gauge("max_flush_batch")),
      backpressuredC_(metrics_.counter("backpressured")),
      flushBatchH_(metrics_.histogram("flush_batch"))
{
}

EpollTransport::~EpollTransport() { stop(); }

bool
EpollTransport::start(const std::string &host, uint16_t port,
                      LineHandler handler, std::string &error)
{
    if (running_.load()) {
        error = "transport already running";
        return false;
    }
    uint16_t bound = 0;
    int fd = net::listenTcp(host, port, /*backlog=*/128, bound, error);
    if (fd < 0)
        return false;
    if (!setNonBlocking(fd)) {
        error = "cannot make listener non-blocking";
        net::closeFd(fd);
        return false;
    }

    epfd_ = ::epoll_create1(0);
    wakeFd_ = ::eventfd(0, EFD_NONBLOCK);
    if (epfd_ < 0 || wakeFd_ < 0) {
        error = "epoll/eventfd creation failed";
        net::closeFd(epfd_);
        net::closeFd(wakeFd_);
        net::closeFd(fd);
        epfd_ = wakeFd_ = -1;
        return false;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = kWakeTag;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, wakeFd_, &ev);
    ev.data.u64 = kListenTag;
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);

    cq_ = std::make_shared<CompletionQueue>();
    cq_->wakeFd = wakeFd_;
    handler_ = std::move(handler);
    port_ = bound;
    listenFd_ = fd;
    running_.store(true);
    loop_ = std::thread([this] { runLoop(); });
    return true;
}

void
EpollTransport::stop()
{
    if (!running_.exchange(false))
        return;
    eventfdSignal(wakeFd_);
    if (loop_.joinable())
        loop_.join();
    net::closeFd(listenFd_);
    listenFd_ = -1;
    // Seal the completion queue BEFORE closing any fd: a worker
    // thread post()ing from now on sees open == false and drops its
    // bytes instead of signalling a closed (possibly reused) eventfd.
    // Pending completions die with their connections.
    {
        std::lock_guard<std::mutex> lock(cq_->mu);
        cq_->open = false;
        cq_->items.clear();
    }
    for (const auto &[fd, conn] : conns_) {
        net::shutdownFd(fd);
        net::closeFd(fd);
        activeG_.add(-1);
    }
    conns_.clear();
    byId_.clear();
    net::closeFd(epfd_);
    net::closeFd(wakeFd_);
    epfd_ = wakeFd_ = -1;
}

void
EpollTransport::runLoop()
{
    // Watchdog discipline: idle while parked in epoll_wait (silence
    // is expected), beat on every wakeup.  A loop that wakes up and
    // then wedges mid-processing (the read_stall_ms fault, a handler
    // bug) stays Active and silent — exactly what alarms.
    obs::WatchdogRegistration wd("epoll_loop");
    epoll_event events[128];
    while (running_.load(std::memory_order_acquire)) {
        wd.idle();
        int n = ::epoll_wait(epfd_, events,
                             static_cast<int>(std::size(events)), -1);
        wd.beat();
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const uint64_t tag = events[i].data.u64;
            if (tag == kWakeTag) {
                eventfdDrain(wakeFd_);
                drainCompletions();
                continue;
            }
            if (tag == kListenTag) {
                acceptReady();
                continue;
            }
            // epoll merges all readiness for one fd into one event
            // entry, so a destroyed Conn can never have a second,
            // dangling entry later in this batch.
            Conn &conn = *static_cast<Conn *>(events[i].data.ptr);
            const uint32_t ev = events[i].events;
            if ((ev & EPOLLOUT) != 0) {
                if (!serviceConn(conn))
                    continue;
            }
            if ((ev & (EPOLLIN | EPOLLERR | EPOLLHUP)) != 0)
                onReadable(conn);
        }
    }
}

void
EpollTransport::acceptReady()
{
    for (;;) {
        int fd = ::accept4(listenFd_, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue;
            if (errno != EAGAIN && errno != EWOULDBLOCK &&
                running_.load(std::memory_order_acquire)) {
                // Persistent accept failure (EMFILE under fd
                // exhaustion, typically): the level-triggered
                // listener would re-fire immediately, busy-spinning
                // this loop.  Back off briefly.
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
            break;
        }
        if (!running_.load(std::memory_order_acquire)) {
            net::closeFd(fd);
            break;
        }
        if (static_cast<size_t>(activeG_.value()) >= kMaxConnections) {
            rejectedC_.add(1);
            net::closeFd(fd);
            continue;
        }
        net::setNoDelay(fd);
        acceptedC_.add(1);
        activeG_.add(1);
        obs::recordEvent(obs::Comp::Transport, obs::Ev::Accept,
                         static_cast<uint64_t>(activeG_.value()));
        adoptConn(fd);
    }
}

void
EpollTransport::drainCompletions()
{
    std::vector<std::pair<uint64_t, std::string>> items;
    {
        std::lock_guard<std::mutex> lock(cq_->mu);
        items.swap(cq_->items);
    }
    for (auto &[id, bytes] : items) {
        auto it = byId_.find(id);
        if (it == byId_.end())
            continue; // connection died mid-compile: drop the bytes
        Conn &conn = *it->second;
        --conn.pendingAsync;
        conn.wbuf.bytes() += bytes;
        ++conn.batch;
        // serviceConn (not just flush): the completion may unblock
        // teardown, and parsing may have lines corked behind it.  It
        // may destroy the connection; later completions for the same
        // id then miss in byId and drop harmlessly.
        serviceConn(conn);
    }
}

void
EpollTransport::adoptConn(int fd)
{
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = nextConnId_++;
    conn->armed = EPOLLIN;
    conn->sink = std::make_shared<Sink>(cq_, conn->id, conn.get());
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
        // Shed: a connection that never became serviceable counts as
        // rejected, not accepted.
        acceptedC_.add(-1);
        rejectedC_.add(1);
        activeG_.add(-1);
        net::closeFd(fd);
        return;
    }
    byId_.emplace(conn->id, conn.get());
    conns_.emplace(fd, std::move(conn));
}

bool
EpollTransport::onReadable(Conn &conn)
{
    if (FaultInjector::instance().enabled())
        FaultInjector::instance().onReadStart();
    if (conn.draining) {
        // FIN already sent; discard inbound bytes until the peer
        // closes, so its kernel never RSTs an unread reply away.
        char scratch[4096];
        for (;;) {
            ssize_t n = ::recv(conn.fd, scratch, sizeof scratch, 0);
            readCallsC_.add(1);
            if (n > 0)
                continue;
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                return true;
            destroyConn(conn); // EOF or error: fully closed now
            return false;
        }
    }
    // Slurp until EAGAIN, bounded per wakeup so one firehose peer
    // cannot starve the loop's other connections.
    const size_t read_budget = 16 * kReadChunk;
    size_t read_now = 0;
    for (;;) {
        char *dst = conn.rbuf.prepare(kReadChunk);
        ssize_t n = ::recv(conn.fd, dst, kReadChunk, 0);
        readCallsC_.add(1);
        if (n > 0) {
            conn.rbuf.commit(static_cast<size_t>(n));
            read_now += static_cast<size_t>(n);
            if (conn.rbuf.atLimit() || read_now >= read_budget)
                break; // overflow pending, or budget spent: parse now
            continue;
        }
        conn.rbuf.commit(0);
        if (n == 0) {
            conn.sawEof = true;
            break;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break;
        destroyConn(conn);
        return false;
    }
    return serviceConn(conn);
}

void
EpollTransport::processLines(Conn &conn)
{
    while (!conn.closing && !conn.paused) {
        if (conn.wbuf.pending() > kWriteHighWater) {
            // Backpressure: stop parsing (and reading) until the peer
            // drains what it already owes us.
            conn.paused = true;
            backpressuredC_.add(1);
            obs::recordEvent(obs::Comp::Transport,
                             obs::Ev::Backpressure, conn.id,
                             conn.wbuf.pending());
            break;
        }
        std::string_view line;
        net::ReadBuffer::LineStatus st = conn.rbuf.nextLine(line);
        if (st == net::ReadBuffer::LineStatus::None)
            break;
        bool close_conn = st == net::ReadBuffer::LineStatus::Overflow;
        linesC_.add(1);
        const size_t before = conn.wbuf.bytes().size();
        handler_(line, conn.wbuf.bytes(), close_conn, conn.sink);
        if (conn.wbuf.bytes().size() != before)
            ++conn.batch;
        if (close_conn)
            conn.closing = true;
    }
    if (conn.sawEof && !conn.closing && !conn.paused) {
        if (conn.rbuf.hasTail()) {
            // Truncated trailing request: the handler still answers it
            // (structured parse error) before the wind-down.
            std::string_view tail = conn.rbuf.takeTail();
            bool close_conn = true;
            linesC_.add(1);
            const size_t before = conn.wbuf.bytes().size();
            handler_(tail, conn.wbuf.bytes(), close_conn, conn.sink);
            if (conn.wbuf.bytes().size() != before)
                ++conn.batch;
        }
        conn.closing = true;
    }
    conn.rbuf.compact();
}

void
EpollTransport::noteFlushBatch(int batch)
{
    flushesC_.add(1);
    batchedRepliesC_.add(batch);
    maxFlushBatchG_.noteMax(batch);
    flushBatchH_.record(batch);
    obs::recordEvent(obs::Comp::Transport, obs::Ev::Flush,
                     static_cast<uint64_t>(batch));
}

bool
EpollTransport::flushConn(Conn &conn)
{
    if (!conn.wbuf.empty()) {
        int64_t sends = 0;
        const int batch = std::exchange(conn.batch, 0);
        // Account the batch before send(): a peer that reads the
        // reply and immediately queries stats() must see it counted.
        if (batch > 0)
            noteFlushBatch(batch);
        if (FaultInjector::instance().enabled() &&
            FaultInjector::instance().shouldFailWrite()) {
            // Injected mid-write socket failure.
            destroyConn(conn);
            return false;
        }
        net::WriteBuffer::FlushStatus st =
            conn.wbuf.flush(conn.fd, sends);
        writeCallsC_.add(sends);
        if (st == net::WriteBuffer::FlushStatus::Error) {
            destroyConn(conn);
            return false;
        }
    }
    // Wind-down gates on pendingAsync: a connection that owes async
    // replies stays alive (even through EOF) until the last one lands
    // — zero disconnect-without-reply by construction.
    if (conn.closing && conn.wbuf.empty() && conn.pendingAsync == 0) {
        if (conn.sawEof) {
            // Peer's write half is already closed: nothing left to
            // drain, tear down now.
            destroyConn(conn);
            return false;
        }
        if (!conn.draining) {
            ::shutdown(conn.fd, SHUT_WR);
            conn.draining = true;
        }
    }
    return true;
}

bool
EpollTransport::serviceConn(Conn &conn)
{
    for (;;) {
        processLines(conn);
        if (!flushConn(conn))
            return false;
        if (conn.paused && !conn.closing &&
            conn.wbuf.pending() <= kWriteLowWater) {
            // Drained below the low-water mark: resume parsing the
            // lines still buffered (and reading new ones).
            conn.paused = false;
            continue;
        }
        break;
    }
    updateInterest(conn);
    return true;
}

void
EpollTransport::updateInterest(Conn &conn)
{
    uint32_t want = 0;
    // After EOF there is nothing left to read, and a level-triggered
    // EPOLLIN would fire forever while a blocked reply waits.
    if (!conn.paused && !conn.sawEof)
        want |= EPOLLIN;
    if (conn.wbuf.pending() > 0)
        want |= EPOLLOUT;
    if (want == conn.armed)
        return;
    epoll_event ev{};
    ev.events = want;
    ev.data.ptr = &conn;
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, conn.fd, &ev);
    conn.armed = want;
}

void
EpollTransport::destroyConn(Conn &conn)
{
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, conn.fd, nullptr);
    net::shutdownFd(conn.fd);
    net::closeFd(conn.fd);
    activeG_.add(-1);
    obs::recordEvent(obs::Comp::Transport, obs::Ev::Disconnect,
                     conn.id);
    // In-flight completions for this id now miss in byId and drop;
    // the Sink object itself stays alive (shared_ptr in the done
    // callbacks) but only ever touches the mutex-guarded queue.
    byId_.erase(conn.id);
    conns_.erase(conn.fd); // frees conn — last use
}

TransportStats
EpollTransport::stats() const
{
    TransportStats s;
    s.accepted = acceptedC_.value();
    s.rejected = rejectedC_.value();
    s.lines = linesC_.value();
    s.active = activeG_.value();
    s.readCalls = readCallsC_.value();
    s.writeCalls = writeCallsC_.value();
    s.flushes = flushesC_.value();
    s.batchedReplies = batchedRepliesC_.value();
    s.maxFlushBatch = maxFlushBatchG_.value();
    s.backpressured = backpressuredC_.value();
    return s;
}

} // namespace square
