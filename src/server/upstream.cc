#include "server/upstream.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.h"
#include "server/faults.h"
#include "server/net.h"
#include "service/protocol.h"

namespace square {

UpstreamPool::UpstreamPool(std::vector<std::string> addresses,
                           UpstreamConfig cfg)
    : cfg_(cfg),
      forwardedC_(metrics_.counter("forwarded")),
      repliesC_(metrics_.counter("replies")),
      shardDownC_(metrics_.counter("shard_down_replies")),
      reconnectsC_(metrics_.counter("reconnects")),
      pingFailuresC_(metrics_.counter("ping_failures")),
      failoversC_(metrics_.counter("failovers")),
      forwardRttUs_(metrics_.histogram("forward_rtt_us"))
{
    if (addresses.empty())
        addressError_ = "upstream pool needs >= 1 shard";
    shards_.reserve(addresses.size());
    for (auto &address : addresses) {
        auto shard = std::make_unique<Shard>();
        if (!net::splitHostPort(address, shard->host, shard->port)) {
            addressError_ = "bad shard address '" + address + "'";
            break;
        }
        shard->address = address;
        if (!addrIndex_
                 .emplace(address, static_cast<int>(shards_.size()))
                 .second) {
            addressError_ = "duplicate shard address '" + address + "'";
            break;
        }
        shards_.push_back(std::move(shard));
    }
}

UpstreamPool::~UpstreamPool() { stop(); }

bool
UpstreamPool::start(std::string &error)
{
    if (!addressError_.empty()) {
        error = addressError_;
        return false;
    }
    for (size_t i = 0; i < shards_.size(); ++i) {
        std::string connect_error;
        if (!connectShard(i, /*redial=*/false, connect_error)) {
            // Down at start is not fatal: the health loop keeps
            // dialing, and the ring serves the survivors meanwhile.
            std::fprintf(stderr,
                         "upstream: shard %s down at start: %s\n",
                         shards_[i]->address.c_str(),
                         connect_error.c_str());
        }
    }
    health_ = std::thread([this] { healthLoop(); });
    started_ = true;
    error.clear();
    return true;
}

void
UpstreamPool::stop()
{
    if (!started_)
        return;
    started_ = false;
    stopping_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(healthMu_);
        healthCv_.notify_all();
    }
    if (health_.joinable())
        health_.join();
    for (auto &shard : shards_) {
        {
            std::lock_guard<std::mutex> lock(shard->sendMu);
            if (shard->fd >= 0)
                net::shutdownFd(shard->fd);
        }
        if (shard->reader.joinable())
            shard->reader.join();
        std::lock_guard<std::mutex> lock(shard->sendMu);
        if (shard->fd >= 0) {
            net::closeFd(shard->fd);
            shard->fd = -1;
        }
        shard->up.store(false, std::memory_order_release);
    }
    // Nothing can append to pending_ anymore (readers joined, the
    // transport that calls forward() is stopped before its pool);
    // flush whatever was still in flight so no client waits forever.
    std::unordered_map<uint64_t, Pending> orphaned;
    {
        std::lock_guard<std::mutex> lock(pendingMu_);
        orphaned.swap(pending_);
    }
    for (auto &[seq, entry] : orphaned) {
        (void)seq;
        flushShardDown(entry, /*failover=*/false);
    }
}

int
UpstreamPool::upCount() const
{
    int up = 0;
    for (const auto &shard : shards_)
        if (shard->up.load(std::memory_order_acquire))
            ++up;
    return up;
}

const std::string &
UpstreamPool::address(int shard) const
{
    return shards_[static_cast<size_t>(shard)]->address;
}

bool
UpstreamPool::isUp(int shard) const
{
    return shards_[static_cast<size_t>(shard)]->up.load(
        std::memory_order_acquire);
}

int
UpstreamPool::ownerOf(const CacheKey &key) const
{
    const uint64_t hash = CacheKeyHash{}(key);
    std::shared_lock<std::shared_mutex> lock(ringMu_);
    const int ring_index = ring_.ownerIndex(hash);
    if (ring_index < 0)
        return -1;
    return addrIndex_.at(ring_.members()[static_cast<size_t>(
        ring_index)]);
}

bool
UpstreamPool::sendOn(Shard &s, const char *data, size_t len)
{
    std::lock_guard<std::mutex> lock(s.sendMu);
    if (s.fd < 0 || !s.up.load(std::memory_order_acquire))
        return false;
    FaultInjector &faults = FaultInjector::instance();
    if (faults.enabled()) {
        const uint64_t budget = faults.resetAfterBytes();
        if (budget > 0 && s.bytesSent >= budget) {
            // Simulated peer reset: the send "fails mid-line", the
            // connection is torn down by the caller's markDown().
            faults.noteConnectionReset();
            return false;
        }
    }
    if (!net::sendAll(s.fd, data, len))
        return false;
    s.bytesSent += len;
    return true;
}

bool
UpstreamPool::connectShard(size_t idx, bool redial, std::string &error)
{
    Shard &s = *shards_[idx];
    // A previous reader (if any) has exited by now: this is only
    // called before start() completes or from the health loop after
    // the shard was marked down (which shuts the fd down, unblocking
    // the reader).
    if (s.reader.joinable())
        s.reader.join();
    {
        std::lock_guard<std::mutex> lock(s.sendMu);
        if (s.fd >= 0) {
            net::closeFd(s.fd);
            s.fd = -1;
        }
    }
    if (FaultInjector::instance().shouldFailConnect()) {
        error = "injected connect failure";
        return false;
    }
    const int fd = net::connectTcp(s.host, s.port, error);
    if (fd < 0)
        return false;
    // Sends run under sendMu, forward()'s on the router's one event
    // loop: a send stuck on a shard that stopped reading would hang
    // every client and the health loop's pings with it.  Bound it by
    // the health loop's own ejection window, so such a send fails
    // like any send error and the shard is marked down.
    net::setSendTimeout(fd, pingIntervalMs() *
                                std::max(1, cfg_.failureThreshold));
    {
        std::lock_guard<std::mutex> lock(s.sendMu);
        s.fd = fd;
        s.bytesSent = 0;
    }
    s.healthFailures.store(0, std::memory_order_relaxed);
    s.pingInFlight.store(0, std::memory_order_relaxed);
    s.reader = std::thread([this, idx, fd] { readerLoop(idx, fd); });
    // Counted before the shard shows as up, so stats() never reads a
    // rejoined shard without its reconnect.
    if (redial) {
        reconnectsC_.add(1);
        obs::recordEvent(obs::Comp::Upstream, obs::Ev::Redial, idx);
    }
    s.up.store(true, std::memory_order_release);
    {
        std::unique_lock<std::shared_mutex> lock(ringMu_);
        ring_.add(s.address);
    }
    return true;
}

void
UpstreamPool::markDown(size_t idx)
{
    Shard &s = *shards_[idx];
    if (!s.up.exchange(false, std::memory_order_acq_rel))
        return; // another path already handled this down-transition
    {
        std::unique_lock<std::shared_mutex> lock(ringMu_);
        ring_.remove(s.address);
    }
    {
        // Wake the reader (blocked in recv) so it can exit; the fd is
        // closed later, by the redial or by stop(), after the join —
        // never while the reader might still be using it.
        std::lock_guard<std::mutex> lock(s.sendMu);
        if (s.fd >= 0)
            net::shutdownFd(s.fd);
    }
    s.pingInFlight.store(0, std::memory_order_relaxed);
    // Flush every request parked on this shard: each gets a structured
    // shard_down so its client can retry instead of hanging.  Requests
    // that race in after the swap are caught by forward()'s own
    // failure path (the send fails on the shut-down fd).
    std::vector<Pending> flushed;
    {
        std::lock_guard<std::mutex> lock(pendingMu_);
        for (auto it = pending_.begin(); it != pending_.end();) {
            if (it->second.shard == static_cast<int>(idx)) {
                flushed.push_back(std::move(it->second));
                it = pending_.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (auto &entry : flushed)
        flushShardDown(entry, /*failover=*/true, /*event_a1=*/0);
    obs::recordEvent(obs::Comp::Upstream, obs::Ev::ShardDown, idx,
                     flushed.size());
}

void
UpstreamPool::postShardDown(uint64_t seq)
{
    Pending entry;
    {
        std::lock_guard<std::mutex> lock(pendingMu_);
        auto it = pending_.find(seq);
        if (it == pending_.end())
            return; // already answered or flushed: exactly-once holds
        entry = std::move(it->second);
        pending_.erase(it);
    }
    flushShardDown(entry, /*failover=*/true, /*event_a1=*/1);
}

void
UpstreamPool::flushShardDown(Pending &entry, bool failover,
                             uint64_t event_a1)
{
    if (entry.sink == nullptr)
        return; // a ping; nobody is waiting on it
    std::string line;
    formatRefusalTo(line, entry.idPrefix, "shard_down", cfg_.retryAfterMs);
    line += '\n';
    if (failover) {
        failoversC_.add(1);
        obs::recordEvent(obs::Comp::Upstream, obs::Ev::Failover,
                         entry.shard >= 0
                             ? static_cast<uint64_t>(entry.shard)
                             : 0,
                         event_a1,
                         entry.trace != nullptr ? entry.trace->id() : 0);
    }
    shardDownC_.add(1);
    noteForwardDone(entry, /*ok=*/false);
    entry.sink->post(std::move(line));
}

void
UpstreamPool::forward(int shard, uint64_t seq,
                      std::shared_ptr<AsyncReplySink> sink,
                      std::string id_prefix, std::string &&line,
                      std::shared_ptr<obs::Trace> trace)
{
    Shard &s = *shards_[static_cast<size_t>(shard)];
    const uint64_t trace_id = trace != nullptr ? trace->id() : 0;
    {
        std::lock_guard<std::mutex> lock(pendingMu_);
        pending_.emplace(seq,
                         Pending{std::move(sink), std::move(id_prefix),
                                 shard, obs::SpanClock::now(),
                                 std::move(trace)});
    }
    line += '\n';
    if (sendOn(s, line.data(), line.size())) {
        forwardedC_.add(1);
        // Traced forwards only: the event ties a trace id to the shard
        // the router picked without taxing the untraced fast path.
        if (trace_id != 0)
            obs::recordEvent(obs::Comp::Upstream, obs::Ev::Forward,
                             static_cast<uint64_t>(shard), seq,
                             trace_id);
        return;
    }
    // The send failed (dead shard, injected reset, or a down-race):
    // tear the shard down and answer this request.  markDown() may
    // have already flushed our entry from a concurrent path — the
    // atomic pop inside postShardDown() keeps the post exactly-once.
    markDown(static_cast<size_t>(shard));
    postShardDown(seq);
}

void
UpstreamPool::noteForwardDone(Pending &entry, bool ok)
{
    if (entry.sink == nullptr)
        return; // a ping: no client request to account
    const int64_t rtt = obs::microsSince(entry.sent);
    if (ok)
        forwardRttUs_.record(rtt);
    if (entry.trace == nullptr)
        return;
    // forward() is the router's last touch point for the request, so
    // the trace is emitted here, with the reply (or the failover) in
    // hand.  The span covers send-to-demultiplex: shard queueing and
    // service live inside it, wire time is the difference against the
    // shard's own spans.
    entry.trace->addSpan("forward", entry.sent.wallUs, rtt);
    if (entry.trace->sampled())
        obs::TraceLog::instance().emit(*entry.trace, "router");
}

void
UpstreamPool::handleReply(size_t idx, std::string_view line)
{
    Shard &s = *shards_[idx];
    uint64_t seq = 0;
    std::string_view rest;
    if (!parseReplyId(line, seq, rest))
        return; // not a framed reply; drop (peer is not a shard)
    Pending entry;
    {
        std::lock_guard<std::mutex> lock(pendingMu_);
        auto it = pending_.find(seq);
        if (it == pending_.end())
            return; // flushed as shard_down before the reply landed
        entry = std::move(it->second);
        pending_.erase(it);
    }
    // Any demultiplexed reply proves the shard is responsive.
    s.healthFailures.store(0, std::memory_order_relaxed);
    if (entry.sink == nullptr) {
        // Ping replies carry no client; clearing the in-flight marker
        // is the acknowledgment the health loop looks for.
        uint64_t expected = seq;
        s.pingInFlight.compare_exchange_strong(
            expected, 0, std::memory_order_acq_rel);
        return;
    }
    repliesC_.add(1);
    noteForwardDone(entry, /*ok=*/true);
    // Reconstitute the client's framing: swap the router's correlation
    // id back out for the id the client sent.
    std::string out;
    out.reserve(1 + entry.idPrefix.size() + rest.size() + 1);
    out += '{';
    out += entry.idPrefix;
    out += rest;
    out += '\n';
    entry.sink->post(std::move(out));
}

void
UpstreamPool::readerLoop(size_t idx, int fd)
{
    net::LineReader reader(fd);
    std::string_view line;
    for (;;) {
        const net::LineReader::Status status = reader.nextView(line);
        if (status != net::LineReader::Status::Line)
            break; // EOF / reset / overflow: the connection is gone
        handleReply(idx, line);
    }
    if (!stopping_.load(std::memory_order_acquire))
        markDown(idx);
}

void
UpstreamPool::sendPing(size_t idx)
{
    Shard &s = *shards_[idx];
    const uint64_t seq = allocSeq();
    {
        std::lock_guard<std::mutex> lock(pendingMu_);
        pending_.emplace(
            seq, Pending{nullptr, std::string(),
                         static_cast<int>(idx), {}, {}});
    }
    s.pingInFlight.store(seq, std::memory_order_release);
    char line[64];
    const int len = std::snprintf(line, sizeof line,
                                  "{\"id\": %llu, \"cmd\": \"ping\"}\n",
                                  static_cast<unsigned long long>(seq));
    if (!sendOn(s, line, static_cast<size_t>(len))) {
        pingFailuresC_.add(1);
        markDown(idx);
        postShardDown(seq); // pops the ping entry if still present
    }
}

void
UpstreamPool::healthLoop()
{
    const auto interval =
        std::chrono::duration<double, std::milli>(pingIntervalMs());
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(healthMu_);
            healthCv_.wait_for(lock, interval, [this] {
                return stopping_.load(std::memory_order_acquire);
            });
        }
        if (stopping_.load(std::memory_order_acquire))
            return;
        for (size_t i = 0; i < shards_.size(); ++i) {
            Shard &s = *shards_[i];
            if (!s.up.load(std::memory_order_acquire)) {
                // Redial: a shard that answers again rejoins the ring,
                // reclaiming exactly its own arc of the key space.
                std::string error;
                connectShard(i, /*redial=*/true, error);
                continue;
            }
            const uint64_t outstanding =
                s.pingInFlight.load(std::memory_order_acquire);
            if (outstanding != 0) {
                // The previous ping went unanswered for one full
                // interval: the shard is alive at the TCP level but
                // not serving.  Eject after the configured streak.
                pingFailuresC_.add(1);
                const int streak =
                    s.healthFailures.fetch_add(
                        1, std::memory_order_acq_rel) +
                    1;
                if (streak >= cfg_.failureThreshold) {
                    markDown(i);
                    postShardDown(outstanding);
                }
                continue;
            }
            sendPing(i);
        }
    }
}

UpstreamStats
UpstreamPool::stats() const
{
    UpstreamStats out;
    out.shardsTotal = shardCount();
    out.shardsUp = upCount();
    out.forwarded = forwardedC_.value();
    out.replies = repliesC_.value();
    out.shardDownReplies = shardDownC_.value();
    out.reconnects = reconnectsC_.value();
    return out;
}

} // namespace square
