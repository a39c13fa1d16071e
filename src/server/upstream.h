/**
 * @file
 * The fabric router's client side: persistent pipelined connections to
 * a pool of shard daemons, with consistent-hash ownership, health
 * checking, and structured failover.
 *
 * One UpstreamPool owns, per shard address:
 *
 *  - a persistent TCP data connection carrying forwarded requests and
 *    their replies (pipelined: many requests in flight, replies
 *    matched by the router-assigned correlation id),
 *  - a reader thread that demultiplexes reply lines back to the
 *    originating client connection's AsyncReplySink,
 *  - liveness state driven by the data path (a send failure or a
 *    reader EOF marks the shard down immediately) and by periodic
 *    in-band pings from the pool's health thread (an unresponsive —
 *    not just dead — shard is ejected after `failureThreshold`
 *    unanswered pings).
 *
 * Failure semantics ("no client ever hangs"):
 *
 *  - marking a shard down removes it from the hash ring (later keys
 *    re-route to survivors, moving only the dead shard's ~1/N arc)
 *    and flushes every in-flight request parked on that shard with a
 *    structured {"ok": false, "status": "shard_down",
 *    "retry_after_ms": N} reply (protocol.h's refusal shape);
 *  - forward() guarantees exactly one reply post per request: the
 *    shard's answer, or the shard_down flush, or — when the pool is
 *    stopped with requests in flight — the teardown flush;
 *  - every send on a data connection is bounded by the health loop's
 *    own ejection window (pingIntervalMs x failureThreshold): a shard
 *    that accepts but stops reading (SIGSTOPped, a wedged loop) fails
 *    the send that would block on its full socket buffer, and is
 *    marked down like on any send error, instead of wedging the
 *    router's event loop and the health loop behind it;
 *  - the health thread keeps dialing down shards; a shard that comes
 *    back (or a fresh process on the same address) is re-added to the
 *    ring, which by consistent-hashing moves only its own arc back.
 *
 * Fault injection (server/faults.h) probes the outbound connect path
 * (connect_fail_rate) and meters each connection's sent bytes against
 * reset_after_bytes, so router failover is deterministically testable
 * without killing real processes.
 */

#ifndef SQUARE_SERVER_UPSTREAM_H
#define SQUARE_SERVER_UPSTREAM_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/hash_ring.h"
#include "server/transport.h"
#include "service/cache_key.h"

namespace square {

/**
 * Tunables for the upstream pool.  The ring has none: every router
 * places each shard at HashRing::kVnodes points.
 */
struct UpstreamConfig
{
    /** Health-check cadence (ping + down-shard redial). */
    double pingIntervalMs = 200;
    /** Consecutive unanswered pings before an up shard is ejected. */
    int failureThreshold = 3;
    /** The retry hint carried by shard_down replies, ms. */
    double retryAfterMs = 250;
};

/** Pool-wide view: shard liveness plus the registry counters. */
struct UpstreamStats
{
    int shardsTotal = 0;
    int shardsUp = 0;
    int64_t forwarded = 0;        ///< requests sent to a shard
    int64_t replies = 0;          ///< replies demultiplexed back
    int64_t shardDownReplies = 0; ///< requests answered shard_down
    int64_t reconnects = 0;       ///< successful redials of down shards
};

class UpstreamPool
{
  public:
    /**
     * @param addresses shard daemons as "host:port" (must be unique).
     * An empty list, a malformed address or a duplicate makes start()
     * fail with a message naming it.
     */
    UpstreamPool(std::vector<std::string> addresses,
                 UpstreamConfig cfg = {});
    ~UpstreamPool();

    UpstreamPool(const UpstreamPool &) = delete;
    UpstreamPool &operator=(const UpstreamPool &) = delete;

    /**
     * Dial every shard and start the reader/health machinery.  Shards
     * that cannot be reached start down and keep being redialed; the
     * pool itself starts unless the address list is malformed (a
     * fabric with a dead shard must still serve the survivors' key
     * ranges).
     */
    bool start(std::string &error);

    /** Tear down: flush in-flight requests, join every thread. */
    void stop();

    int shardCount() const { return static_cast<int>(shards_.size()); }
    int upCount() const;
    const std::string &address(int shard) const;
    bool isUp(int shard) const;

    /** Ring owner of @p key, or -1 while no shard is up. */
    int ownerOf(const CacheKey &key) const;

    /** Allocate a correlation id (also the forwarded "id" field). */
    uint64_t allocSeq()
    {
        return seq_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    /**
     * Forward one framed request line (no trailing newline; it is
     * appended here) to @p shard.  @p sink must already expect a
     * reply; exactly one post() happens eventually — the shard's
     * reply re-framed under @p id_prefix, or a structured shard_down.
     *
     * A non-null @p trace rides with the in-flight entry: when the
     * reply lands (or the request is flushed shard_down) the pool
     * records the router's "forward" span against it and emits the
     * whole trace — forward() is the router's last touch point for a
     * request, so emission lives here.
     */
    void forward(int shard, uint64_t seq,
                 std::shared_ptr<AsyncReplySink> sink,
                 std::string id_prefix, std::string &&line,
                 std::shared_ptr<obs::Trace> trace = {});

    UpstreamStats stats() const;

    /**
     * Pool-wide telemetry (obs/metrics.h): the monotonic counters
     * behind the UpstreamStats totals plus the forward round-trip
     * distribution (forward_rtt_us: send to demultiplexed reply).
     */
    const obs::Registry &metricsRegistry() const { return metrics_; }

    double retryAfterMs() const { return cfg_.retryAfterMs; }

  private:
    /** One client request awaiting its shard reply. */
    struct Pending
    {
        std::shared_ptr<AsyncReplySink> sink; ///< null for pings
        std::string idPrefix;
        int shard = -1;
        /** Forward timestamp (rtt histogram + "forward" span). */
        obs::SpanClock sent;
        /** The request's trace, when sampled (see forward()). */
        std::shared_ptr<obs::Trace> trace;
    };

    /** One upstream shard connection + its liveness state. */
    struct Shard
    {
        std::string address;
        std::string host;
        uint16_t port = 0;
        /** Serializes sends and fd swaps on the data connection. */
        std::mutex sendMu;
        int fd = -1;             ///< guarded by sendMu
        uint64_t bytesSent = 0;  ///< guarded by sendMu (fault budget)
        std::atomic<bool> up{false};
        /** Consecutive unanswered pings (any reply resets it). */
        std::atomic<int> healthFailures{0};
        /** Correlation id of the outstanding ping (0 = none). */
        std::atomic<uint64_t> pingInFlight{0};
        std::thread reader;
    };

    /** The health loop's cadence, ms (200 when unset). */
    double
    pingIntervalMs() const
    {
        return cfg_.pingIntervalMs > 0 ? cfg_.pingIntervalMs : 200.0;
    }

    /** Send bytes on the shard's data connection (false = failed). */
    bool sendOn(Shard &s, const char *data, size_t len);

    /**
     * Dial one shard; true = connected and reader running.  A
     * @p redial of a down shard counts its reconnect before the shard
     * shows as up.
     */
    bool connectShard(size_t idx, bool redial, std::string &error);

    /**
     * Transition a shard to down: eject from the ring, wake its
     * reader, flush its in-flight requests as shard_down.  Idempotent
     * per up-period.
     */
    void markDown(size_t idx);

    /** Pop @p seq and post a shard_down if it was still pending. */
    void postShardDown(uint64_t seq);

    /**
     * Answer one parked request with a shard_down refusal (a ping has
     * no client and is dropped) and count it.  A @p failover flush
     * (markDown, postShardDown) also counts a failover and records
     * Ev::Failover with a1 = @p event_a1; the teardown flush (stop)
     * does neither.
     */
    void flushShardDown(Pending &entry, bool failover,
                        uint64_t event_a1 = 0);

    /** Reply-line demultiplexer (reader threads). */
    void handleReply(size_t idx, std::string_view line);

    void readerLoop(size_t idx, int fd);
    void healthLoop();

    /** Send one in-band ping to an up shard. */
    void sendPing(size_t idx);

    /**
     * Close out one answered/flushed client request: record the
     * forward rtt and, when it carries a trace, the "forward" span +
     * trace emission.  @p ok distinguishes a real reply from a
     * shard_down flush (flushes skip the rtt histogram: they measure
     * failover latency, not shard service time).
     */
    void noteForwardDone(Pending &entry, bool ok);

    const UpstreamConfig cfg_;
    /** Why the address list is unusable ("" = usable); see start(). */
    std::string addressError_;
    std::vector<std::unique_ptr<Shard>> shards_;
    std::unordered_map<std::string, int> addrIndex_;

    mutable std::shared_mutex ringMu_;
    HashRing ring_;

    std::mutex pendingMu_;
    std::unordered_map<uint64_t, Pending> pending_;

    std::atomic<uint64_t> seq_{0};

    /**
     * Telemetry (obs/metrics.h): the pool-wide counters, each
     * incremented once per event; stats() and the metrics exposition
     * both read them.
     */
    obs::Registry metrics_;
    obs::Counter &forwardedC_;
    obs::Counter &repliesC_;
    obs::Counter &shardDownC_;
    obs::Counter &reconnectsC_;
    obs::Counter &pingFailuresC_;
    obs::Counter &failoversC_;
    obs::Histogram &forwardRttUs_;

    std::atomic<bool> stopping_{false};
    bool started_ = false;
    std::thread health_;
    std::mutex healthMu_;
    std::condition_variable healthCv_;
};

} // namespace square

#endif // SQUARE_SERVER_UPSTREAM_H
