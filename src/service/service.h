/**
 * @file
 * Compile-as-a-service: content-addressed result caching in front of
 * one persistent compile pool.
 *
 * SQUARE's production shape is many clients compiling the *same*
 * modular programs under many policy/machine configurations.  Because
 * a compilation is a pure function of (Program, Machine, SquareConfig)
 * — the re-entrancy contract of core/context.h — its result can be
 * served by content address instead of recomputed:
 *
 *   CacheKey = Program::fingerprint()
 *            x MachineSpec::fingerprint()
 *            x configFingerprint()   (canonicalized; see cache_key.h)
 *
 * Request lifecycle (one core behind every entry point):
 *
 *   1. resolve the program: an explicit shared Program, or a registry
 *      workload name (programs built from names are themselves cached
 *      by name, so replicas share one immutable instance); a request
 *      that fails to resolve is answered at once as a failure;
 *   2. compute the cache key;
 *   3. claim: one locked step looks the key up, applies admission
 *      control to a would-be miss, claims the miss, and counts;
 *   4. published  -> reply now with the shared const CompileResult;
 *      shed       -> reply now with status "overloaded";
 *      in flight  -> park on the entry's Waiter list and share the
 *                    owner's result (concurrent duplicates compile
 *                    exactly once);
 *      miss       -> park, and post one compile job onto the service's
 *                    WorkerPool; publish() wakes every waiter.
 *
 * submitAsync() is the core itself.  submit() is a wait on it: it
 * parks like any async requester and blocks until its Waiter fires,
 * so admission, deadline cancellation, the compile hook, and the
 * latency histograms apply to every caller alike.
 *
 * Compilations share one const ProgramAnalysis per unique program
 * fingerprint through the service's AnalysisCache, which persists
 * across requests.
 *
 * Results are shared immutable artifacts (shared_ptr<const
 * CompileResult>): hits are pointer-equal to the first computation,
 * which tests exploit to prove no recompilation happened.
 *
 * The cache is LRU-bounded by CacheLimits (entries and/or approximate
 * bytes; zero means unbounded, the PR-3 behaviour).  Eviction removes
 * an artifact from the *cache index* only: results are shared_ptrs, so
 * a reply already handed out — or an in-flight submit() about to
 * return — keeps its artifact alive regardless of eviction (pinning is
 * structural, not a lock).  In-flight entries are never evicted; they
 * join the LRU order when their result is published.  The server tier
 * (src/server/) puts the epoll transport in front of one service per
 * daemon; sharding across daemons is the fabric router's job.
 */

#ifndef SQUARE_SERVICE_SERVICE_H
#define SQUARE_SERVICE_SERVICE_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compiler.h"
#include "core/policy.h"
#include "fleet/worker_pool.h"
#include "ir/analysis_cache.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/cache_key.h"
#include "service/machine_spec.h"
#include "service/program_cache.h"

namespace square {

/** One service request: program (by value or name) x machine x config. */
struct CompileRequest
{
    /** Echoed in replies/logs; not part of the cache key. */
    std::string label;

    /**
     * The program to compile.  When null, @p workload names a registry
     * benchmark; the service builds it once and shares it across every
     * request for that name.
     */
    std::shared_ptr<const Program> program;

    /** Registry benchmark name (used when program is null). */
    std::string workload;

    /** Compilation target. */
    MachineSpec machine;

    /** Policy configuration. */
    SquareConfig cfg;

    /**
     * Latency budget in milliseconds, measured from submission; 0
     * means none.  Not part of the cache key.  A queued compile whose
     * waiters have ALL expired is cancelled before it reaches a worker
     * (the waiters get a "deadline_expired" reply and the key stays
     * retriable); a compile already running always completes — its
     * result is cached either way.
     */
    double deadlineMs = 0;

    /**
     * Priority tier: batch requests are admitted only while the
     * pending-compile queue is below AdmissionLimits::batchFraction of
     * the cap, so interactive traffic keeps headroom under load.  Not
     * part of the cache key.
     */
    bool batch = false;

    /**
     * Distributed-tracing correlation id from the protocol's
     * "trace_id" field; 0 = untraced.  Not part of the cache key.
     */
    uint64_t traceId = 0;

    /**
     * The request's span collection, attached by the serving tier when
     * tracing is active (null = record nothing).  The service records
     * admission, queue, analysis, and serialize spans into it; the
     * compile phases hook (CompileOptions::phases) rides it into the
     * executor.  Shared because spans land from both the event thread
     * and the worker pool.
     */
    std::shared_ptr<obs::Trace> trace;
};

/** Outcome of one service request. */
struct ServiceReply
{
    std::string label;
    /** Shared immutable result; null when error is non-empty. */
    std::shared_ptr<const CompileResult> result;
    /**
     * The NDJSON reply tail (protocol.h formatReplyTail), serialized
     * once at publish time and shared refcounted with the cache entry:
     * the serving tier appends these bytes verbatim instead of
     * re-encoding the result per request.  Stays valid after eviction
     * for as long as any reply (or in-flight write) holds it.
     */
    std::shared_ptr<const std::string> replyTail;
    /** True when served from cache (including in-flight duplicates). */
    bool hit = false;
    /** Non-empty when the compilation (or request) failed. */
    std::string error;
    /**
     * Degradation marker: "" (served), "overloaded" (shed by
     * admission control; retryAfterMs is the client's backoff hint),
     * or "deadline_expired" (cancelled before compiling).  result is
     * null and error may be empty for shed replies — the request
     * wasn't wrong, the server was full.
     */
    std::string status;
    /** Suggested client backoff when status == "overloaded", ms. */
    double retryAfterMs = 0;
    /** Request service time (cache lookup or compile), milliseconds. */
    double millis = 0;
    /** The content address this request resolved to. */
    CacheKey key;
};

/**
 * LRU bound on the result cache.  A limit of zero means "unbounded" on
 * that axis.  Bytes are the approximate resident footprint of the
 * cached CompileResults (struct + vector/string capacities); in-flight
 * compilations are not counted — they are pinned by their waiters and
 * become accountable (and evictable) when published.  An artifact
 * larger than maxBytes is still served, just not retained.
 */
struct CacheLimits
{
    size_t maxEntries = 0; ///< max resident (published) results
    size_t maxBytes = 0;   ///< max approximate resident result bytes
};

/**
 * Admission control for the compile queue.  Zero maxPending means
 * "admit everything" (the pre-PR-6 behaviour).  With a bound, a miss
 * that would push the pending-compile count past the cap is shed with
 * status "overloaded" instead of queued — the reply carries a
 * retry_after_ms estimate derived from the observed compile-time EWMA
 * and the current queue depth, so well-behaved clients back off for
 * about as long as the backlog needs to drain.  Batch-tier requests
 * are admitted only below batchFraction * maxPending, reserving the
 * remaining headroom for interactive traffic.  Hits (and in-flight
 * duplicates) are never shed: they cost no compile capacity.
 */
struct AdmissionLimits
{
    size_t maxPending = 0;      ///< max queued+running compiles (0 = off)
    double batchFraction = 0.5; ///< batch tier's share of maxPending
};

/** Monotonic service counters. */
struct ServiceStats
{
    int64_t requests = 0;
    int64_t hits = 0;     ///< served from cache or an in-flight compile
    int64_t misses = 0;   ///< required a compilation
    int64_t compiles = 0; ///< compilations actually run (misses minus
                          ///< deadline-cancelled queued compiles)
    int64_t failures = 0; ///< requests that returned an error
    int64_t evictions = 0; ///< results dropped by the LRU bound
    int64_t analysisComputes = 0; ///< unique program analyses built
    size_t cachedResults = 0;     ///< resident cache entries
    size_t cachedBytes = 0;       ///< approx. bytes of published results
    size_t cachedPrograms = 0;    ///< resident workload programs
    int64_t shed = 0;            ///< misses refused by admission control
    int64_t deadlineExpired = 0; ///< waiters cancelled by deadline expiry
    int64_t workerDeaths = 0;    ///< async workers killed (fault inj.)
    size_t pendingCompiles = 0;  ///< gauge: compiles queued or running
};

/**
 * The deduplicating compile service.  Thread-safe: every entry point
 * may be called from any number of threads concurrently (the server
 * tier and the TSan-covered tests do).
 */
class CompileService
{
  public:
    /**
     * Completion callback for submitAsync.  Fires exactly once,
     * from a worker-pool thread (never the submitting thread), after
     * the compile publishes.  The callback must be fast and must not
     * re-enter the service.
     */
    using AsyncDone = std::function<void(ServiceReply &&reply)>;

    /**
     * Starts the service's compile pool: @p workers threads, niced so
     * compiles yield the CPU to latency-critical serving threads.
     *
     * @param limits    LRU bound on the result cache (default unbounded).
     * @param admission compile-queue bound (default: admit everything).
     */
    explicit CompileService(int workers, CacheLimits limits = {},
                            AdmissionLimits admission = {});
    ~CompileService();

    /**
     * Serve one request, blocking until its reply is ready: a wait on
     * submitAsync.  Concurrent duplicates of an in-flight key share the
     * one result.
     */
    ServiceReply submit(const CompileRequest &req);

    /**
     * The service core.  Never blocks: resolves the request (an
     * explicit program, or a workload name through the service's own
     * name cache), records the "resolve" span when traced, and claims
     * its cache key.  Returns true when the request was answered
     * synchronously — a resolve failure (reply.error set), a published
     * cache hit, or an admission-control shed (reply.status ==
     * "overloaded") — with @p reply filled and @p done never invoked.
     * Returns false when the request went asynchronous: the miss was
     * queued on the worker pool (or joined an in-flight compile) and
     * @p done fires exactly once from a worker thread with the
     * finished reply; @p reply is not touched again.  Concurrent
     * duplicates dedup to one compilation whichever entry point they
     * came through.
     */
    bool submitAsync(const CompileRequest &req, ServiceReply &reply,
                     AsyncDone done);

    /**
     * Serve @p key from the published cache if (and only if) it holds
     * a ready successful result: fills @p reply as a warm hit (shared
     * result + preserialized tail), counts the request, refreshes LRU
     * recency, and returns true.  Any other state — absent or in
     * flight — returns false WITHOUT counting anything, so the caller
     * falls through to the full submit path.  This is the shard
     * daemon's fast path for router-forwarded keys: no machine parse,
     * no config canonicalization, no name lookup.
     */
    bool tryServePublished(const std::string &label, const CacheKey &key,
                           ServiceReply &reply);

    ServiceStats stats() const;

    /**
     * The service's metrics registry (obs/metrics.h): the single
     * source of truth behind stats() — the counters ARE the registry's
     * counters — plus the latency/queue-wait/shed histograms that have
     * no ServiceStats equivalent.  Call syncMetricsGauges() first when
     * rendering, so the mutex-guarded gauges (pending compiles, cache
     * residency) are current.
     */
    const obs::Registry &metricsRegistry() const { return metrics_; }

    /** Refresh the registry's gauges from the mutex-guarded state. */
    void syncMetricsGauges() const;

    int workers() const { return pool_.workers(); }

    const CacheLimits &limits() const { return limits_; }

    const AdmissionLimits &admission() const { return admission_; }

    /**
     * Persistence sink, fired once per successful publish — from
     * inside publish(), BEFORE any waiter is notified and outside
     * every service lock — with the shared result and preserialized
     * reply tail.  The ordering is the durability contract: once a
     * client holds a reply, the record is already in the store's
     * append queue, so a clean shutdown (whose close() drains that
     * queue) persists every acknowledged publish.  The server tier
     * points this at the ArtifactStore's append queue; this layer
     * stays free of storage concerns.  Replayed entries
     * (insertReplayed) never fire it, so replay cannot re-append.
     * Set before traffic; the sink must be thread-safe and fast.
     */
    using PublishSink = std::function<void(
        const CacheKey &, const std::shared_ptr<const CompileResult> &,
        const std::shared_ptr<const std::string> &)>;
    void setPublishSink(PublishSink sink);

    /**
     * Insert one replayed artifact as a ready published entry: it
     * joins the front of the LRU order (call in log order — append
     * order is recency order) and evicts over-limit entries exactly
     * like a fresh publish.  Counts square-one service stats not at
     * all — replay is not traffic.  Returns false without touching
     * the cache when the key is already present (duplicate records,
     * prewarm over an already-warm key).
     */
    bool insertReplayed(const CacheKey &key, CompileResult &&result,
                        std::string &&tail);

    /**
     * Fault-injection probe run at the start of every compilation.
     * Installed by the server tier so this layer stays free of
     * src/server includes.  Thread-safe to set before traffic; the
     * hook itself must be thread-safe.
     */
    void setCompileHook(std::function<void()> hook);

    /**
     * Fault-injection probe consulted per dequeued compile job; true
     * kills (and replaces) the worker.  See WorkerPool::setDeathHook.
     */
    void setWorkerDeathHook(std::function<bool()> hook);

    /** Approximate resident bytes of one result (for the byte bound). */
    static size_t resultBytes(const CompileResult &result);

  private:
    using Clock = std::chrono::steady_clock;

    /** One parked requester, woken at publish time. */
    struct Waiter
    {
        AsyncDone done;
        std::string label;
        Clock::time_point t0;
        bool hit = false; ///< joined an in-flight compile (non-owner)
    };

    /** One cache entry; published exactly once under its own monitor. */
    struct Entry
    {
        std::mutex m;
        bool ready = false;
        std::shared_ptr<const CompileResult> result;
        /** Preserialized reply bytes (see ServiceReply::replyTail). */
        std::shared_ptr<const std::string> tail;
        std::string error;
        /** True when the compile was cancelled (deadline). */
        bool expired = false;
        /** Requesters parked on this in-flight entry. */
        std::vector<Waiter> waiters;
        /**
         * Deadline bookkeeping for pre-worker cancellation: the entry
         * may be cancelled only when every waiter carries a deadline
         * and all of them have passed.
         */
        int noDeadlineWaiters = 0;
        int deadlineWaiters = 0;
        Clock::time_point latestDeadline{};
    };

    /** The cache index slot for one key (entry + LRU bookkeeping). */
    struct Slot
    {
        std::shared_ptr<Entry> entry;
        /** Valid only when inLru; front of lru_ is most recent. */
        std::list<CacheKey>::iterator lruIt;
        bool inLru = false;
        size_t bytes = 0;
    };

    /** A request resolved to its key and shared program. */
    struct Resolved
    {
        std::shared_ptr<const Program> program;
        uint64_t programFp = 0;
        CacheKey key;
        std::string error;
    };

    /** Resolve program + key (building/caching by name as needed). */
    Resolved resolve(const CompileRequest &req);

    /**
     * submitAsync's claim step: cache lookup, admission control for a
     * would-be miss, the miss claim, the request counters, and the
     * admit/shed events.  Returns true when the
     * request was answered synchronously (published hit or shed) into
     * @p reply; otherwise parks @p done on the entry's Waiter list and
     * returns false, with @p owned set when this request claimed the
     * miss — the caller then post()s the compile.  @p reply is never
     * touched after the waiter is parked: its done callback may
     * already be writing it.
     */
    bool claim(const CompileRequest &req, const CacheKey &key,
               Clock::time_point t0, ServiceReply &reply, AsyncDone &&done,
               std::shared_ptr<Entry> &owned);

    /** Fill @p reply from a published entry: a warm hit. */
    void serveReady(const Entry &entry, Clock::time_point t0,
                    ServiceReply &reply);

    /** Queue the compile of a claimed miss on the worker pool. */
    void post(const CompileRequest &req, Resolved res,
              std::shared_ptr<Entry> entry);

    /** The worker-side body of one queued compile. */
    void runQueuedCompile(const CompileRequest &req, const Resolved &res,
                          const std::shared_ptr<Entry> &entry);

    /**
     * Publish a finished result (or error) and wake every waiter by
     * invoking its AsyncDone callback on this (the publishing) thread.
     * Everything a woken requester can observe is settled first: a
     * failed or cancelled key is uncached (later requests retry it), a
     * success joins the LRU order (evicting over-limit entries) and
     * reaches the publish sink, and the entry's pending-compile slot
     * is retired.  Success carries the preserialized reply tail for
     * @p key — encoded once here, never on the hit path.
     * @p compile_millis, when non-negative, feeds the retry_after EWMA.
     */
    void publish(const std::shared_ptr<Entry> &entry,
                 std::shared_ptr<const CompileResult> result,
                 const CacheKey &key, std::string error,
                 double compile_millis = -1,
                 const std::shared_ptr<obs::Trace> &trace = {});

    /**
     * Admission check for one would-be miss; caller holds mu_.  False
     * fills @p reply as a structured "overloaded" shed.
     */
    bool admitLocked(const CompileRequest &req, ServiceReply &reply);

    /** retry_after_ms estimate from queue depth x compile EWMA. */
    double retryAfterLocked() const;

    /**
     * Drop a failed entry (if @p key still maps to it) so later
     * requests for the key retry instead of replaying the error.
     */
    void uncache(const CacheKey &key,
                 const std::shared_ptr<Entry> &entry);

    /**
     * Account a freshly published result: enter it into the LRU order,
     * add its bytes, and evict over-limit entries; caller holds mu_.
     * No-op if the key was dropped or replaced meanwhile.
     */
    void noteReadyLocked(const CacheKey &key,
                         const std::shared_ptr<Entry> &entry);

    /** Move an already-published slot to the front of the LRU order. */
    void touchLocked(Slot &slot);

    /** Evict LRU published entries until within limits_. */
    void evictOverLimitLocked();

    AnalysisCache analysis_;
    const CacheLimits limits_;
    const AdmissionLimits admission_;

    /**
     * Telemetry (obs/metrics.h).  The registry owns every monotonic
     * service counter — stats() is a view over it — plus the latency
     * distributions.  References are resolved once here so recording
     * never takes the registry lock.  Gauge-like state that admission
     * and eviction *logic* reads (pendingCompiles_, cachedBytes_)
     * stays mutex-guarded below and is mirrored into gauges by
     * syncMetricsGauges().
     */
    obs::Registry metrics_;
    obs::Counter &requestsC_;
    obs::Counter &hitsC_;
    obs::Counter &missesC_;
    obs::Counter &compilesC_;
    obs::Counter &failuresC_;
    obs::Counter &evictionsC_;
    obs::Counter &shedC_;
    obs::Counter &deadlineExpiredC_;
    obs::Histogram &warmLatencyUs_;
    obs::Histogram &coldLatencyUs_;
    obs::Histogram &queueWaitUs_;
    obs::Histogram &shedRetryMs_;

    mutable std::mutex mu_;
    std::unordered_map<CacheKey, Slot, CacheKeyHash> cache_;
    /** Published keys, most recently used first. */
    std::list<CacheKey> lru_;
    size_t cachedBytes_ = 0;
    /** Workload names resolved once to shared immutable programs. */
    ProgramNameCache programs_;
    /** Gauge: compiles claimed (queued or running). */
    size_t pendingCompiles_ = 0;
    /** EWMA of observed compile wall times, for retry_after_ms. */
    double ewmaCompileMs_ = 50.0;
    std::function<void()> compileHook_;
    PublishSink publishSink_;
    /** Runs every compile.  Last member: its workers start after, and
        are joined before, everything their jobs touch. */
    WorkerPool pool_;
};

} // namespace square

#endif // SQUARE_SERVICE_SERVICE_H
