#include "service/service.h"

#include <chrono>
#include <exception>
#include <utility>

#include "common/latch.h"
#include "common/logging.h"
#include "common/stats.h"
#include "obs/flight_recorder.h"
#include "service/protocol.h"

namespace square {

namespace {

using Clock = std::chrono::steady_clock;

/** Histograms hold integer microseconds; replies speak double ms. */
int64_t
microsFromMillis(double millis)
{
    return millis <= 0 ? 0 : static_cast<int64_t>(millis * 1000.0 + 0.5);
}

} // namespace

CompileService::CompileService(int workers, CacheLimits limits,
                               AdmissionLimits admission)
    : limits_(limits), admission_(admission),
      requestsC_(metrics_.counter("requests")),
      hitsC_(metrics_.counter("hits")),
      missesC_(metrics_.counter("misses")),
      compilesC_(metrics_.counter("compiles")),
      failuresC_(metrics_.counter("failures")),
      evictionsC_(metrics_.counter("evictions")),
      shedC_(metrics_.counter("shed")),
      deadlineExpiredC_(metrics_.counter("deadline_expired")),
      warmLatencyUs_(metrics_.histogram("warm_latency_us")),
      coldLatencyUs_(metrics_.histogram("cold_latency_us")),
      queueWaitUs_(metrics_.histogram("queue_wait_us")),
      shedRetryMs_(metrics_.histogram("shed_retry_ms")),
      // Compiles are background work relative to the event loops
      // serving warm hits: nice the workers so a compile on a saturated
      // host yields the CPU to a waking loop thread instead of costing
      // the warm tail whole scheduler quanta.
      pool_(workers, /*niceness=*/10)
{
}

void
CompileService::syncMetricsGauges() const
{
    // The logic-coupled gauges live under mu_ (admission and eviction
    // read them); mirror them into the registry only when someone is
    // actually looking.
    auto *self = const_cast<CompileService *>(this);
    ServiceStats s = stats();
    self->metrics_.gauge("pending_compiles")
        .set(static_cast<int64_t>(s.pendingCompiles));
    self->metrics_.gauge("cached_results")
        .set(static_cast<int64_t>(s.cachedResults));
    self->metrics_.gauge("cached_bytes")
        .set(static_cast<int64_t>(s.cachedBytes));
    self->metrics_.gauge("cached_programs")
        .set(static_cast<int64_t>(s.cachedPrograms));
    self->metrics_.gauge("analysis_computes").set(s.analysisComputes);
    self->metrics_.gauge("worker_deaths").set(s.workerDeaths);
}

CompileService::~CompileService()
{
    // Producers (transports, blocking callers) must be quiesced by
    // now: stop() abandons queued jobs, so their waiters are never
    // fired — safe only because no one is left to read the replies.
    pool_.stop();
}

void
CompileService::setCompileHook(std::function<void()> hook)
{
    std::lock_guard<std::mutex> lock(mu_);
    compileHook_ = std::move(hook);
}

void
CompileService::setPublishSink(PublishSink sink)
{
    std::lock_guard<std::mutex> lock(mu_);
    publishSink_ = std::move(sink);
}

void
CompileService::setWorkerDeathHook(std::function<bool()> hook)
{
    pool_.setDeathHook(std::move(hook));
}

bool
CompileService::insertReplayed(const CacheKey &key,
                               CompileResult &&result,
                               std::string &&tail)
{
    auto entry = std::make_shared<Entry>();
    entry->ready = true;
    entry->result =
        std::make_shared<const CompileResult>(std::move(result));
    entry->tail =
        std::make_shared<const std::string>(std::move(tail));

    std::lock_guard<std::mutex> lock(mu_);
    auto [it, inserted] = cache_.try_emplace(key);
    if (!inserted) {
        // Already resident (duplicate log records, prewarm over a
        // warm key): refresh recency so log order stays LRU order,
        // but keep the live entry — it may have waiters.
        if (it->second.inLru)
            touchLocked(it->second);
        return false;
    }
    it->second.entry = entry;
    noteReadyLocked(key, entry);
    return true;
}

size_t
CompileService::resultBytes(const CompileResult &result)
{
    // Approximate resident footprint: the struct plus the capacities of
    // its heap artifacts.  SchedStats is flat (counters only).
    return sizeof(CompileResult) +
           result.usageCurve.capacity() * sizeof(UsagePoint) +
           result.trace.capacity() * sizeof(TimedGate) +
           (result.primaryInitialSites.capacity() +
            result.primaryFinalSites.capacity()) *
               sizeof(PhysQubit) +
           result.machineLabel.capacity() + result.policyLabel.capacity();
}

void
CompileService::touchLocked(Slot &slot)
{
    if (slot.inLru && slot.lruIt != lru_.begin())
        lru_.splice(lru_.begin(), lru_, slot.lruIt);
}

void
CompileService::evictOverLimitLocked()
{
    // Only published entries are in lru_, so eviction can never tear
    // down an in-flight compilation.  Evicting erases the cache *index*
    // slot; the Entry (and its result) stay alive through every
    // shared_ptr already handed to waiters or callers.
    while (!lru_.empty() &&
           ((limits_.maxEntries > 0 && lru_.size() > limits_.maxEntries) ||
            (limits_.maxBytes > 0 && cachedBytes_ > limits_.maxBytes))) {
        const CacheKey victim = lru_.back();
        auto it = cache_.find(victim);
        cachedBytes_ -= it->second.bytes;
        lru_.pop_back();
        cache_.erase(it);
        evictionsC_.add();
        obs::recordEvent(obs::Comp::Service, obs::Ev::Evict,
                         lru_.size(), cachedBytes_);
    }
}

void
CompileService::noteReadyLocked(const CacheKey &key,
                                const std::shared_ptr<Entry> &entry)
{
    auto it = cache_.find(key);
    if (it == cache_.end() || it->second.entry != entry)
        return; // dropped or replaced; nothing to account
    Slot &slot = it->second;
    if (slot.inLru)
        return;
    // The publisher runs this after setting the entry's fields on the
    // same thread, so reading them without entry->m is ordered.  The
    // preserialized reply bytes count toward the byte bound too: they
    // are resident cache state, evicted with the entry (refcounting
    // keeps handed-out copies valid past eviction).
    slot.bytes = resultBytes(*entry->result) + sizeof(std::string) +
                 entry->tail->capacity();
    cachedBytes_ += slot.bytes;
    lru_.push_front(key);
    slot.lruIt = lru_.begin();
    slot.inLru = true;
    evictOverLimitLocked();
}

CompileService::Resolved
CompileService::resolve(const CompileRequest &req)
{
    Resolved res;
    try {
        if (req.program) {
            res.program = req.program;
            res.programFp = req.program->fingerprint();
        } else {
            auto [program, fp] = programs_.get(req.workload);
            res.program = std::move(program);
            res.programFp = fp;
        }
        res.key = makeCacheKey(res.programFp, req.machine, req.cfg);
    } catch (const std::exception &e) {
        res.error = e.what();
    }
    return res;
}

void
CompileService::uncache(const CacheKey &key,
                        const std::shared_ptr<Entry> &entry)
{
    // Drop a failed entry so the key can retry: failures may be
    // environmental (e.g. resource exhaustion), so replaying a stored
    // error forever would poison the key for the process lifetime.
    // Waiters already attached to the entry still observe its error.
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it == cache_.end() || it->second.entry != entry)
        return;
    if (it->second.inLru) {
        cachedBytes_ -= it->second.bytes;
        lru_.erase(it->second.lruIt);
    }
    cache_.erase(it);
}

void
CompileService::publish(const std::shared_ptr<Entry> &entry,
                        std::shared_ptr<const CompileResult> result,
                        const CacheKey &key, std::string error,
                        double compile_millis,
                        const std::shared_ptr<obs::Trace> &trace)
{
    std::shared_ptr<const std::string> tail;
    if (result != nullptr) {
        obs::SpanClock ser;
        if (trace != nullptr)
            ser = obs::SpanClock::now();
        tail = std::make_shared<const std::string>(
            formatReplyTail(*result, key));
        if (trace != nullptr)
            trace->addSpan("serialize", ser.wallUs,
                           obs::microsSince(ser));
    } else {
        // Uncached before the entry turns ready, so no later request
        // can find the failed entry: it claims a fresh miss instead.
        uncache(key, entry);
    }
    std::vector<Waiter> waiters;
    {
        std::lock_guard<std::mutex> lock(entry->m);
        entry->result = std::move(result);
        entry->tail = std::move(tail);
        entry->error = std::move(error);
        entry->ready = true;
        waiters.swap(entry->waiters);
    }
    // Settle everything a woken requester can observe before the first
    // wakeup: LRU accounting (and any eviction it triggers), the
    // pending-compile slot, and the publish sink.  The sink runs ahead
    // of every waiter so that once a client holds the reply, the record
    // already sits in the store's append queue — a shutdown right after
    // the last acknowledged reply (close() drains the queue) can never
    // lose it.  It only bumps refcounts and pushes onto a bounded
    // queue, and it runs outside every lock.
    PublishSink sink;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (entry->result != nullptr) {
            noteReadyLocked(key, entry);
            sink = publishSink_;
        }
        if (pendingCompiles_ > 0)
            --pendingCompiles_;
        if (compile_millis >= 0)
            ewmaCompileMs_ =
                0.8 * ewmaCompileMs_ + 0.2 * compile_millis;
    }
    if (sink)
        sink(key, entry->result, entry->tail);
    obs::recordEvent(
        obs::Comp::Service, obs::Ev::Publish, waiters.size(),
        compile_millis >= 0 ? static_cast<uint64_t>(compile_millis)
                            : 0,
        trace != nullptr ? trace->id() : 0);
    for (size_t i = 0; i < waiters.size(); ++i) {
        if (entry->expired)
            deadlineExpiredC_.add();
        else if (!entry->error.empty())
            failuresC_.add();
    }

    // Fire the waiters outside every lock: the callbacks post to
    // transport completion queues or release blocked callers, which
    // take their own mutexes.  The entry's fields are immutable once
    // ready, so the unlocked reads below are ordered by the publish
    // above (this is the publishing thread).
    const bool served = !entry->expired && entry->error.empty();
    for (Waiter &w : waiters) {
        ServiceReply r;
        r.label = std::move(w.label);
        r.key = key;
        r.hit = w.hit;
        r.result = entry->result;
        r.replyTail = entry->tail;
        r.error = entry->error;
        if (entry->expired)
            r.status = "deadline_expired";
        r.millis = millisSince(w.t0);
        // Every parked waiter paid for (a share of) this compile:
        // their end-to-end time is a cold-path latency.
        if (served)
            coldLatencyUs_.record(microsFromMillis(r.millis));
        w.done(std::move(r));
    }
}

bool
CompileService::admitLocked(const CompileRequest &req,
                            ServiceReply &reply)
{
    if (admission_.maxPending == 0)
        return true;
    size_t cap = admission_.maxPending;
    if (req.batch)
        cap = static_cast<size_t>(static_cast<double>(cap) *
                                  admission_.batchFraction);
    if (pendingCompiles_ < cap)
        return true;
    reply.status = "overloaded";
    reply.retryAfterMs = retryAfterLocked();
    return false;
}

double
CompileService::retryAfterLocked() const
{
    // How long until a worker frees up for one more compile: queue
    // depth (plus this request) over the pool width, scaled by the
    // observed compile-time EWMA.  Clamped so a cold-start estimate
    // can neither hammer the server nor park clients for minutes.
    double per_worker = static_cast<double>(pendingCompiles_ + 1) /
                        static_cast<double>(pool_.workers());
    double est = ewmaCompileMs_ * per_worker;
    if (est < 25.0)
        est = 25.0;
    if (est > 5000.0)
        est = 5000.0;
    return est;
}

void
CompileService::serveReady(const Entry &entry, Clock::time_point t0,
                           ServiceReply &reply)
{
    // The entry is ready, so its fields are immutable: no lock needed.
    reply.hit = true;
    reply.result = entry.result;
    reply.replyTail = entry.tail;
    reply.error = entry.error;
    if (entry.expired)
        reply.status = "deadline_expired";
    if (!reply.error.empty())
        failuresC_.add();
    reply.millis = millisSince(t0);
    if (reply.error.empty() && reply.status.empty())
        warmLatencyUs_.record(microsFromMillis(reply.millis));
}

bool
CompileService::claim(const CompileRequest &req, const CacheKey &key,
                      Clock::time_point t0, ServiceReply &reply,
                      AsyncDone &&done, std::shared_ptr<Entry> &owned)
{
    obs::SpanClock adm;
    if (req.trace != nullptr)
        adm = obs::SpanClock::now();

    std::shared_ptr<Entry> entry;
    bool owner = false;
    bool published = false;
    {
        std::lock_guard<std::mutex> lock(mu_);
        requestsC_.add();
        auto it = cache_.find(key);
        if (it == cache_.end()) {
            // A genuine miss consumes compile capacity: admission
            // control applies (hits and duplicates are always free).
            if (!admitLocked(req, reply)) {
                shedC_.add();
                obs::recordEvent(
                    obs::Comp::Service, obs::Ev::Shed,
                    static_cast<uint64_t>(reply.retryAfterMs),
                    pendingCompiles_, req.traceId);
                shedRetryMs_.record(
                    static_cast<int64_t>(reply.retryAfterMs + 0.5));
                reply.millis = millisSince(t0);
                return true;
            }
            it = cache_.try_emplace(key).first;
            it->second.entry = std::make_shared<Entry>();
            owner = true;
            missesC_.add();
            ++pendingCompiles_;
            obs::recordEvent(obs::Comp::Service, obs::Ev::Admit,
                             pendingCompiles_, 0, req.traceId);
        } else {
            hitsC_.add();
            touchLocked(it->second);
            // In the LRU order means published and accounted: ready,
            // with no need to take the entry's own lock.
            published = it->second.inLru;
        }
        entry = it->second.entry;
    }
    // The admission span covers the cache lookup + admission decision
    // (shed replies above are their own span-less fast exit).
    if (req.trace != nullptr)
        req.trace->addSpan("admission", adm.wallUs,
                           obs::microsSince(adm));

    if (!published) {
        std::lock_guard<std::mutex> lock(entry->m);
        if (!entry->ready) {
            // In flight (or our own fresh claim): park the requester
            // on the entry.  publish() fires it from the worker.
            Waiter w;
            w.done = std::move(done);
            w.label = req.label;
            w.t0 = t0;
            w.hit = !owner;
            if (req.deadlineMs > 0) {
                Clock::time_point d =
                    t0 + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(
                                 req.deadlineMs));
                if (entry->deadlineWaiters == 0 ||
                    d > entry->latestDeadline)
                    entry->latestDeadline = d;
                ++entry->deadlineWaiters;
            } else {
                ++entry->noDeadlineWaiters;
            }
            entry->waiters.push_back(std::move(w));
            if (owner)
                owned = std::move(entry);
            return false;
        }
    }
    serveReady(*entry, t0, reply);
    return true;
}

void
CompileService::post(const CompileRequest &req, Resolved res,
                     std::shared_ptr<Entry> entry)
{
    // Copy what the queued job needs: @p req is caller-owned and may
    // die the moment the entry point returns.
    CompileRequest job_req;
    job_req.label = req.label;
    job_req.machine = req.machine;
    job_req.cfg = req.cfg;
    job_req.traceId = req.traceId;
    job_req.trace = req.trace;
    const obs::SpanClock enq = obs::SpanClock::now();
    pool_.post([this, job_req = std::move(job_req), res = std::move(res),
                entry = std::move(entry), enq]() {
        // Queue wait: enqueue to worker pickup, before deadline
        // cancellation so shed-by-expiry waits are measured too.
        const int64_t wait_us = obs::microsSince(enq);
        queueWaitUs_.record(wait_us);
        if (job_req.trace != nullptr)
            job_req.trace->addSpan("queue", enq.wallUs, wait_us);
        runQueuedCompile(job_req, res, entry);
    });
}

void
CompileService::runQueuedCompile(const CompileRequest &req,
                                 const Resolved &res,
                                 const std::shared_ptr<Entry> &entry)
{
    // Deadline cancellation, at dequeue time: if every waiter carried
    // a deadline and all have passed, the compile is pointless — shed
    // it before burning a worker.
    {
        std::lock_guard<std::mutex> lock(entry->m);
        if (entry->noDeadlineWaiters == 0 && entry->deadlineWaiters > 0 &&
            Clock::now() > entry->latestDeadline)
            entry->expired = true;
    }
    if (entry->expired) {
        obs::recordEvent(obs::Comp::Service, obs::Ev::DeadlineExpired,
                         0, 0, req.traceId);
        publish(entry, nullptr, res.key,
                "deadline expired before compile started");
        return;
    }

    std::function<void()> hook;
    {
        std::lock_guard<std::mutex> lock(mu_);
        hook = compileHook_;
    }
    compilesC_.add();
    if (hook)
        hook(); // fault injection: compile delay
    Clock::time_point t0 = Clock::now();
    std::shared_ptr<const CompileResult> result;
    std::string error;
    try {
        obs::SpanClock an;
        if (req.trace != nullptr)
            an = obs::SpanClock::now();
        std::shared_ptr<const ProgramAnalysis> analysis =
            analysis_.get(*res.program, res.programFp);
        if (req.trace != nullptr)
            req.trace->addSpan("analysis", an.wallUs,
                               obs::microsSince(an));
        Machine machine = req.machine.build();
        CompileOptions options;
        options.analysis = analysis.get();
        // Phase spans (allocate/route/schedule) ride the options into
        // the executor; null when untraced, so the hot path never pays.
        options.phases = req.trace.get();
        result = std::make_shared<const CompileResult>(
            compile(*res.program, machine, req.cfg, options));
    } catch (const std::exception &e) {
        error = e.what();
    }
    publish(entry, std::move(result), res.key, std::move(error),
            millisSince(t0), req.trace);
}

bool
CompileService::submitAsync(const CompileRequest &req, ServiceReply &reply,
                            AsyncDone done)
{
    const Clock::time_point t0 = Clock::now();
    reply.label = req.label;
    obs::SpanClock resolve_t0;
    if (req.trace != nullptr)
        resolve_t0 = obs::SpanClock::now();
    Resolved res = resolve(req);
    if (!res.error.empty()) {
        // Never claimed: one request, one failure, answered here.
        reply.error = std::move(res.error);
        reply.millis = millisSince(t0);
        requestsC_.add();
        failuresC_.add();
        return true;
    }
    if (req.trace != nullptr)
        req.trace->addSpan("resolve", resolve_t0.wallUs,
                           obs::microsSince(resolve_t0));
    reply.key = res.key;
    std::shared_ptr<Entry> owned;
    if (claim(req, res.key, t0, reply, std::move(done), owned))
        return true;
    if (owned != nullptr)
        post(req, std::move(res), std::move(owned));
    return false;
}

ServiceReply
CompileService::submit(const CompileRequest &req)
{
    ServiceReply reply;
    Latch published(1);
    if (!submitAsync(req, reply,
                     [&reply, &published](ServiceReply &&r) {
                         reply = std::move(r);
                         published.arrive();
                     }))
        published.wait();
    return reply;
}

bool
CompileService::tryServePublished(const std::string &label,
                                  const CacheKey &key,
                                  ServiceReply &reply)
{
    const Clock::time_point t0 = Clock::now();
    std::shared_ptr<Entry> entry;
    {
        // Only a published (LRU-accounted) entry qualifies: an absent
        // or in-flight key needs the full path's claim, so decline
        // without counting anything.
        std::lock_guard<std::mutex> lock(mu_);
        auto it = cache_.find(key);
        if (it == cache_.end() || !it->second.inLru)
            return false;
        requestsC_.add();
        hitsC_.add();
        touchLocked(it->second);
        entry = it->second.entry;
    }
    reply.label = label;
    reply.key = key;
    serveReady(*entry, t0, reply);
    return true;
}

ServiceStats
CompileService::stats() const
{
    ServiceStats s;
    {
        std::lock_guard<std::mutex> lock(mu_);
        s.cachedResults = cache_.size();
        s.cachedBytes = cachedBytes_;
        s.pendingCompiles = pendingCompiles_;
    }
    // Monotonic counters come from the metrics registry — stats() is a
    // snapshot view over the same cells {"cmd": "metrics"} renders.
    s.requests = requestsC_.value();
    s.hits = hitsC_.value();
    s.misses = missesC_.value();
    s.compiles = compilesC_.value();
    s.failures = failuresC_.value();
    s.evictions = evictionsC_.value();
    s.shed = shedC_.value();
    s.deadlineExpired = deadlineExpiredC_.value();
    s.cachedPrograms = programs_.size();
    s.analysisComputes = analysis_.computeCount();
    s.workerDeaths = pool_.deaths();
    return s;
}

} // namespace square
