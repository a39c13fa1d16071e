/**
 * @file
 * Deterministic fault injection for the serving tier.
 *
 * Compiled in unconditionally, enabled only by explicit configuration
 * (square_served --faults=SPEC or the SQUARE_FAULTS environment
 * variable), so production binaries carry the harness at the cost of
 * one relaxed atomic load per probe site.  Every stochastic decision
 * draws from one seeded Rng (common/rng.h): a given seed replays the
 * same fault schedule, which is what lets tests pin recovery behavior
 * (shed counts, no stuck connections, bit-identical post-recovery
 * results) instead of asserting "something survived".
 *
 * Injectable faults:
 *
 *  - compile delays (fixed + jitter): turns every miss into a slow
 *    miss, the traffic shape the async cold path exists for;
 *  - worker deaths: a probability per dequeued async job that the
 *    worker thread dies before running it (the pool re-queues the job
 *    and respawns — see fleet/worker_pool.h);
 *  - reply-write failures: a probability per flush that the transport
 *    treats the connection's socket as broken mid-write;
 *  - read stalls: a fixed sleep injected before servicing readable
 *    bytes, time-shifting the loop the way slow/stalled clients do;
 *  - connect failures: a probability per outbound connect attempt
 *    that it fails as if the peer refused — the fabric router's
 *    upstream pool probes this, so shard-unreachable failover is
 *    testable without real process teardown;
 *  - connection resets: a per-connection byte budget after which the
 *    next upstream send fails as if the peer sent RST mid-line — the
 *    deterministic stand-in for a shard dying under load.
 *
 * Spec grammar (comma-separated, unknown keys reject):
 *
 *   seed=7,compile_delay_ms=30,compile_delay_jitter_ms=10,
 *   worker_death_rate=0.05,write_fail_rate=0.01,read_stall_ms=5,
 *   connect_fail_rate=1,reset_after_bytes=4096
 *
 * The injector is a process-global singleton: the probe sites live in
 * transports and service hooks that have no natural configuration
 * path, and one process serves one server in every deployment shape
 * (tool, test, bench).  Tests that enable it must disable() on exit.
 */

#ifndef SQUARE_SERVER_FAULTS_H
#define SQUARE_SERVER_FAULTS_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

#include "common/rng.h"
#include "obs/metrics.h"

namespace square {

/** Tunable fault rates; all zero = no faults even when enabled. */
struct FaultConfig
{
    uint64_t seed = 1;
    double compileDelayMs = 0;       ///< fixed sleep per compile
    double compileDelayJitterMs = 0; ///< + uniform [0, jitter)
    double workerDeathRate = 0;      ///< P(worker dies) per dequeue
    double writeFailRate = 0;        ///< P(flush fails) per flush
    double readStallMs = 0;          ///< sleep before servicing reads
    double connectFailRate = 0;      ///< P(outbound connect fails)
    /** Bytes an upstream connection may send before its next send is
        treated as a peer reset (0 = never). */
    uint64_t resetAfterBytes = 0;
};

/** Monotonic counters of faults actually injected (a registry view). */
struct FaultStats
{
    int64_t compileDelays = 0;
    int64_t workerDeaths = 0;
    int64_t writeFailures = 0;
    int64_t readStalls = 0;
    int64_t connectFailures = 0;
    int64_t connectionResets = 0;
};

class FaultInjector
{
  public:
    static FaultInjector &instance();

    /** Install @p cfg and enable the probes. */
    void configure(const FaultConfig &cfg);

    /** Disable every probe (counters keep their values). */
    void disable();

    /** Fast probe gate: false is one relaxed atomic load. */
    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Parse a spec string (see file comment) and configure().  False
     * with a message on malformed input; an empty spec is an error.
     * seed and reset_after_bytes are unsigned integers, the three
     * rates probabilities in [0, 1], the delays and the stall
     * milliseconds in [0, 3600000] (common/flags.h parses every
     * value).
     */
    bool configureFromSpec(const std::string &spec, std::string &error);

    /** configureFromSpec(getenv("SQUARE_FAULTS")); false if unset. */
    bool configureFromEnv(std::string &error);

    /** Probe: sleep the configured compile delay (+ jitter). */
    void onCompileStart();

    /** Probe: should the dequeuing worker die?  (Pool respawns.) */
    bool shouldKillWorker();

    /** Probe: should this flush be treated as a broken socket? */
    bool shouldFailWrite();

    /** Probe: sleep the configured read stall. */
    void onReadStart();

    /** Probe: should this outbound connect attempt fail? */
    bool shouldFailConnect();

    /**
     * The per-connection send budget before a simulated peer reset
     * (0 = resets disabled).  The caller tracks its own sent-byte
     * count — the budget is per *connection*, not process-global —
     * and reports the reset it injects via noteConnectionReset().
     */
    uint64_t resetAfterBytes() const;

    /** Count one injected connection reset. */
    void noteConnectionReset();

    FaultStats stats() const;

    /**
     * The injected-fault counters (<name>_total) and the `enabled`
     * gauge, rendered as square_faults by the {"cmd": "metrics"}
     * reply of every serving tier, so injected-fault activity is
     * observable next to the service counters it perturbs.
     */
    const obs::Registry &metricsRegistry() const { return metrics_; }

  private:
    FaultInjector();

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;
    FaultConfig cfg_;
    Rng rng_{1};
    obs::Registry metrics_;
    obs::Counter &compileDelaysC_;
    obs::Counter &workerDeathsC_;
    obs::Counter &writeFailuresC_;
    obs::Counter &readStallsC_;
    obs::Counter &connectFailuresC_;
    obs::Counter &connectionResetsC_;
    obs::Gauge &enabledG_;
};

} // namespace square

#endif // SQUARE_SERVER_FAULTS_H
