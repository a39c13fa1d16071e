/**
 * @file
 * The serving fabric under test and the loopback helpers that talk to
 * it: launch two shard daemons and a router on the command lines
 * tools/square_fabric.sh deploys them with, read the daemons'
 * stats/metrics counters, and tear everything down.
 */

#ifndef PERFBENCH_FABRIC_H
#define PERFBENCH_FABRIC_H

#include <sched.h>
#include <sys/types.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/** Flat name -> number view of a stats reply or a metrics scrape. */
using Counters = std::map<std::string, double>;

class Fabric
{
  public:
    Fabric() = default;
    ~Fabric() { stop(); }

    Fabric(const Fabric &) = delete;
    Fabric &operator=(const Fabric &) = delete;

    /**
     * Start two `square_served --shards=1` daemons from @p daemon_dir,
     * each with its own artifact store, and `square_router` in front of
     * them, with their state (ports, stores, logs) in the fresh
     * directory @p state_dir; wait until the router listens.
     * @p cache_entries is the per-shard LRU bound (0 = unbounded).
     */
    bool start(const std::string &daemon_dir, const std::string &state_dir,
               size_t cache_entries, std::string &error);

    /**
     * Cascade-shutdown the fabric and reap it, killing its process
     * group if it does not drain in time.  True when it drained.
     */
    bool stop();

    uint16_t routerPort() const { return routerPort_; }
    const std::vector<uint16_t> &shardPorts() const { return shardPorts_; }
    const std::vector<pid_t> &shardPids() const { return shardPids_; }
    pid_t routerPid() const { return routerPid_; }

  private:
    /** Process group of every daemon (the first shard's pid). */
    pid_t pgid_ = -1;
    pid_t routerPid_ = -1;
    uint16_t routerPort_ = 0;
    std::vector<uint16_t> shardPorts_;
    std::vector<pid_t> shardPids_;
};

/** Send one line on a fresh connection and read one reply line. */
bool exchange(uint16_t port, const std::string &line, std::string &reply,
              std::string &error, int timeout_ms = 10000);

/** Numeric fields of a flat JSON reply (booleans as 0/1). */
Counters parseNumbers(std::string_view line);

/**
 * Parse Prometheus text: each plain series keyed by its name with the
 * labels dropped and values summed across label sets; summary
 * quantiles keyed as `name:q<quantile>` (max across label sets).
 */
Counters parseMetricsText(std::string_view text);

/** {"cmd": "stats"} at @p port, parsed. */
bool fetchStats(uint16_t port, Counters &out, std::string &error);

/** {"cmd": "metrics"} at @p port, parsed. */
bool fetchMetrics(uint16_t port, Counters &out, std::string &error);

/** after[name] - before[name] (missing counts as 0). */
double delta(const Counters &before, const Counters &after,
             const std::string &name);

/** Give every thread of @p pid the CPU mask @p mask; false on failure. */
bool setProcessAffinity(pid_t pid, const cpu_set_t &mask);

/** Peak resident set (VmHWM) of @p pid in MB; 0 when unreadable. */
double peakRssMb(pid_t pid);

/** User + system CPU seconds @p pid has consumed; 0 when unreadable. */
double cpuSeconds(pid_t pid);

} // namespace perfbench

#endif // PERFBENCH_FABRIC_H
