/**
 * @file
 * The metric catalogue, the per-run result, and the run context every
 * workload receives.
 */

#ifndef PERFBENCH_REPORT_H
#define PERFBENCH_REPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Printed by an untraced run (every workload prints all of them). */
const std::vector<MetricSpec> &endToEndMetrics();

/** Printed by a traced run (every workload prints all of them). */
const std::vector<MetricSpec> &perLayerMetrics();

/** One run's outcome: counts, failures and metric values. */
class Report
{
  public:
    void set(const std::string &name, double value);

    /** One checked operation (a compile, a reply, an oracle check). */
    void attempt(int64_t n = 1) { attempted_ += n; }

    /** A failed operation; the first few messages go to stderr. */
    void fail(const std::string &what);

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }
    bool has(const std::string &name) const { return values_.count(name); }
    double get(const std::string &name) const;

    /**
     * Print every metric of @p catalogue as the final stdout line:
     * {"correct", "attempted", "failed", "metrics"}.  A catalogue
     * metric the run did not set is a harness bug: reported on stderr
     * and returned false, with nothing printed.
     */
    bool print(const std::vector<MetricSpec> &catalogue) const;

  private:
    std::map<std::string, double> values_;
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
};

/** Everything a workload needs for one run. */
struct RunContext
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory holding square_served and square_router. */
    std::string daemonDir;
    /** Fresh scratch directory for this run's fabric state. */
    std::string stateDir;
    Report report;
    /** The main thread's spans (client threads merge theirs in). */
    SpanLog spans;
};

/**
 * Effective parallelism: N threads spinning a fixed loop, against one
 * thread doing the same; N * t1 / tN (N = 1 means fully serialized).
 */
double measureParallelism(int threads);

/**
 * Host calibration.  The host's single-thread speed drifts by up to
 * 1.5x over seconds (other tenants on shared cores), which no amount
 * of in-run averaging removes.  Compile timings are therefore reported
 * on a calibrated scale: each is multiplied by kReferenceNominalMs over
 * the wall time of a fixed, branchy, cache-resident reference kernel
 * (sorting random integers) measured next to it.  Of the kernels tried
 * (L2 and LLC pointer chasing, sorting), sorting tracked compile()
 * slowdowns best (correlation 0.6-0.8 per round).  The kernel lives in
 * the benchmark, so a change to the library cannot move it.
 */
constexpr double kReferenceNominalMs = 10.0;

/** Wall milliseconds of one run of the reference kernel. */
double referenceKernelMs();

/** Median of @p reps runs of the reference kernel (ms). */
double medianReferenceMs(int reps);

/** Sizes of a tracing split: which blocks of a run are traced. */
inline bool
tracedBlock(double elapsed_s)
{
    // Alternate half-second blocks so both halves see the same drift.
    return static_cast<int64_t>(elapsed_s * 2.0) % 2 == 1;
}

} // namespace perfbench

#endif // PERFBENCH_REPORT_H
