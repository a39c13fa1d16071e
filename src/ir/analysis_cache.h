/**
 * @file
 * Fingerprint-keyed sharing of ProgramAnalysis artifacts.
 *
 * ProgramAnalysis is a pure function of the Program and the largest
 * part of a compilation's set-up, yet batch scenarios — a batch
 * compiling the same workload under many policies/machines, a service
 * replaying cached request shapes — recompute it per job.  An
 * AnalysisCache keys the analysis by Program::fingerprint() and hands
 * every requester the same immutable instance, computing it exactly
 * once per unique fingerprint even under concurrent misses (first
 * requester computes, the rest block on its future).
 *
 * Thread-safe; entries live for the cache's lifetime (analyses are
 * small, bound by program structure rather than gate count).
 */

#ifndef SQUARE_IR_ANALYSIS_CACHE_H
#define SQUARE_IR_ANALYSIS_CACHE_H

#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ir/analysis.h"

namespace square {

/** Shared, thread-safe ProgramAnalysis store keyed by fingerprint. */
class AnalysisCache
{
  public:
    /**
     * The analysis for @p prog, whose fingerprint is @p fingerprint
     * (precomputed by the caller so batch layers can hash each unique
     * program once).  Computes on first request per fingerprint;
     * concurrent requesters for the same fingerprint share the one
     * computation.
     */
    std::shared_ptr<const ProgramAnalysis>
    get(const Program &prog, uint64_t fingerprint);

    /** Convenience overload hashing @p prog itself. */
    std::shared_ptr<const ProgramAnalysis>
    get(const Program &prog)
    {
        return get(prog, prog.fingerprint());
    }

    /** Analyses computed (misses); hits return shared instances. */
    int64_t computeCount() const;

    /** Distinct fingerprints seen. */
    size_t size() const;

  private:
    using Future = std::shared_future<std::shared_ptr<const ProgramAnalysis>>;

    mutable std::mutex mu_;
    std::unordered_map<uint64_t, Future> entries_;
    int64_t computes_ = 0;
};

} // namespace square

#endif // SQUARE_IR_ANALYSIS_CACHE_H
