/**
 * @file
 * Content-addressed compilation cache keys.
 *
 * A compilation is a pure function of (Program, Machine, SquareConfig)
 * — the re-entrancy contract established in core/executor.h — so its
 * result can be addressed by content: the program's structural
 * fingerprint, the machine spec's fingerprint, and a *canonicalized*
 * configuration fingerprint.
 *
 * Canonicalization hashes only the fields that can influence the
 * result under the configured policies:
 *
 *  - `name` is display-only and always excluded (two configs differing
 *    only in name dedupe to one compilation);
 *  - LAA knobs (weights, candidateCap, anchorBoxMargin) count only under
 *    AllocPolicy::Locality;
 *  - CER cost-model toggles count only under ReclaimPolicy::Cer;
 *  - `resetLatency` counts only under MeasureReset, `forcedDecisions`
 *    only under Forced.
 *
 * This makes the key an honest semantic identity: requests that must
 * compile identically share a key even when irrelevant knobs differ.
 */

#ifndef SQUARE_SERVICE_CACHE_KEY_H
#define SQUARE_SERVICE_CACHE_KEY_H

#include <cstdint>
#include <functional>

#include "common/hash.h"
#include "core/policy.h"
#include "service/machine_spec.h"

namespace square {

/** Canonical config fingerprint (see file header for the rules). */
uint64_t configFingerprint(const SquareConfig &cfg);

/** Identity of one cached compilation. */
struct CacheKey
{
    uint64_t program = 0; ///< Program::fingerprint()
    uint64_t machine = 0; ///< MachineSpec::fingerprint()
    uint64_t config = 0;  ///< configFingerprint()

    bool
    operator==(const CacheKey &o) const
    {
        return program == o.program && machine == o.machine &&
               config == o.config;
    }
};

/** Build the key for one request triple. */
inline CacheKey
makeCacheKey(uint64_t program_fp, const MachineSpec &machine,
             const SquareConfig &cfg)
{
    return CacheKey{program_fp, machine.fingerprint(),
                    configFingerprint(cfg)};
}

struct CacheKeyHash
{
    size_t
    operator()(const CacheKey &k) const
    {
        return static_cast<size_t>(
            hashCombine(k.program, hashCombine(k.machine, k.config)));
    }
};

} // namespace square

#endif // SQUARE_SERVICE_CACHE_KEY_H
