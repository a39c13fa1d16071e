#include "service/cache_key.h"

namespace square {

uint64_t
configFingerprint(const SquareConfig &cfg)
{
    Fnv1a h;
    h.byte(static_cast<uint8_t>(cfg.reclaim));
    h.byte(static_cast<uint8_t>(cfg.alloc));

    if (cfg.alloc == AllocPolicy::Locality) {
        h.dbl(cfg.commWeight);
        h.dbl(cfg.serializationWeight);
        h.dbl(cfg.areaWeight);
        h.i32(cfg.candidateCap);
        // Hashed where a since-removed "box cutoff on" flag was, so
        // every key keeps its value.
        h.boolean(true);
        h.i32(cfg.anchorBoxMargin);
    }

    switch (cfg.reclaim) {
      case ReclaimPolicy::Cer:
        h.boolean(cfg.useLevelFactor);
        h.boolean(cfg.useAreaExpansion);
        h.boolean(cfg.useCommFactor);
        h.boolean(cfg.usePressure);
        h.dbl(cfg.holdHorizon);
        break;
      case ReclaimPolicy::MeasureReset:
        h.i64(cfg.resetLatency);
        break;
      case ReclaimPolicy::Forced:
        h.u64(cfg.forcedDecisions.size());
        for (bool d : cfg.forcedDecisions)
            h.boolean(d);
        break;
      case ReclaimPolicy::Eager:
      case ReclaimPolicy::Lazy:
        break;
    }
    // cfg.name is display-only: deliberately excluded.
    return h.value();
}

} // namespace square
