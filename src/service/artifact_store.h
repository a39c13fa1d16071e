/**
 * @file
 * The persistent artifact store: an append-only, crash-safe on-disk
 * log of published cache entries, and the warm-restart half of the
 * serving story.
 *
 * A restarted daemon starts cold and re-pays the full compile cost
 * for every key — warm hits are orders of magnitude cheaper than cold
 * compiles, so a restart under production traffic is a throughput
 * cliff.  The cache is content-addressed (CacheKey = program fp x
 * machine fp x config fp over *content*, never addresses), which
 * makes persistence safe by construction: a key either matches
 * bit-identical bytes or is absent, so replaying a log can never
 * serve a stale artifact — at worst it warms a key nobody asks for.
 * The same property makes the log the fabric's cache-shipping unit: a
 * freshly added shard bulk-loads a donor shard's log (--prewarm) and
 * keys outside its ring slice are simply never looked up.
 *
 * On-disk format: a sequence of framed records, each
 *
 *   [u32 magic][u32 payload length][u64 FNV-1a payload checksum]
 *   [payload bytes]
 *
 * where the payload is the 3-part CacheKey, the field-serialized
 * CompileResult, and the preserialized NDJSON reply tail (the bytes
 * warm hits write to the wire).  Fields are fixed-width little-endian
 * scalars with length-prefixed vectors/strings; doubles travel by bit
 * pattern, so a replayed result is bit-identical to the published
 * one.  Between the usage curve and the primary sites sits a gate-list
 * count that is always 0 (a result carries no schedule); the decoder
 * refuses any other value.  The log is a same-host warm-restart
 * artifact, not a portable interchange format.
 *
 * Crash safety is truncate-on-replay: appends are single write()s to
 * an O_APPEND fd, so the only torn state a crash can leave is a
 * partial final record.  replay() mmaps the file, walks the frames,
 * and stops at the first bad magic / short frame / checksum mismatch
 * — the torn tail is counted (square_store_corrupt_records_total),
 * truncated, and never replayed.  An empty (or absent) file is a
 * valid empty store.
 *
 * Appends are synchronous and ordered before the reply: append()
 * encodes the record on the calling thread (the compile worker that
 * publishes it) and writes the whole frame under the store's one
 * mutex, then fsyncs when fsyncEachRecord is set, before it returns.
 * The service fires its publish sink before the entry turns ready, so
 * a record is in the log before any reply for its key leaves the
 * shard, and with --store-fsync it is on stable storage too.  A write
 * that fails is counted (square_store_dropped_total) and not retried:
 * the store is a cache, so a lost record only means that key starts
 * cold after the next restart.
 */

#ifndef SQUARE_SERVICE_ARTIFACT_STORE_H
#define SQUARE_SERVICE_ARTIFACT_STORE_H

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "core/compiler.h"
#include "obs/metrics.h"
#include "service/cache_key.h"

namespace square {

/** One replayed record, handed to the replay callback. */
struct StoreRecord
{
    CacheKey key;
    CompileResult result;
    /** The preserialized NDJSON reply tail published with the key. */
    std::string tail;
};

/** Serialize one record's payload (key + result + tail). */
std::string encodeStorePayload(const CacheKey &key,
                               const CompileResult &result,
                               const std::string &tail);

/** Decode one payload; false (without throwing) on malformed bytes. */
bool decodeStorePayload(const uint8_t *data, size_t size,
                        StoreRecord &out);

/** Frame @p payload into a complete on-disk record. */
std::string frameStoreRecord(const std::string &payload);

/**
 * Walk the framed records of an on-disk log (mmap'd when non-empty),
 * invoking @p fn for each intact record in file order.  Returns the
 * byte offset of the end of the last intact record — the truncation
 * point when the tail is torn — and reports torn/corrupt tails
 * through @p corrupt (0 or 1: everything after the first bad frame is
 * one undecodable region).  A missing or empty file replays zero
 * records successfully.  Never modifies the file.
 */
bool replayStoreFile(const std::string &path,
                     const std::function<void(StoreRecord &&)> &fn,
                     uint64_t &good_bytes, uint64_t &replayed,
                     uint64_t &corrupt, std::string &error);

class ArtifactStore
{
  public:
    struct Options
    {
        std::string path;
        /** fsync every appended record before append() returns
            (durability over latency); off = rely on the page cache
            like any log. */
        bool fsyncEachRecord = false;
    };

    ArtifactStore();
    ~ArtifactStore();

    ArtifactStore(const ArtifactStore &) = delete;
    ArtifactStore &operator=(const ArtifactStore &) = delete;

    /**
     * Open (creating if absent) and replay the log: @p fn is invoked
     * for every intact record in file order — append order IS recency
     * order, so a replayer inserting into an LRU naturally keeps the
     * most recently published tail of an over-limit log.  A torn tail
     * is truncated in place so the next append extends a clean log.
     * False with a message on I/O failure (bad path, permissions).
     */
    bool open(const Options &opts,
              const std::function<void(StoreRecord &&)> &fn,
              std::string &error);

    /**
     * Write one published entry to the log.  The frame is encoded on
     * the calling thread, then written whole with one write() under
     * the store's mutex (and fsynced when fsyncEachRecord is set)
     * before this returns.  Safe from any thread; a no-op after
     * close().
     */
    void append(const CacheKey &key, const CompileResult &result,
                const std::string &tail);

    /** fsync and close the log; later appends are no-ops. */
    void close();

    /**
     * Store telemetry: square_store_replayed_total,
     * square_store_corrupt_records_total, square_store_appended_total,
     * square_store_append_bytes_total, square_store_dropped_total
     * (failed writes), square_store_log_bytes (gauge).
     */
    const obs::Registry &metricsRegistry() const { return metrics_; }

    /** Fold a prewarm replay (replayStoreFile over a donor log) into
        this store's telemetry: square_store_prewarm_replayed_total
        and the shared corrupt-records counter. */
    void notePrewarm(uint64_t inserted, uint64_t corrupt)
    {
        metrics_.counter("prewarm_replayed")
            .add(static_cast<int64_t>(inserted));
        metrics_.counter("corrupt_records")
            .add(static_cast<int64_t>(corrupt));
    }

    const std::string &path() const { return opts_.path; }

  private:
    Options opts_;

    obs::Registry metrics_;
    obs::Counter &appendedC_;
    obs::Counter &appendBytesC_;
    obs::Counter &droppedC_;
    obs::Gauge &logBytesG_;

    /** Serializes writes, the fsync and close() on the log fd. */
    std::mutex mu_;
    int fd_ = -1; ///< guarded by mu_; -1 before open() and once closed
};

} // namespace square

#endif // SQUARE_SERVICE_ARTIFACT_STORE_H
