/**
 * @file
 * square_storetool: inspect, verify, and compact artifact-store logs
 * (the append-only compile logs written by square_served --store=PATH;
 * format in src/service/artifact_store.h).
 *
 * The log is append-only, so a long-lived shard accumulates superseded
 * records — re-publishes of a key after an eviction — and the oldest
 * records may describe keys the LRU has long since dropped.  Replay
 * handles both (later records win recency, over-limit entries evict),
 * but the dead bytes still cost restart time and disk.  This tool is
 * the offline maintenance half: verify a log's integrity, see what is
 * in it, and rewrite it keeping only the last record per key.
 *
 *   square_storetool verify  state/shard1.store
 *   square_storetool inspect state/shard1.store
 *   square_storetool compact state/shard1.store --out=warm.store
 *
 * Commands:
 *   verify  LOG    walk every frame and checksum; print record/byte
 *                  counts; exit 1 if the log has a torn/corrupt tail
 *   inspect LOG    verify, plus per-machine and per-policy histograms
 *                  (record counts and payload bytes) and, with
 *                  --keys, one line per surviving record
 *   compact LOG    rewrite the log keeping only the LAST record per
 *                  key (append order is recency order, so the last
 *                  record is the one replay would keep) in original
 *                  relative order; a torn tail is dropped, not copied
 *
 * Flags:
 *   --out=PATH     compact: write here instead of replacing LOG
 *   --keys         inspect: also print one line per record
 *
 * Compaction is crash-safe: the output is written to a temp file in
 * the destination directory and rename(2)d over the target, so a
 * killed compaction leaves the original log untouched.  Compact a
 * live shard's log only into --out (the daemon holds an O_APPEND fd
 * to the original; renaming under it orphans its appends).
 *
 * Exit status: 0 on a clean log (verify/inspect) or a completed
 * rewrite (compact); 1 on I/O errors or a corrupt tail in verify.
 */

#include <cinttypes>
#include <cstdio>
#include <map>
#include <string>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "service/artifact_store.h"

using namespace square;

namespace {

struct LabelBucket {
    uint64_t records = 0;
    uint64_t bytes = 0;
};

/** Replay @p path collecting every intact record (in file order). */
bool
loadLog(const char *path, std::vector<StoreRecord> &records,
        uint64_t &good_bytes, uint64_t &corrupt)
{
    uint64_t replayed = 0;
    std::string error;
    if (!replayStoreFile(
            path,
            [&records](StoreRecord &&rec) {
                records.push_back(std::move(rec));
            },
            good_bytes, replayed, corrupt, error)) {
        std::fprintf(stderr, "square_storetool: %s\n", error.c_str());
        return false;
    }
    return true;
}

void
printHistogram(const char *title,
               const std::map<std::string, LabelBucket> &buckets)
{
    std::printf("%s:\n", title);
    for (const auto &[label, b] : buckets)
        std::printf("  %-24s %8" PRIu64 " record(s) %12" PRIu64
                    " payload byte(s)\n",
                    label.empty() ? "(unlabelled)" : label.c_str(),
                    b.records, b.bytes);
}

int
cmdVerify(const char *path, bool inspect, bool print_keys)
{
    std::vector<StoreRecord> records;
    uint64_t good_bytes = 0;
    uint64_t corrupt = 0;
    if (!loadLog(path, records, good_bytes, corrupt))
        return 1;

    // Replay keeps the LAST record per key; earlier ones are
    // superseded bytes a compaction would reclaim.
    std::unordered_map<CacheKey, size_t, CacheKeyHash> last;
    for (size_t i = 0; i < records.size(); ++i)
        last[records[i].key] = i;

    std::printf("%s: %zu record(s), %zu distinct key(s), %" PRIu64
                " intact byte(s)%s\n",
                path, records.size(), last.size(), good_bytes,
                corrupt != 0 ? ", CORRUPT TAIL (truncated on replay)"
                             : "");

    if (inspect) {
        std::map<std::string, LabelBucket> by_machine;
        std::map<std::string, LabelBucket> by_policy;
        uint64_t live_bytes = 0;
        for (size_t i = 0; i < records.size(); ++i) {
            const StoreRecord &rec = records[i];
            const uint64_t payload =
                encodeStorePayload(rec.key, rec.result, rec.tail)
                    .size();
            by_machine[rec.result.machineLabel].records += 1;
            by_machine[rec.result.machineLabel].bytes += payload;
            by_policy[rec.result.policyLabel].records += 1;
            by_policy[rec.result.policyLabel].bytes += payload;
            if (last[rec.key] == i)
                live_bytes += payload;
            if (print_keys)
                std::printf("  %016" PRIx64 "/%016" PRIx64
                            "/%016" PRIx64 " %8" PRIu64
                            " byte(s) %s%s\n",
                            rec.key.program, rec.key.machine,
                            rec.key.config, payload,
                            rec.result.machineLabel.c_str(),
                            last[rec.key] == i ? "" : " (superseded)");
        }
        printHistogram("by machine", by_machine);
        printHistogram("by policy", by_policy);
        std::printf("superseded: %zu record(s); compacted payload "
                    "would be %" PRIu64 " byte(s)\n",
                    records.size() - last.size(), live_bytes);
    }
    return corrupt != 0 && !inspect ? 1 : 0;
}

int
cmdCompact(const char *path, const char *out_path)
{
    std::vector<StoreRecord> records;
    uint64_t good_bytes = 0;
    uint64_t corrupt = 0;
    if (!loadLog(path, records, good_bytes, corrupt))
        return 1;

    std::unordered_map<CacheKey, size_t, CacheKeyHash> last;
    for (size_t i = 0; i < records.size(); ++i)
        last[records[i].key] = i;

    const std::string dest = out_path != nullptr ? out_path : path;
    const std::string tmp = dest + ".compact.tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr) {
        std::fprintf(stderr, "square_storetool: cannot write %s\n",
                     tmp.c_str());
        return 1;
    }
    uint64_t kept = 0;
    uint64_t written = 0;
    for (size_t i = 0; i < records.size(); ++i) {
        if (last[records[i].key] != i)
            continue; // superseded by a later re-publish
        const StoreRecord &rec = records[i];
        const std::string frame = frameStoreRecord(
            encodeStorePayload(rec.key, rec.result, rec.tail));
        if (std::fwrite(frame.data(), 1, frame.size(), f) !=
            frame.size()) {
            std::fprintf(stderr, "square_storetool: short write to "
                                 "%s\n",
                         tmp.c_str());
            std::fclose(f);
            std::remove(tmp.c_str());
            return 1;
        }
        ++kept;
        written += frame.size();
    }
    // Durable before visible: flush + fsync the temp file, then
    // rename over the destination so a crash never leaves a partial
    // compacted log under the real name.
    if (std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
        std::fprintf(stderr, "square_storetool: cannot sync %s\n",
                     tmp.c_str());
        std::fclose(f);
        std::remove(tmp.c_str());
        return 1;
    }
    std::fclose(f);
    if (std::rename(tmp.c_str(), dest.c_str()) != 0) {
        std::fprintf(stderr, "square_storetool: cannot rename %s "
                             "over %s\n",
                     tmp.c_str(), dest.c_str());
        std::remove(tmp.c_str());
        return 1;
    }
    std::printf("%s: kept %" PRIu64 "/%zu record(s), %" PRIu64
                " -> %" PRIu64 " byte(s)%s -> %s\n",
                path, kept, records.size(), good_bytes, written,
                corrupt != 0 ? " (corrupt tail dropped)" : "",
                dest.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out_path;
    bool print_keys = false;
    std::vector<std::string> args;
    const std::vector<Flag> flags = {
        // An empty --out= must not fall back to compacting in place.
        {"out", "PATH",
         [&out_path](std::string_view path, std::string &) {
             out_path = path;
             return !path.empty();
         }},
        switchFlag("keys", print_keys)};
    constexpr const char *kOperands = "verify|inspect|compact LOG";
    if (!parseFlags(argc, argv, flags, &args, kOperands))
        return 1;
    const std::string command = args.size() == 2 ? args[0] : "";
    if (command == "verify")
        return cmdVerify(args[1].c_str(), /*inspect=*/false, false);
    if (command == "inspect")
        return cmdVerify(args[1].c_str(), /*inspect=*/true, print_keys);
    if (command == "compact")
        return cmdCompact(args[1].c_str(),
                          out_path.empty() ? nullptr : out_path.c_str());
    printUsage(argv[0], flags, kOperands);
    return 1;
}
