#include "service/artifact_store.h"

#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/hash.h"
#include "obs/flight_recorder.h"

namespace square {

namespace {

/** Record frame magic ("SQS1": square store, format 1). */
constexpr uint32_t kStoreMagic = 0x31535153u;
constexpr size_t kFrameHeader = 4 + 4 + 8; // magic + length + checksum

/** Serialized payloads are bounded sanity, not protocol: a record
    bigger than this is treated as corruption, never allocated. */
constexpr uint32_t kMaxPayload = 1u << 30;

// Little-endian fixed-width primitives.  The log is a same-host
// warm-restart artifact; the explicit byte order just keeps the frame
// walker independent of struct layout and padding.

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putI64(std::string &out, int64_t v)
{
    putU64(out, static_cast<uint64_t>(v));
}

void
putI32(std::string &out, int32_t v)
{
    putU32(out, static_cast<uint32_t>(v));
}

void
putDbl(std::string &out, double v)
{
    putU64(out, std::bit_cast<uint64_t>(v));
}

void
putStr(std::string &out, const std::string &s)
{
    putU32(out, static_cast<uint32_t>(s.size()));
    out += s;
}

/** Bounds-checked little-endian reader over one payload. */
struct Reader
{
    const uint8_t *p;
    size_t n;
    bool ok = true;

    bool
    take(size_t k)
    {
        if (!ok || n < k) {
            ok = false;
            return false;
        }
        return true;
    }

    uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(p[i]) << (8 * i);
        p += 4;
        n -= 4;
        return v;
    }

    uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(p[i]) << (8 * i);
        p += 8;
        n -= 8;
        return v;
    }

    int64_t i64() { return static_cast<int64_t>(u64()); }
    int32_t i32() { return static_cast<int32_t>(u32()); }
    double dbl() { return std::bit_cast<double>(u64()); }

    bool
    str(std::string &out)
    {
        const uint32_t len = u32();
        if (!take(len))
            return false;
        out.assign(reinterpret_cast<const char *>(p), len);
        p += len;
        n -= len;
        return true;
    }
};

uint64_t
payloadChecksum(const char *data, size_t size)
{
    Fnv1a h;
    for (size_t i = 0; i < size; ++i)
        h.byte(static_cast<uint8_t>(data[i]));
    return h.value();
}

} // namespace

std::string
encodeStorePayload(const CacheKey &key, const CompileResult &result,
                   const std::string &tail)
{
    std::string out;
    // Rough upper bound keeps the append path at one allocation.
    out.reserve(200 + tail.size() +
                result.usageCurve.size() * 12 +
                (result.primaryInitialSites.size() +
                 result.primaryFinalSites.size()) *
                    4 +
                result.machineLabel.size() + result.policyLabel.size());

    putU64(out, key.program);
    putU64(out, key.machine);
    putU64(out, key.config);

    putI64(out, result.aqv);
    putI32(out, result.qubitsUsed);
    putI32(out, result.peakLive);
    putI64(out, result.gates);
    putI64(out, result.swaps);
    putI64(out, result.depth);

    putI64(out, result.sched.totalGates);
    putI64(out, result.sched.oneQubitGates);
    putI64(out, result.sched.twoQubitGates);
    putI64(out, result.sched.tGates);
    putI64(out, result.sched.toffoliGates);
    putI64(out, result.sched.swaps);
    putI64(out, result.sched.routedGates);
    putI64(out, result.sched.braidConflicts);
    putI64(out, result.sched.braids);

    putI64(out, result.uncomputeIrGates);
    putI32(out, result.reclaimCount);
    putI32(out, result.skipCount);
    putDbl(out, result.commFactor);
    putDbl(out, result.avgBraidLength);

    putU32(out, static_cast<uint32_t>(result.usageCurve.size()));
    for (const UsagePoint &u : result.usageCurve) {
        putI64(out, u.time);
        putI32(out, u.live);
    }
    // Format 1's gate list, always empty: the schedule streams only to
    // a compile's own TraceSink.
    putU32(out, 0);
    putU32(out,
           static_cast<uint32_t>(result.primaryInitialSites.size()));
    for (PhysQubit q : result.primaryInitialSites)
        putI32(out, q);
    putU32(out, static_cast<uint32_t>(result.primaryFinalSites.size()));
    for (PhysQubit q : result.primaryFinalSites)
        putI32(out, q);

    putStr(out, result.machineLabel);
    putStr(out, result.policyLabel);
    putStr(out, tail);
    return out;
}

bool
decodeStorePayload(const uint8_t *data, size_t size, StoreRecord &out)
{
    Reader r{data, size};
    out.key.program = r.u64();
    out.key.machine = r.u64();
    out.key.config = r.u64();

    CompileResult &res = out.result;
    res.aqv = r.i64();
    res.qubitsUsed = r.i32();
    res.peakLive = r.i32();
    res.gates = r.i64();
    res.swaps = r.i64();
    res.depth = r.i64();

    res.sched.totalGates = r.i64();
    res.sched.oneQubitGates = r.i64();
    res.sched.twoQubitGates = r.i64();
    res.sched.tGates = r.i64();
    res.sched.toffoliGates = r.i64();
    res.sched.swaps = r.i64();
    res.sched.routedGates = r.i64();
    res.sched.braidConflicts = r.i64();
    res.sched.braids = r.i64();

    res.uncomputeIrGates = r.i64();
    res.reclaimCount = r.i32();
    res.skipCount = r.i32();
    res.commFactor = r.dbl();
    res.avgBraidLength = r.dbl();

    uint32_t n = r.u32();
    if (!r.ok || n > size)
        return false;
    res.usageCurve.resize(n);
    for (UsagePoint &u : res.usageCurve) {
        u.time = r.i64();
        u.live = r.i32();
    }
    // No format-1 writer ever stored a gate.
    if (r.u32() != 0 || !r.ok)
        return false;
    n = r.u32();
    if (!r.ok || n > size)
        return false;
    res.primaryInitialSites.resize(n);
    for (PhysQubit &q : res.primaryInitialSites)
        q = r.i32();
    n = r.u32();
    if (!r.ok || n > size)
        return false;
    res.primaryFinalSites.resize(n);
    for (PhysQubit &q : res.primaryFinalSites)
        q = r.i32();

    if (!r.str(res.machineLabel) || !r.str(res.policyLabel) ||
        !r.str(out.tail))
        return false;
    // A payload with trailing garbage did not come from the encoder.
    return r.ok && r.n == 0;
}

std::string
frameStoreRecord(const std::string &payload)
{
    std::string out;
    out.reserve(kFrameHeader + payload.size());
    putU32(out, kStoreMagic);
    putU32(out, static_cast<uint32_t>(payload.size()));
    putU64(out, payloadChecksum(payload.data(), payload.size()));
    out += payload;
    return out;
}

bool
replayStoreFile(const std::string &path,
                const std::function<void(StoreRecord &&)> &fn,
                uint64_t &good_bytes, uint64_t &replayed,
                uint64_t &corrupt, std::string &error)
{
    good_bytes = 0;
    replayed = 0;
    corrupt = 0;
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        if (errno == ENOENT)
            return true; // absent = empty store
        error = path + ": " + std::strerror(errno);
        return false;
    }
    struct stat st = {};
    if (::fstat(fd, &st) != 0) {
        error = path + ": " + std::strerror(errno);
        ::close(fd);
        return false;
    }
    const size_t size = static_cast<size_t>(st.st_size);
    if (size == 0) {
        ::close(fd);
        return true;
    }
    void *map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map == MAP_FAILED) {
        error = path + ": mmap: " + std::strerror(errno);
        return false;
    }
    const uint8_t *base = static_cast<const uint8_t *>(map);
    size_t off = 0;
    while (off + kFrameHeader <= size) {
        Reader hdr{base + off, kFrameHeader};
        const uint32_t magic = hdr.u32();
        const uint32_t len = hdr.u32();
        const uint64_t sum = hdr.u64();
        if (magic != kStoreMagic || len > kMaxPayload ||
            off + kFrameHeader + len > size)
            break; // torn or corrupt tail: stop, truncate to here
        const uint8_t *payload = base + off + kFrameHeader;
        if (payloadChecksum(reinterpret_cast<const char *>(payload),
                            len) != sum)
            break; // bit rot / partial write caught by the checksum
        StoreRecord rec;
        if (!decodeStorePayload(payload, len, rec))
            break; // framed fine but not a record the decoder knows
        fn(std::move(rec));
        ++replayed;
        off += kFrameHeader + len;
    }
    good_bytes = off;
    if (off != size)
        corrupt = 1; // one undecodable region, however long
    ::munmap(map, size);
    return true;
}

ArtifactStore::ArtifactStore()
    : appendedC_(metrics_.counter("appended")),
      appendBytesC_(metrics_.counter("append_bytes")),
      droppedC_(metrics_.counter("dropped")),
      logBytesG_(metrics_.gauge("log_bytes"))
{
}

ArtifactStore::~ArtifactStore() { close(); }

bool
ArtifactStore::open(const Options &opts,
                    const std::function<void(StoreRecord &&)> &fn,
                    std::string &error)
{
    opts_ = opts;

    uint64_t good_bytes = 0, replayed = 0, corrupt = 0;
    if (!replayStoreFile(opts_.path, fn, good_bytes, replayed, corrupt,
                         error))
        return false;

    const int fd = ::open(opts_.path.c_str(),
                          O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd < 0) {
        error = opts_.path + ": " + std::strerror(errno);
        return false;
    }
    if (corrupt != 0) {
        // Truncate the torn tail in place so the next append extends
        // a clean log (O_APPEND writes land at the new end).
        if (::ftruncate(fd, static_cast<off_t>(good_bytes)) != 0) {
            error = opts_.path + ": ftruncate: " + std::strerror(errno);
            ::close(fd);
            return false;
        }
        obs::recordEvent(obs::Comp::Store, obs::Ev::StoreCorrupt,
                         good_bytes);
    }

    metrics_.counter("replayed").add(static_cast<int64_t>(replayed));
    metrics_.counter("corrupt_records")
        .add(static_cast<int64_t>(corrupt));
    logBytesG_.set(static_cast<int64_t>(good_bytes));
    obs::recordEvent(obs::Comp::Store, obs::Ev::StoreReplay, replayed,
                     good_bytes);

    std::lock_guard<std::mutex> lock(mu_);
    fd_ = fd;
    return true;
}

void
ArtifactStore::append(const CacheKey &key, const CompileResult &result,
                      const std::string &tail)
{
    const std::string frame =
        frameStoreRecord(encodeStorePayload(key, result, tail));
    size_t done = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (fd_ < 0)
            return; // closed: a late publish during teardown
        // One write() per record: either the whole frame lands or the
        // replay checksum rejects the tail — never a half-applied
        // record presented as whole.
        while (done < frame.size()) {
            const ssize_t wrote = ::write(fd_, frame.data() + done,
                                          frame.size() - done);
            if (wrote <= 0)
                break;
            done += static_cast<size_t>(wrote);
        }
        if (done == frame.size() && opts_.fsyncEachRecord)
            ::fsync(fd_);
    }
    if (done != frame.size()) {
        // The store is a cache of a cache: a lost record only means
        // this key restarts cold.
        droppedC_.add();
        obs::recordEvent(obs::Comp::Store, obs::Ev::StoreDrop, done);
        return;
    }
    appendedC_.add();
    appendBytesC_.add(static_cast<int64_t>(frame.size()));
    logBytesG_.add(static_cast<int64_t>(frame.size()));
    obs::recordEvent(obs::Comp::Store, obs::Ev::StoreAppend,
                     frame.size());
}

void
ArtifactStore::close()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0)
        return;
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
}

} // namespace square
