/**
 * @file
 * Newline-delimited JSON protocol for the square_serve binary.
 *
 * One request per input line, one JSON reply per output line; the
 * transport is stdin/stdout so the server is scriptable with no
 * network dependency (pipe a file of requests through it, or drive it
 * interactively).  Blank lines and lines starting with '#' are
 * skipped.
 *
 * Request object (flat; unknown fields are rejected):
 *
 *   {"workload": "SHA2"}                          minimal
 *   {"id": 7,
 *    "workload": "SHA2",                          registry name
 *    "machine": "nisq:32x32",                     MachineSpec text
 *                                                 (default: the paper
 *                                                  machine for the
 *                                                  workload)
 *    "policy": "square",                          square | eager |
 *                                                 lazy | laa | mr:<N>
 *    "anchor_box_margin": 16,                     optional SquareConfig
 *    "candidate_cap": 16,                          overrides
 *    "comm_weight": 1.0,
 *    "serialization_weight": 0.5,
 *    "area_weight": 0.3,
 *    "hold_horizon": 1.0,                         (all four finite and
 *                                                  >= 0; hold_horizon
 *                                                  <= 1e6)
 *    "deadline_ms": 250,                          latency budget, ms
 *                                                 (0 = none, at most
 *                                                  1e9; a queued
 *                                                  compile whose
 *                                                  waiters all expired
 *                                                  is cancelled)
 *    "priority": "batch",                         interactive (default)
 *                                                 | batch (admitted
 *                                                  only with compile-
 *                                                  queue headroom)
 *    "trace_id": "3f2a9c0d11e4b857"}              distributed-tracing
 *                                                 correlation id (1-16
 *                                                  hex digits); tiers
 *                                                  that see it record
 *                                                  spans against it
 *                                                  (obs/trace.h)
 *
 *   {"cmd": "stats"}                              service counters
 *   {"cmd": "metrics"}                            Prometheus text
 *                                                 exposition, \n-escaped
 *                                                 into a "text" field
 *                                                 (obs/metrics.h)
 *   {"cmd": "ping"}                               liveness probe
 *                                                 ({"ok": true,
 *                                                   "cmd": "ping"});
 *                                                 the fabric router's
 *                                                 health checks use it
 *
 * Inter-tier framing (router -> shard): the fabric router forwards a
 * client request with the id rewritten to a router correlation id and
 * one extra field,
 *
 *   "key": "<progfp>-<machinefp>-<cfgfp>"         the CacheKey the
 *                                                 router resolved, as
 *                                                 three 16-hex-digit
 *                                                 words
 *
 * so the shard serves warm hits straight from the forwarded key —
 * no machine-spec parse, no config canonicalization, no name-cache
 * lookup.  A miss (or an unparsable key) falls back to full request
 * resolution; the shard's own computed key always wins, so a stale or
 * hostile "key" can at worst miss the fast path.
 *
 * Overload shedding and deadline expiry reply with structured status
 * lines instead of results (and never disconnect):
 *
 *   {"id": 7, "ok": false, "status": "overloaded",
 *    "retry_after_ms": 150}
 *   {"id": 7, "ok": false, "status": "deadline_expired",
 *    "error": "deadline expired before compile started"}
 *
 * Reply line for a compile request (volatile fields — id, label,
 * cache tag, service time — lead; the immutable metric tail is
 * serialized once per cache key and reused byte-for-byte on hits):
 *
 *   {"id": 7, "ok": true, "label": "...", "cache": "hit",
 *    "millis": T, "gates": N, "swaps": N, "depth": N, "aqv": N,
 *    "qubits_used": N, "peak_live": N, "reclaims": N, "skips": N,
 *    "key": "<hex>"}
 *
 * and for stats:
 *
 *   {"ok": true, "requests": N, "hits": N, "misses": N,
 *    "compiles": N, "failures": N, "analysis_computes": N,
 *    "cached_results": N, "hit_rate": R}
 *
 * Errors reply {"id": ..., "ok": false, "error": "..."} and never kill
 * the server.
 */

#ifndef SQUARE_SERVICE_PROTOCOL_H
#define SQUARE_SERVICE_PROTOCOL_H

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "service/service.h"

namespace square {

/**
 * True for lines the protocol ignores: blanks and '#' comments, so
 * annotated request files pipe through every frontend (square_serve,
 * square_client, the TCP server) identically.
 */
inline bool
isProtocolNoOp(std::string_view line)
{
    size_t first = line.find_first_not_of(" \t\r");
    return first == std::string_view::npos || line[first] == '#';
}

/**
 * A parsed flat JSON object: key -> raw value token (strings
 * unescaped, numbers/booleans as their literal text).  The protocol
 * never nests and requests carry ~10 fields at most, so a flat vector
 * with linear lookup beats a node-per-field map on the warm serving
 * path (reused across requests, it amortizes to zero allocations).
 */
struct JsonRequest
{
    std::vector<std::pair<std::string, std::string>> fields;

    bool
    has(std::string_view key) const
    {
        return find(key) != nullptr;
    }

    std::string
    get(std::string_view key, const std::string &fallback = "") const
    {
        const std::string *value = find(key);
        return value != nullptr ? *value : fallback;
    }

    const std::string *
    find(std::string_view key) const
    {
        for (const auto &[k, v] : fields) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }
};

/**
 * Parse one request line.  Accepts a flat JSON object with string,
 * number, and boolean values; rejects nesting, arrays, and malformed
 * input with a message in @p error.
 */
bool parseJsonLine(std::string_view line, JsonRequest &out,
                   std::string &error);

/**
 * Turn a parsed request into a CompileRequest.  Returns false with a
 * message when the request is malformed (unknown field, bad machine
 * spec, bad policy, unknown workload names are caught later by the
 * service).
 */
bool buildRequest(const JsonRequest &json, CompileRequest &out,
                  std::string &error);

/**
 * Serialize the immutable tail of a success reply — every field that
 * is a pure function of the cached artifact (`"gates"` through
 * `"key"`, including the closing brace).  The service layer calls
 * this once per cache key at publish time and stores the bytes
 * alongside the result (ServiceReply::replyTail), so warm hits skip
 * JSON encoding entirely.
 */
std::string formatReplyTail(const CompileResult &result,
                            const CacheKey &key);

/**
 * The reply-object prefix that echoes the request's id ("\"id\": N, "
 * or empty) — precompute it before going asynchronous: the parsed
 * JsonRequest is transport-thread-local and reused, so an async
 * completion must not touch it later.
 */
std::string replyIdPrefix(const JsonRequest &json);

/**
 * Append one reply line (no trailing newline) to @p out, given a
 * precomputed id prefix (replyIdPrefix).  Handles every reply shape:
 * shed ("overloaded"), cancelled ("deadline_expired"), error, and
 * success — the form the async completion path uses.
 */
void formatReplyLineTo(std::string &out, const std::string &id_prefix,
                       const ServiceReply &reply);

/**
 * Render one reply line (no trailing newline).  Success replies are
 * assembled as a small volatile prefix (id, label, cache tag, service
 * time) plus the preserialized tail when the reply carries one — the
 * wire-speed path; a fresh tail is encoded only when it does not.
 */
std::string formatReply(const JsonRequest &json, const ServiceReply &reply);

/** Render the stats reply line (no trailing newline). */
std::string formatStats(const ServiceStats &stats);

/**
 * Render a command reply carrying a multi-line text payload \n-escaped
 * into a "text" field: {"id"..., "ok": true, "cmd": "<cmd>",
 * "text": "..."} — how {"cmd": "metrics"} ships Prometheus text
 * exposition over the one-line-per-reply protocol.
 */
std::string formatTextReply(const JsonRequest &json,
                            std::string_view cmd, const std::string &text);

/**
 * The reply label buildRequest assigns ("workload/" + the policy's
 * SquareConfig::name), read from the same policy table without
 * building the rest of the request — so a forwarded-key warm hit is
 * labelled exactly like the full path's reply.
 */
std::string requestLabel(const JsonRequest &json);

/** The "key" wire form: three 16-hex-digit words, '-'-separated. */
std::string formatCacheKeyHex(const CacheKey &key);

/** Parse the "key" wire form; false on malformed input. */
bool parseCacheKeyHex(std::string_view text, CacheKey &out);

/**
 * Append the router->shard forwarded form of @p json (no trailing
 * newline): the original fields with "id" rewritten to @p rid and the
 * resolved @p key appended, so the shard's warm path skips request
 * re-resolution entirely.  Field values round-trip by the same
 * re-derivation the id echo uses: RFC 8259 numbers and booleans raw,
 * everything else quoted.  A
 * non-zero @p trace_id is appended as a "trace_id" field when the
 * request does not already carry one — how a router-originated trace
 * (its own --trace-sample) reaches the owning shard.
 */
void formatForwardedRequestTo(std::string &out, const JsonRequest &json,
                              uint64_t rid, const CacheKey &key,
                              uint64_t trace_id = 0);

/** Render an error reply line (no trailing newline). */
std::string formatError(const JsonRequest &json, const std::string &error);

} // namespace square

#endif // SQUARE_SERVICE_PROTOCOL_H
