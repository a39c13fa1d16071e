#include "service/protocol.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "obs/trace.h"

namespace square {

namespace {

void
skipSpace(std::string_view s, size_t &pos)
{
    while (pos < s.size() &&
           std::isspace(static_cast<unsigned char>(s[pos])))
        ++pos;
}

/** Parse a JSON string literal starting at the opening quote. */
bool
parseString(std::string_view s, size_t &pos, std::string &out,
            std::string &error)
{
    if (pos >= s.size() || s[pos] != '"') {
        error = "expected '\"' at position " + std::to_string(pos);
        return false;
    }
    ++pos;
    out.clear();
    while (pos < s.size() && s[pos] != '"') {
        char c = s[pos];
        if (c == '\\') {
            ++pos;
            if (pos >= s.size()) {
                error = "dangling escape";
                return false;
            }
            switch (s[pos]) {
              case '"': c = '"'; break;
              case '\\': c = '\\'; break;
              case '/': c = '/'; break;
              case 'n': c = '\n'; break;
              case 't': c = '\t'; break;
              case 'r': c = '\r'; break;
              default:
                error = std::string("unsupported escape '\\") + s[pos] +
                        "'";
                return false;
            }
        }
        out.push_back(c);
        ++pos;
    }
    if (pos >= s.size()) {
        error = "unterminated string";
        return false;
    }
    ++pos; // closing quote
    return true;
}

/** Parse a number / true / false token. */
bool
parseScalar(std::string_view s, size_t &pos, std::string &out,
            std::string &error)
{
    size_t start = pos;
    while (pos < s.size()) {
        char c = s[pos];
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            std::isalpha(static_cast<unsigned char>(c)) || c == '-' ||
            c == '+' || c == '.') {
            ++pos;
        } else {
            break;
        }
    }
    if (pos == start) {
        error = "expected a value at position " + std::to_string(pos);
        return false;
    }
    out = std::string(s.substr(start, pos - start));
    if (out != "true" && out != "false") {
        char *end = nullptr;
        std::strtod(out.c_str(), &end);
        if (end == out.c_str() || *end != '\0') {
            error = "malformed value '" + out + "'";
            return false;
        }
    }
    return true;
}

/** JSON-escape for output. */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default: out.push_back(c);
        }
    }
    return out;
}

bool
parsePositiveInt(const std::string &text, int &out)
{
    char *end = nullptr;
    long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || v <= 0 || v > 1000000)
        return false;
    out = static_cast<int>(v);
    return true;
}

bool
parseNumber(const std::string &text, double &out)
{
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end != text.c_str() && *end == '\0';
}

/** Parse a finite number in [0, max] into @p out (untouched on failure). */
bool
parseBoundedNumber(const std::string &text, double max, double &out)
{
    double v = 0;
    if (!parseNumber(text, v) || !std::isfinite(v) || v < 0 || v > max)
        return false;
    out = v;
    return true;
}

/** True when @p s matches RFC 8259's number grammar exactly. */
bool
isJsonNumber(std::string_view s)
{
    size_t pos = 0;
    auto digits = [&s, &pos] {
        const size_t start = pos;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
            ++pos;
        return pos > start;
    };
    if (pos < s.size() && s[pos] == '-')
        ++pos;
    if (pos < s.size() && s[pos] == '0')
        ++pos;
    else if (!digits())
        return false;
    if (pos < s.size() && s[pos] == '.') {
        ++pos;
        if (!digits())
            return false;
    }
    if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
        ++pos;
        if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
            ++pos;
        if (!digits())
            return false;
    }
    return pos == s.size();
}

/**
 * Append a parsed field value back as JSON.  The parse lost the
 * original quoting and keeps any strtod token as a scalar (nan, inf,
 * 0x1F, +7, .5), so only JSON numbers and booleans echo raw; anything
 * else is re-quoted and re-escaped (a string must not be able to
 * break — or inject fields into — the object).
 */
void
appendJsonValue(std::string &out, const std::string &token)
{
    if (token == "true" || token == "false" || isJsonNumber(token)) {
        out += token;
        return;
    }
    out += '"';
    out += escape(token);
    out += '"';
}

/** The id field rendered for replies ("id": N, or nothing). */
std::string
idPrefix(const JsonRequest &json)
{
    const std::string *id = json.find("id");
    if (id == nullptr)
        return "";
    std::string out = "\"id\": ";
    appendJsonValue(out, *id);
    out += ", ";
    return out;
}

/**
 * The SquareConfig a "policy" token names; false with a message for
 * an unknown policy or a bad measure-reset latency.  buildRequest and
 * requestLabel both read this one table.
 */
bool
policyConfig(const std::string &policy, SquareConfig &out,
             std::string &error)
{
    if (policy == "square") {
        out = SquareConfig::square();
    } else if (policy == "eager") {
        out = SquareConfig::eager();
    } else if (policy == "lazy") {
        out = SquareConfig::lazy();
    } else if (policy == "laa") {
        out = SquareConfig::squareLaaOnly();
    } else if (policy.rfind("mr:", 0) == 0) {
        int latency = 0;
        if (!parsePositiveInt(policy.substr(3), latency)) {
            error = "bad measure-reset latency in \"" + policy + "\"";
            return false;
        }
        out = SquareConfig::measureReset(latency);
    } else {
        error = "unknown policy \"" + policy +
                "\" (square|eager|lazy|laa|mr:<latency>)";
        return false;
    }
    return true;
}

} // namespace

bool
parseJsonLine(std::string_view line, JsonRequest &out,
              std::string &error)
{
    out.fields.clear();
    size_t pos = 0;
    skipSpace(line, pos);
    if (pos >= line.size() || line[pos] != '{') {
        error = "request must be a JSON object";
        return false;
    }
    ++pos;
    skipSpace(line, pos);
    if (pos < line.size() && line[pos] == '}') {
        ++pos;
    } else {
        for (;;) {
            skipSpace(line, pos);
            std::string key;
            if (!parseString(line, pos, key, error))
                return false;
            skipSpace(line, pos);
            if (pos >= line.size() || line[pos] != ':') {
                error = "expected ':' after key \"" + key + "\"";
                return false;
            }
            ++pos;
            skipSpace(line, pos);
            std::string value;
            if (pos < line.size() && line[pos] == '"') {
                if (!parseString(line, pos, value, error))
                    return false;
            } else if (pos < line.size() &&
                       (line[pos] == '{' || line[pos] == '[')) {
                error = "nested values are not part of the protocol "
                        "(key \"" + key + "\")";
                return false;
            } else {
                if (!parseScalar(line, pos, value, error))
                    return false;
            }
            if (out.has(key)) {
                error = "duplicate key \"" + key + "\"";
                return false;
            }
            out.fields.emplace_back(std::move(key), std::move(value));
            skipSpace(line, pos);
            if (pos < line.size() && line[pos] == ',') {
                ++pos;
                continue;
            }
            break;
        }
        if (pos >= line.size() || line[pos] != '}') {
            error = "expected '}' or ','";
            return false;
        }
        ++pos;
    }
    skipSpace(line, pos);
    if (pos != line.size()) {
        error = "trailing characters after object";
        return false;
    }
    return true;
}

bool
buildRequest(const JsonRequest &json, CompileRequest &out,
             std::string &error)
{
    // "key" is the router->shard forwarded cache key (see the file
    // comment in protocol.h); the shard's fast path consumes it before
    // buildRequest, so here it is merely tolerated.
    static const char *known[] = {
        "id",          "workload",        "machine",
        "policy",      "anchor_box_margin", "candidate_cap",
        "comm_weight", "serialization_weight", "area_weight",
        "hold_horizon", "deadline_ms",    "priority", "key",
        "trace_id"};
    for (const auto &[key, value] : json.fields) {
        bool ok = false;
        for (const char *k : known)
            ok = ok || key == k;
        if (!ok) {
            error = "unknown field \"" + key + "\"";
            return false;
        }
    }
    if (!json.has("workload")) {
        error = "missing required field \"workload\"";
        return false;
    }
    out = CompileRequest{};
    out.workload = json.get("workload");
    out.label = out.workload;

    // Machine: explicit spec, or the paper machine for the workload.
    if (json.has("machine")) {
        if (!MachineSpec::parse(json.get("machine"), out.machine, error))
            return false;
    } else {
        // Unknown workloads fail later, at resolve time, with a
        // clearer message; default the machine only when we can.
        for (const BenchmarkInfo &info : benchmarkRegistry()) {
            if (info.name == out.workload) {
                out.machine = MachineSpec::paperFor(info);
                break;
            }
        }
    }

    if (!policyConfig(json.get("policy", "square"), out.cfg, error))
        return false;
    out.label += "/" + out.cfg.name;

    // Optional config overrides.
    if (json.has("anchor_box_margin")) {
        if (!parsePositiveInt(json.get("anchor_box_margin"),
                              out.cfg.anchorBoxMargin)) {
            error = "bad anchor_box_margin";
            return false;
        }
    }
    if (json.has("candidate_cap")) {
        if (!parsePositiveInt(json.get("candidate_cap"),
                              out.cfg.candidateCap)) {
            error = "bad candidate_cap";
            return false;
        }
    }
    // Numeric fields must be finite and non-negative: the sweep's ring
    // early exit assumes non-negative weights, hold_horizon * gates must
    // fit the executor's int64_t, and the deadline must fit a
    // steady_clock duration.  deadline_ms is an admission-control field
    // (not part of the cache key).
    constexpr double kMaxWeight = std::numeric_limits<double>::max();
    struct NumField
    {
        const char *key;
        double max;
        double *dst;
    } const numeric[] = {
        {"comm_weight", kMaxWeight, &out.cfg.commWeight},
        {"serialization_weight", kMaxWeight, &out.cfg.serializationWeight},
        {"area_weight", kMaxWeight, &out.cfg.areaWeight},
        {"hold_horizon", 1e6, &out.cfg.holdHorizon},
        {"deadline_ms", 1e9, &out.deadlineMs},
    };
    for (const NumField &f : numeric) {
        if (json.has(f.key) &&
            !parseBoundedNumber(json.get(f.key), f.max, *f.dst)) {
            error = std::string("bad ") + f.key;
            return false;
        }
    }
    if (json.has("priority")) {
        const std::string tier = json.get("priority");
        if (tier == "batch") {
            out.batch = true;
        } else if (tier != "interactive") {
            error = "unknown priority \"" + tier +
                    "\" (interactive|batch)";
            return false;
        }
    }

    // Distributed-tracing correlation id (not part of the cache key).
    // The id is minted where the request enters the system
    // (square_client --trace-sample, or a server-side sampler) and
    // rides the router's forwarded framing unchanged, so every tier
    // logs its spans against the same id.
    if (json.has("trace_id")) {
        if (!obs::Trace::parseId(json.get("trace_id"), out.traceId)) {
            error = "bad trace_id (want 1-16 hex digits)";
            return false;
        }
    }
    return true;
}

std::string
requestLabel(const JsonRequest &json)
{
    const std::string policy = json.get("policy", "square");
    SquareConfig cfg;
    std::string ignored;
    // An unknown policy never reaches a warm hit; its token stands in.
    return json.get("workload") + "/" +
           (policyConfig(policy, cfg, ignored) ? cfg.name : policy);
}

std::string
formatCacheKeyHex(const CacheKey &key)
{
    char key_hex[64];
    std::snprintf(key_hex, sizeof key_hex, "%016llx-%016llx-%016llx",
                  static_cast<unsigned long long>(key.program),
                  static_cast<unsigned long long>(key.machine),
                  static_cast<unsigned long long>(key.config));
    return key_hex;
}

bool
parseCacheKeyHex(std::string_view text, CacheKey &out)
{
    // Exactly "<16 hex>-<16 hex>-<16 hex>" (the formatCacheKeyHex
    // form); anything else rejects so a mangled forwarded key cannot
    // alias a real one.
    if (text.size() != 50 || text[16] != '-' || text[33] != '-')
        return false;
    uint64_t words[3] = {0, 0, 0};
    for (int w = 0; w < 3; ++w) {
        for (int i = 0; i < 16; ++i) {
            char c = text[static_cast<size_t>(w * 17 + i)];
            uint64_t digit;
            if (c >= '0' && c <= '9')
                digit = static_cast<uint64_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                digit = static_cast<uint64_t>(c - 'a' + 10);
            else
                return false;
            words[w] = (words[w] << 4) | digit;
        }
    }
    out = CacheKey{words[0], words[1], words[2]};
    return true;
}

std::string
formatTextReply(const JsonRequest &json, std::string_view cmd,
                const std::string &text)
{
    std::string out;
    out.reserve(text.size() + 64);
    out += '{';
    out += idPrefix(json);
    out += "\"ok\": true, \"cmd\": \"";
    out += cmd;
    out += "\", \"text\": \"";
    out += escape(text);
    out += "\"}";
    return out;
}

void
formatForwardedRequestTo(std::string &out, const JsonRequest &json,
                         uint64_t rid, const CacheKey &key,
                         uint64_t trace_id)
{
    out += "{\"id\": ";
    out += std::to_string(rid);
    for (const auto &[k, v] : json.fields) {
        if (k == "id" || k == "key")
            continue;
        out += ", \"";
        out += k; // keys passed buildRequest's allowlist: no escapes
        out += "\": ";
        // Re-derived like the id echo: a field's token round-trips to
        // the same text whether it went out raw or quoted.
        appendJsonValue(out, v);
    }
    if (trace_id != 0 && !json.has("trace_id")) {
        out += ", \"trace_id\": \"";
        out += obs::Trace::formatId(trace_id);
        out += '"';
    }
    out += ", \"key\": \"";
    out += formatCacheKeyHex(key);
    out += "\"}";
}

std::string
formatReplyTail(const CompileResult &r, const CacheKey &key)
{
    std::string key_hex = formatCacheKeyHex(key);
    char buf[384];
    std::snprintf(
        buf, sizeof buf,
        "\"gates\": %lld, \"swaps\": %lld, \"depth\": %lld, "
        "\"aqv\": %lld, \"qubits_used\": %d, \"peak_live\": %d, "
        "\"reclaims\": %d, \"skips\": %d, \"key\": \"%s\"}",
        static_cast<long long>(r.gates), static_cast<long long>(r.swaps),
        static_cast<long long>(r.depth), static_cast<long long>(r.aqv),
        r.qubitsUsed, r.peakLive, r.reclaimCount, r.skipCount,
        key_hex.c_str());
    return buf;
}

std::string
replyIdPrefix(const JsonRequest &json)
{
    return idPrefix(json);
}

void
formatReplyLineTo(std::string &out, const std::string &id_prefix,
                  const ServiceReply &reply)
{
    if (reply.status == "overloaded") {
        // Structured shed: not an error in the request, a statement
        // about server capacity — clients retry after the hint.
        char tail[96];
        std::snprintf(tail, sizeof tail,
                      "\"ok\": false, \"status\": \"overloaded\", "
                      "\"retry_after_ms\": %lld}",
                      static_cast<long long>(reply.retryAfterMs + 0.5));
        out += '{';
        out += id_prefix;
        out += tail;
        return;
    }
    if (reply.status == "deadline_expired") {
        out += '{';
        out += id_prefix;
        out += "\"ok\": false, \"status\": \"deadline_expired\", "
               "\"error\": \"";
        out += escape(reply.error);
        out += "\"}";
        return;
    }
    if (!reply.error.empty()) {
        out += '{';
        out += id_prefix;
        out += "\"ok\": false, \"error\": \"";
        out += escape(reply.error);
        out += "\"}";
        return;
    }
    // The label (and id) are client-supplied and unbounded: compose
    // them as strings; only the bounded numeric piece uses snprintf.
    char millis[48];
    std::snprintf(millis, sizeof millis, "%.3f", reply.millis);
    out += '{';
    out += id_prefix;
    out += "\"ok\": true, \"label\": \"";
    out += escape(reply.label);
    out += "\", \"cache\": \"";
    out += reply.hit ? "hit" : "miss";
    out += "\", \"millis\": ";
    out += millis;
    out += ", ";
    if (reply.replyTail != nullptr)
        out += *reply.replyTail; // zero JSON encoding on the hit path
    else
        out += formatReplyTail(*reply.result, reply.key);
}

std::string
formatReply(const JsonRequest &json, const ServiceReply &reply)
{
    std::string out;
    formatReplyLineTo(out, idPrefix(json), reply);
    return out;
}

std::string
formatStats(const ServiceStats &stats)
{
    double hit_rate =
        stats.requests > 0
            ? static_cast<double>(stats.hits) /
                  static_cast<double>(stats.requests)
            : 0.0;
    // New fields append AFTER hit_rate: scripts (and the CI greps)
    // match on the historical field order staying contiguous.
    char buf[832];
    std::snprintf(
        buf, sizeof buf,
        "{\"ok\": true, \"requests\": %lld, \"hits\": %lld, "
        "\"misses\": %lld, \"compiles\": %lld, \"failures\": %lld, "
        "\"evictions\": %lld, \"analysis_computes\": %lld, "
        "\"cached_results\": %zu, \"cached_bytes\": %zu, "
        "\"cached_programs\": %zu, \"hit_rate\": %.4f, "
        "\"shed\": %lld, \"deadline_expired\": %lld, "
        "\"pending_compiles\": %zu, \"worker_deaths\": %lld}",
        static_cast<long long>(stats.requests),
        static_cast<long long>(stats.hits),
        static_cast<long long>(stats.misses),
        static_cast<long long>(stats.compiles),
        static_cast<long long>(stats.failures),
        static_cast<long long>(stats.evictions),
        static_cast<long long>(stats.analysisComputes),
        stats.cachedResults, stats.cachedBytes, stats.cachedPrograms,
        hit_rate, static_cast<long long>(stats.shed),
        static_cast<long long>(stats.deadlineExpired),
        stats.pendingCompiles,
        static_cast<long long>(stats.workerDeaths));
    return buf;
}

std::string
formatError(const JsonRequest &json, const std::string &error)
{
    std::string out = "{";
    out += idPrefix(json);
    out += "\"ok\": false, \"error\": \"";
    out += escape(error);
    out += "\"}";
    return out;
}

} // namespace square
