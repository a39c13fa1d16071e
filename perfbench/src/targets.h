/**
 * @file
 * Compile targets (program x machine x policy) and the independent
 * output oracle the benchmark checks every result against.
 *
 * A Target is described by the same protocol fields a client sends;
 * resolving it runs the library's own request parser, so the in-process
 * compiles, the cache key and the served request all agree on the
 * machine and configuration.
 */

#ifndef PERFBENCH_TARGETS_H
#define PERFBENCH_TARGETS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/compiler.h"
#include "service/cache_key.h"
#include "service/service.h"
#include "workloads/synthetic.h"

namespace perfbench {

struct Target
{
    /** Registry name (served by name) or a synthetic program's label. */
    std::string workload;
    /** MachineSpec text, e.g. "nisq:5x5" or "ft:32x32". */
    std::string machine;
    /** Protocol policy token: square | lazy | eager | laa. */
    std::string policy = "square";
    /** anchor_box_margin override (0 = not sent). */
    int anchorMargin = 0;
    /** A Sec. V-C NISQ-scale program (counts in the success metric). */
    bool nisqScale = false;

    // -- filled by resolve() -------------------------------------------
    std::shared_ptr<const square::Program> program;
    square::CompileRequest request;
    square::CacheKey key;

    bool lattice() const;
    bool braid() const;
};

/** The request's protocol fields without braces or id. */
std::string requestFields(const Target &t);

/** One protocol request line (no newline). */
std::string requestLine(const Target &t, uint64_t id);

/**
 * Parse the target's request with the library's protocol parser and
 * attach @p program; false with a message on a malformed target.
 */
bool resolve(Target &t, std::shared_ptr<const square::Program> program,
             std::string &error);

/** Build registry programs by name, once each. */
class ProgramBuilder
{
  public:
    std::shared_ptr<const square::Program> registry(const std::string &name);

  private:
    std::map<std::string, std::shared_ptr<const square::Program>> built_;
};

/**
 * The paper's program set under SQUARE: all 17 Table II programs on
 * their paper NISQ lattice, then the 10 non-NISQ programs on the
 * braid machine of Fig. 10 (27 targets, resolved).
 */
std::vector<Target> paperTargets(ProgramBuilder &programs);

/** The 7 NISQ-scale programs under SQUARE on the 5x5 lattice. */
std::vector<Target> nisqTargets(ProgramBuilder &programs);

/** The macro-Toffoli twin of a paper machine (Clifford-free traces). */
square::MachineSpec macroTwin(const square::MachineSpec &spec);

/**
 * Compile @p t on its machine's macro twin with a classical simulator
 * attached, on primary inputs drawn from @p input_seed.  Returns "" when
 * no reclaim found a dirty qubit and the primary outputs equal the
 * reference interpreter's; otherwise what went wrong.
 */
std::string checkFunctional(const Target &t, uint64_t input_seed);

/**
 * "" when @p got reproduces every counter of @p want exactly; otherwise
 * the first field that differs.
 */
std::string diffResults(const square::CompileResult &want,
                        const square::CompileResult &got);

/** The fields of one served compile reply. */
struct ServedReply
{
    bool ok = false;
    std::string status;
    std::string error;
    int64_t gates = 0;
    int64_t swaps = 0;
    int64_t depth = 0;
    int64_t aqv = 0;
    int64_t qubitsUsed = 0;
    int64_t peakLive = 0;
    int64_t reclaims = 0;
    int64_t skips = 0;
    std::string key;
};

/** Deserialize a reply line; false with a message when malformed. */
bool parseServedReply(std::string_view line, ServedReply &out,
                      std::string &error);

/**
 * "" when a served reply carries exactly @p fresh's metrics and @p key;
 * otherwise the first mismatch (or the reply's error).
 */
std::string diffReply(const ServedReply &reply,
                      const square::CompileResult &fresh,
                      const square::CacheKey &key);

/**
 * The immutable tail of a reply line (from "gates" to the end): the
 * bytes every hit of one key must repeat.  Empty when absent.
 */
std::string_view replyTail(std::string_view line);

/** The leading "id" of a reply line; false when it has none. */
bool replyId(std::string_view line, uint64_t &id);

} // namespace perfbench

#endif // PERFBENCH_TARGETS_H
