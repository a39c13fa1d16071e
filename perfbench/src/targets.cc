#include "targets.h"

#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "gen.h"
#include "service/protocol.h"
#include "sim/classical.h"
#include "sim/reference.h"
#include "workloads/registry.h"

namespace perfbench {

using square::CompileResult;
using square::MachineSpec;

bool
Target::lattice() const
{
    return request.machine.kind == MachineSpec::Kind::NisqLattice ||
           request.machine.kind == MachineSpec::Kind::NisqLatticeMacro;
}

bool
Target::braid() const
{
    return request.machine.kind == MachineSpec::Kind::FtBraid ||
           request.machine.kind == MachineSpec::Kind::FtBraidMacro;
}

std::string
requestFields(const Target &t)
{
    std::string out = "\"workload\": \"" + t.workload +
                      "\", \"machine\": \"" + t.machine +
                      "\", \"policy\": \"" + t.policy + "\"";
    if (t.anchorMargin > 0)
        out += ", \"anchor_box_margin\": " + std::to_string(t.anchorMargin);
    return out;
}

std::string
requestLine(const Target &t, uint64_t id)
{
    return "{\"id\": " + std::to_string(id) + ", " + requestFields(t) + "}";
}

bool
resolve(Target &t, std::shared_ptr<const square::Program> program,
        std::string &error)
{
    square::JsonRequest json;
    if (!square::parseJsonLine(requestLine(t, 0), json, error) ||
        !square::buildRequest(json, t.request, error))
        return false;
    t.program = std::move(program);
    t.request.program = t.program;
    t.key = square::makeCacheKey(t.program->fingerprint(),
                                 t.request.machine, t.request.cfg);
    return true;
}

std::shared_ptr<const square::Program>
ProgramBuilder::registry(const std::string &name)
{
    auto it = built_.find(name);
    if (it != built_.end())
        return it->second;
    auto prog = std::make_shared<const square::Program>(
        square::makeBenchmark(name));
    built_.emplace(name, prog);
    return prog;
}

namespace {

Target
resolved(Target t, ProgramBuilder &programs)
{
    std::string error;
    if (!resolve(t, programs.registry(t.workload), error))
        square::fatal("perfbench: bad target ", t.workload, ": ", error);
    return t;
}

} // namespace

std::vector<Target>
paperTargets(ProgramBuilder &programs)
{
    std::vector<Target> out;
    for (const square::BenchmarkInfo &info : square::benchmarkRegistry()) {
        Target t;
        t.workload = info.name;
        t.machine = MachineSpec::paperFor(info).str();
        t.nisqScale = info.nisqScale;
        out.push_back(resolved(t, programs));
    }
    for (const square::BenchmarkInfo &info : square::benchmarkRegistry()) {
        if (info.nisqScale)
            continue;
        Target t;
        t.workload = info.name;
        t.machine = MachineSpec::ftBraid(info.boundaryEdge,
                                         info.boundaryEdge)
                        .str();
        out.push_back(resolved(t, programs));
    }
    return out;
}

std::vector<Target>
nisqTargets(ProgramBuilder &programs)
{
    std::vector<Target> out;
    for (const square::BenchmarkInfo &info : square::benchmarkRegistry()) {
        if (!info.nisqScale)
            continue;
        Target t;
        t.workload = info.name;
        t.machine = MachineSpec::paperFor(info).str();
        t.nisqScale = true;
        out.push_back(resolved(t, programs));
    }
    return out;
}

MachineSpec
macroTwin(const MachineSpec &spec)
{
    MachineSpec twin = spec;
    if (spec.kind == MachineSpec::Kind::NisqLattice)
        twin.kind = MachineSpec::Kind::NisqLatticeMacro;
    else if (spec.kind == MachineSpec::Kind::FtBraid)
        twin.kind = MachineSpec::Kind::FtBraidMacro;
    return twin;
}

std::string
checkFunctional(const Target &t, uint64_t input_seed)
{
    const square::Machine machine = macroTwin(t.request.machine).build();
    const square::Program &prog = *t.program;

    // Primaries are placed deterministically, so one compile learns
    // the sites the inputs must be loaded into.
    CompileResult probe = square::compile(prog, machine, t.request.cfg);
    Rng rng(input_seed);
    std::vector<bool> inputs(static_cast<size_t>(prog.numPrimary()));
    for (size_t i = 0; i < inputs.size(); ++i)
        inputs[i] = (rng.next() & 1) != 0;

    square::ClassicalSim sim(machine.numSites());
    for (size_t i = 0; i < probe.primaryInitialSites.size(); ++i)
        sim.setBit(probe.primaryInitialSites[i], inputs[i]);
    square::CompileOptions opts;
    opts.extraSink = &sim;
    CompileResult r = square::compile(prog, machine, t.request.cfg, opts);

    if (sim.reclaimViolations() != 0)
        return std::to_string(sim.reclaimViolations()) +
               " reclaim(s) of a dirty qubit";
    std::vector<bool> want = square::simulateReference(prog, inputs);
    std::vector<bool> got = sim.read(r.primaryFinalSites);
    if (got != want)
        return "primary outputs differ from the reference interpreter";
    return "";
}

namespace {

template <typename T>
std::string
differs(const char *field, T want, T got)
{
    if (want == got)
        return "";
    return std::string(field) + ": want " + std::to_string(want) +
           ", got " + std::to_string(got);
}

} // namespace

std::string
diffResults(const CompileResult &want, const CompileResult &got)
{
    const std::string diffs[] = {
        differs("aqv", want.aqv, got.aqv),
        differs("qubits_used", want.qubitsUsed, got.qubitsUsed),
        differs("peak_live", want.peakLive, got.peakLive),
        differs("gates", want.gates, got.gates),
        differs("swaps", want.swaps, got.swaps),
        differs("depth", want.depth, got.depth),
        differs("uncompute_gates", want.uncomputeIrGates,
                got.uncomputeIrGates),
        differs("reclaims", want.reclaimCount, got.reclaimCount),
        differs("skips", want.skipCount, got.skipCount),
        differs("comm_factor", want.commFactor, got.commFactor),
        differs("braid_length", want.avgBraidLength, got.avgBraidLength),
        differs("t_gates", want.sched.tGates, got.sched.tGates),
        differs("two_qubit_gates", want.sched.twoQubitGates,
                got.sched.twoQubitGates),
        differs("braid_conflicts", want.sched.braidConflicts,
                got.sched.braidConflicts),
        differs("usage_points", want.usageCurve.size(),
                got.usageCurve.size()),
    };
    for (const std::string &d : diffs) {
        if (!d.empty())
            return d;
    }
    return "";
}

bool
parseServedReply(std::string_view line, ServedReply &out,
                 std::string &error)
{
    square::JsonRequest json;
    if (!square::parseJsonLine(line, json, error))
        return false;
    out = ServedReply{};
    out.ok = json.get("ok") == "true";
    out.status = json.get("status");
    out.error = json.get("error");
    out.key = json.get("key");
    struct Field
    {
        const char *name;
        int64_t *dst;
    } const fields[] = {
        {"gates", &out.gates},         {"swaps", &out.swaps},
        {"depth", &out.depth},         {"aqv", &out.aqv},
        {"qubits_used", &out.qubitsUsed}, {"peak_live", &out.peakLive},
        {"reclaims", &out.reclaims},   {"skips", &out.skips},
    };
    if (!out.ok)
        return true;
    for (const Field &f : fields) {
        const std::string *v = json.find(f.name);
        if (v == nullptr) {
            error = std::string("reply lacks \"") + f.name + "\"";
            return false;
        }
        char *end = nullptr;
        *f.dst = std::strtoll(v->c_str(), &end, 10);
        if (end == v->c_str() || *end != '\0') {
            error = std::string("bad \"") + f.name + "\" value";
            return false;
        }
    }
    return true;
}

std::string
diffReply(const ServedReply &reply, const CompileResult &fresh,
          const square::CacheKey &key)
{
    if (!reply.ok)
        return "reply not ok: " +
               (reply.status.empty() ? reply.error : reply.status);
    const std::string diffs[] = {
        differs("gates", fresh.gates, reply.gates),
        differs("swaps", fresh.swaps, reply.swaps),
        differs("depth", fresh.depth, reply.depth),
        differs("aqv", fresh.aqv, reply.aqv),
        differs("qubits_used", int64_t{fresh.qubitsUsed},
                reply.qubitsUsed),
        differs("peak_live", int64_t{fresh.peakLive}, reply.peakLive),
        differs("reclaims", int64_t{fresh.reclaimCount}, reply.reclaims),
        differs("skips", int64_t{fresh.skipCount}, reply.skips),
    };
    for (const std::string &d : diffs) {
        if (!d.empty())
            return d;
    }
    const std::string want_key = square::formatCacheKeyHex(key);
    if (reply.key != want_key)
        return "key: want " + want_key + ", got " + reply.key;
    return "";
}

std::string_view
replyTail(std::string_view line)
{
    size_t at = line.find("\"gates\"");
    if (at == std::string_view::npos)
        return {};
    return line.substr(at);
}

bool
replyId(std::string_view line, uint64_t &id)
{
    constexpr std::string_view kPrefix = "{\"id\": ";
    if (line.substr(0, kPrefix.size()) != kPrefix)
        return false;
    id = 0;
    size_t i = kPrefix.size();
    if (i >= line.size() || line[i] < '0' || line[i] > '9')
        return false;
    for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i)
        id = id * 10 + static_cast<uint64_t>(line[i] - '0');
    return true;
}

} // namespace perfbench
