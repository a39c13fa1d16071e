#include "core/context.h"

#include <algorithm>

#include "obs/trace.h"

namespace square {

namespace {

/**
 * Build the context-owned analysis when none was borrowed, reporting
 * its wall time to the request's phase sink (the service layer times
 * its shared AnalysisCache itself, so this fires only for standalone
 * compile() calls).
 */
std::optional<ProgramAnalysis>
makeOwnedAnalysis(const Program &prog, const CompileOptions &options)
{
    if (options.analysis != nullptr)
        return std::nullopt;
    if (options.phases == nullptr)
        return std::optional<ProgramAnalysis>(std::in_place, prog);
    const obs::SpanClock t = obs::SpanClock::now();
    std::optional<ProgramAnalysis> analysis(std::in_place, prog);
    options.phases->phaseSpan("analysis", t.wallUs,
                              obs::microsSince(t));
    return analysis;
}

/**
 * One scratch vector per call depth [0, maxLevel], each reserved to the
 * largest @p width(m) over the modules m that can run at that depth: a
 * module at call-graph level l runs at depth l or shallower.
 */
template <typename Width>
std::vector<std::vector<LogicalQubit>>
depthPool(const Program &prog, const ProgramAnalysis &analysis,
          Width &&width)
{
    const size_t depths = static_cast<size_t>(analysis.maxLevel()) + 1;
    std::vector<size_t> widest(depths, 0);
    for (size_t id = 0; id < prog.modules.size(); ++id) {
        const ModuleStats &st = analysis.stats(static_cast<ModuleId>(id));
        size_t &w = widest[static_cast<size_t>(st.level)];
        w = std::max(w, static_cast<size_t>(width(prog.modules[id])));
    }
    std::vector<std::vector<LogicalQubit>> pool(depths);
    for (size_t d = depths; d-- > 0;) {
        if (d + 1 < depths)
            widest[d] = std::max(widest[d], widest[d + 1]);
        pool[d].reserve(widest[d]);
    }
    return pool;
}

} // namespace

CompileContext::CompileContext(const Program &prog, const Machine &machine,
                               const SquareConfig &cfg,
                               const CompileOptions &options)
    : machine(machine),
      cfg(cfg),
      options(options),
      ownedAnalysis(makeOwnedAnalysis(prog, options)),
      analysis(options.analysis ? *options.analysis : *ownedAnalysis),
      layout(machine.numSites()),
      heap(machine.numSites()),
      sched(machine, layout, heap, options.extraSink),
      alloc(cfg, machine, layout, sched, heap),
      aqv(),
      argsScratch(depthPool(prog, analysis,
                            [](const Module &m) { return m.numParams; })),
      replayAncScratch(depthPool(
          prog, analysis, [](const Module &m) { return m.numAncilla; }))
{
    // Every forward invocation places its ancillas on fresh logical
    // qubits, so the forward pass alone places the entry's parameters
    // plus its lazyAncilla; recomputation can only add to that.
    const size_t forward = static_cast<size_t>(
        prog.entryModule().numParams +
        analysis.stats(prog.entry).lazyAncilla);
    layout.reserveLogical(forward);
    aqv.reserve(forward);

    // An allocation anchors on at most one call's arguments.
    int widest = 0;
    for (const Module &m : prog.modules)
        widest = std::max(widest, m.numParams);
    alloc.reserveAnchors(static_cast<size_t>(widest));
}

} // namespace square
