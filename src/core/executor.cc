#include "core/executor.h"

#include <algorithm>

#include "common/logging.h"
#include "core/cer.h"
#include "obs/trace.h"

namespace square {

namespace {

/** The analysis to build: none when the options borrow one. */
std::optional<ProgramAnalysis>
makeOwnedAnalysis(const Program &prog, const CompileOptions &options)
{
    if (options.analysis != nullptr)
        return std::nullopt;
    return std::optional<ProgramAnalysis>(std::in_place, prog);
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

CompileResult
compile(const Program &prog, const Machine &machine,
        const SquareConfig &cfg, const CompileOptions &options)
{
    return Executor(prog, machine, cfg, options).run();
}

Executor::Executor(const Program &prog, const Machine &machine,
                   const SquareConfig &cfg, const CompileOptions &options)
    : prog_(prog),
      machine_(machine),
      cfg_(cfg),
      options_(options),
      ownedAnalysis_(makeOwnedAnalysis(prog, options)),
      analysis_(options.analysis ? *options.analysis : *ownedAnalysis_),
      layout_(machine.numSites()),
      heap_(machine.numSites()),
      sched_(machine, layout_, heap_, options.extraSink),
      alloc_(cfg, machine, layout_, sched_, heap_),
      argsScratch_(depthPool(prog, analysis_,
                             [](const Module &m) { return m.numParams; })),
      replayAncScratch_(depthPool(
          prog, analysis_, [](const Module &m) { return m.numAncilla; }))
{
    // Every forward invocation places its ancillas on fresh logical
    // qubits, so the forward pass alone places the entry's parameters
    // plus its lazyAncilla; recomputation can only add to that.
    const size_t forward = static_cast<size_t>(
        prog.entryModule().numParams +
        analysis_.stats(prog.entry).lazyAncilla);
    layout_.reserveLogical(forward);
    aqv_.reserve(forward);

    // An allocation anchors on at most one call's arguments.
    int widest = 0;
    for (const Module &m : prog.modules)
        widest = std::max(widest, m.numParams);
    alloc_.reserveAnchors(static_cast<size_t>(widest));
}

int64_t
Executor::readyTime(std::span<const LogicalQubit> args) const
{
    int64_t t = 0;
    for (LogicalQubit q : args)
        t = std::max(t, sched_.logicalClock(q));
    return t;
}

void
Executor::allocAncillaTracked(ModuleId id,
                              std::span<const LogicalQubit> args,
                              LogicalQubit *out)
{
    const Module &m = prog_.module(id);
    if (m.numAncilla == 0)
        return;
    int64_t t_ready = readyTime(args);
    alloc_.allocAncillaInto(m.numAncilla, analysis_.stats(id), args,
                            t_ready, out);
    for (int i = 0; i < m.numAncilla; ++i) {
        LogicalQubit q = out[i];
        // Liveness cannot begin before the site's previous occupant was
        // reclaimed (the site clock covers the uncompute that grounded
        // it), nor before the invocation's inputs are ready.
        int64_t t0 =
            std::max(t_ready, sched_.siteClock(layout_.siteOf(q)));
        aqv_.onAlloc(q, t0);
    }
}

void
Executor::releaseAncilla(std::span<const LogicalQubit> anc, bool reset)
{
    // Release in reverse allocation order so the LIFO heap hands the
    // most recently grounded sites out first.
    for (size_t i = anc.size(); i-- > 0;) {
        LogicalQubit q = anc[i];
        PhysQubit site = layout_.siteOf(q);
        if (reset)
            sched_.occupy(site, cfg_.resetLatency);
        aqv_.onFree(q, sched_.siteClock(site));
        layout_.remove(q);
        heap_.push(site);
        if (TraceSink *sink = options_.extraSink) {
            if (reset)
                sink->onReset(site);
            else
                sink->onReclaim(site);
        }
    }
}

void
Executor::execGate(const Stmt &s, const Binding &b, bool inverse)
{
    GateKind kind = inverse ? gateInverse(s.gate) : s.gate;
    LogicalQubit ops[3];
    const int arity = gateArity(kind);
    for (int i = 0; i < arity; ++i)
        ops[i] = resolve(b, s.operands[static_cast<size_t>(i)]);
    sched_.apply(kind, std::span<const LogicalQubit>(
                           ops, static_cast<size_t>(arity)));
    if (uncompute_depth_ > 0)
        ++uncompute_ir_gates_;
}

void
Executor::runBlockForward(const std::vector<Stmt> &block, const Binding &b,
                          KidList &kids, int depth,
                          std::span<const int64_t> suffix,
                          bool force_kids, int64_t inherited_gates)
{
    const int64_t carried = static_cast<int64_t>(
        cfg_.holdHorizon * static_cast<double>(inherited_gates));
    for (size_t k = 0; k < block.size(); ++k) {
        const Stmt &s = block[k];
        if (s.isGate()) {
            execGate(s, b, false);
        } else {
            // The callee frame (depth + 1) owns this argument buffer
            // for the duration of the call; no deeper frame reuses it.
            std::vector<LogicalQubit> &args =
                depthScratch(argsScratch_, depth + 1);
            for (const QubitRef &r : s.args)
                args.push_back(resolve(b, r));
            int64_t g_parent =
                (k + 1 < suffix.size() ? suffix[k + 1] : 0) + carried;
            kids.push(
                execCall(s.callee, args, depth + 1, g_parent, force_kids));
        }
    }
}

void
Executor::invertBlock(const std::vector<Stmt> &block, const Binding &b,
                      const KidList &kids, int depth)
{
    size_t kid_idx = kids.count;
    for (auto it = block.rbegin(); it != block.rend(); ++it) {
        const Stmt &s = *it;
        if (s.isGate()) {
            execGate(s, b, true);
        } else {
            SQ_ASSERT(kid_idx > 0, "invocation record underflow");
            --kid_idx;
            Invocation &kid = *kids[kid_idx];
            SQ_ASSERT(kid.mod == s.callee, "record/statement mismatch");
            std::vector<LogicalQubit> &args =
                depthScratch(argsScratch_, depth + 1);
            for (const QubitRef &r : s.args)
                args.push_back(resolve(b, r));
            invertInvocation(kid, args, depth + 1);
        }
    }
    SQ_ASSERT(kid_idx == 0, "leftover invocation records in block");
}

bool
Executor::shouldReclaim(const Invocation &inv, int depth,
                        int64_t gates_to_parent_uncompute)
{
    switch (cfg_.reclaim) {
      case ReclaimPolicy::Eager:
      case ReclaimPolicy::MeasureReset:
        return true;
      case ReclaimPolicy::Forced: {
        size_t idx = forced_idx_++;
        return idx < cfg_.forcedDecisions.size() &&
               cfg_.forcedDecisions[idx];
      }
      case ReclaimPolicy::Lazy:
        // "Never reclaim" in practice (Fig. 1): garbage rides to the
        // end of the program.
        return false;
      case ReclaimPolicy::Cer: {
        CerInputs in;
        in.numActive = layout_.numLive();
        in.numAncilla = inv.garbage;
        in.uncomputeGates = inv.uncompCost;
        in.gatesToParentUncompute = gates_to_parent_uncompute;
        in.depth = depth;
        in.commFactor = sched_.commFactor();
        in.hasLocality = machine_.comm != CommModel::None;
        in.freeSites = layout_.numSites() - layout_.numLive();
        return cerDecide(cfg_, in).reclaim;
      }
    }
    panic("unknown reclaim policy");
}

int
Executor::garbageOf(const Invocation &inv)
{
    // Own ancillas stay live until the invocation is reclaimed.
    int g = inv.reclaimed ? 0 : static_cast<int>(inv.numAnc);
    for (const InvPtr &k : inv.computeKids)
        g += k->garbage;
    for (const InvPtr &k : inv.storeKids)
        g += k->garbage;
    return g;
}

int64_t
Executor::invertCostOf(const std::vector<Stmt> &block, const KidList &kids)
{
    int64_t cost = 0;
    size_t ki = 0;
    for (const Stmt &s : block)
        cost += s.isGate() ? 1 : kids[ki++]->invertCost;
    return cost;
}

void
Executor::uncompute(const Invocation &inv, const Binding &b, int depth)
{
    const Module &m = prog_.module(inv.mod);
    ++uncompute_depth_;
    if (m.hasExplicitUncompute()) {
        KidList none = makeKids(0);
        runBlockForward(m.uncompute, b, none, depth,
                        analysis_.stats(inv.mod).suffixUncompute, true, 0);
        SQ_ASSERT(none.empty(), "explicit uncompute spawned calls");
    } else {
        invertBlock(m.compute, b, inv.computeKids, depth);
    }
    --uncompute_depth_;
}

void
Executor::reclaim(Invocation &inv, const Binding &b, int depth, bool reset)
{
    if (!reset)
        uncompute(inv, b, depth);
    releaseAncilla(inv.ancillas(), reset);
    inv.reclaimed = true;
    inv.garbage = garbageOf(inv);
}

Executor::InvPtr
Executor::execCall(ModuleId id, std::span<const LogicalQubit> args,
                   int depth, int64_t gates_to_parent_uncompute,
                   bool force_reclaim)
{
    const Module &m = prog_.module(id);
    const ModuleStats &st = analysis_.stats(id);

    Invocation *inv = arena_.make<Invocation>();
    inv->mod = id;
    inv->numAnc = static_cast<uint32_t>(m.numAncilla);
    inv->anc = arena_.makeArray<LogicalQubit>(inv->numAnc);
    allocAncillaTracked(id, args, inv->anc);
    inv->computeKids = makeKids(st.computeCalls);
    inv->storeKids = makeKids(st.storeCalls);

    Binding b{args, inv->ancillas()};
    runBlockForward(m.compute, b, inv->computeKids, depth,
                    st.suffixCompute, m.hasExplicitUncompute(),
                    gates_to_parent_uncompute);
    runBlockForward(m.store, b, inv->storeKids, depth, st.suffixStore,
                    false, gates_to_parent_uncompute);

    // Dynamic uncompute-cost estimate for CER, from the children's
    // actual decisions.
    if (m.hasExplicitUncompute())
        inv->uncompCost =
            st.suffixUncompute.empty() ? 0 : st.suffixUncompute[0];
    else
        inv->uncompCost = invertCostOf(m.compute, inv->computeKids);

    // The Free point decides only when there is garbage to reclaim.
    // Measurement-and-reset (Sec. II-E) resets the own ancillas in
    // place instead of uncomputing, paying the reset latency; only
    // sound for classical-basis executions.  Its children have all
    // reset or reclaimed already, so the own ancillas are the whole
    // garbage.  A forced callee always uncomputes, so its caller's
    // explicit inverse stays sound.
    inv->garbage = garbageOf(*inv);
    if (inv->garbage > 0) {
        if (force_reclaim ||
            shouldReclaim(*inv, depth, gates_to_parent_uncompute)) {
            ++reclaim_count_;
            const bool reset = !force_reclaim &&
                               cfg_.reclaim == ReclaimPolicy::MeasureReset;
            reclaim(*inv, b, depth, reset);
        } else {
            ++skip_count_;
        }
    }

    inv->invertCost =
        inv->reclaimed
            ? st.flatEager
            : invertCostOf(m.store, inv->storeKids) + inv->uncompCost;
    return inv;
}

void
Executor::invertInvocation(Invocation &rec,
                           std::span<const LogicalQubit> args, int depth)
{
    const Module &m = prog_.module(rec.mod);
    const ModuleStats &st = analysis_.stats(rec.mod);
    ++uncompute_depth_;

    if (rec.reclaimed) {
        // Recursive recomputation: the forward invocation realized
        // C;S;C^-1, so its inverse is C;S^-1;C^-1 with fresh ancilla.
        // The replay's ancilla list lives only for this frame, so it
        // comes from the per-depth scratch pool; the replayed child
        // records are arena-allocated like any other invocation.
        std::vector<LogicalQubit> &replay_anc =
            depthScratch(replayAncScratch_, depth);
        replay_anc.resize(static_cast<size_t>(m.numAncilla));
        allocAncillaTracked(rec.mod, args, replay_anc.data());
        Binding b{args, replay_anc};
        KidList replay_kids = makeKids(st.computeCalls);
        runBlockForward(m.compute, b, replay_kids, depth,
                        st.suffixCompute, m.hasExplicitUncompute(),
                        /*inherited=*/0);
        invertBlock(m.store, b, rec.storeKids, depth);
        invertBlock(m.compute, b, replay_kids, depth);
        releaseAncilla(replay_anc, false);
        // Inverting the store children consumed their garbage.
        rec.garbage = garbageOf(rec);
    } else {
        // Garbage consumption: forward realized C;S, so S^-1 and then
        // the reclaim's undo ground the recorded ancillas.
        Binding b{args, rec.ancillas()};
        invertBlock(m.store, b, rec.storeKids, depth);
        reclaim(rec, b, depth, /*reset=*/false);
    }
    --uncompute_depth_;
}

CompileResult
Executor::run()
{
    // The fused allocate/route/schedule phase: SQUARE's tool flow
    // interleaves the three, so one span covers the whole
    // instrumentation-driven walk.
    obs::SpanClock phase;
    if (options_.phases != nullptr)
        phase = obs::SpanClock::now();

    const Module &entry = prog_.entryModule();
    std::vector<LogicalQubit> primaries =
        alloc_.allocPrimaries(entry.numParams);
    for (LogicalQubit q : primaries)
        aqv_.onAlloc(q, 0);

    CompileResult r;
    r.machineLabel = machine_.label;
    r.policyLabel = cfg_.name;
    r.primaryInitialSites.reserve(primaries.size());
    r.primaryFinalSites.reserve(primaries.size());
    for (LogicalQubit q : primaries)
        r.primaryInitialSites.push_back(layout_.siteOf(q));

    InvPtr root = execCall(prog_.entry, primaries, 0, 0, false);
    (void)root; // the tree lives in the arena until we return

    const int64_t makespan = sched_.makespan();
    aqv_.finish(makespan);

    for (LogicalQubit q : primaries)
        r.primaryFinalSites.push_back(layout_.siteOf(q));

    r.aqv = aqv_.aqv();
    r.qubitsUsed = layout_.sitesTouched();
    r.peakLive = layout_.peakLive();
    r.sched = sched_.stats();
    r.gates = r.sched.totalGates;
    r.swaps = r.sched.swaps;
    r.depth = makespan;
    r.uncomputeIrGates = uncompute_ir_gates_;
    r.reclaimCount = reclaim_count_;
    r.skipCount = skip_count_;
    r.commFactor = sched_.commFactor();
    r.avgBraidLength = sched_.avgBraidLength();
    r.usageCurve = aqv_.usageCurve();
    if (options_.phases != nullptr)
        options_.phases->phaseSpan("allocate_route_schedule", phase.wallUs,
                                   obs::microsSince(phase));
    return r;
}

} // namespace square
