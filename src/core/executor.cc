#include "core/executor.h"

#include <algorithm>

#include "common/logging.h"
#include "core/cer.h"
#include "obs/trace.h"

namespace square {

Executor::Executor(const Program &prog, CompileContext &ctx)
    : prog_(prog), ctx_(ctx)
{
}

int64_t
Executor::readyTime(std::span<const LogicalQubit> args) const
{
    int64_t t = 0;
    for (LogicalQubit q : args)
        t = std::max(t, ctx_.sched.logicalClock(q));
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
    ctx_.alloc.allocAncillaInto(m.numAncilla, ctx_.analysis.stats(id),
                                args, t_ready, out);
    for (int i = 0; i < m.numAncilla; ++i) {
        LogicalQubit q = out[i];
        // Liveness cannot begin before the site's previous occupant was
        // reclaimed (the site clock covers the uncompute that grounded
        // it), nor before the invocation's inputs are ready.
        int64_t t0 = std::max(t_ready,
                              ctx_.sched.siteClock(ctx_.layout.siteOf(q)));
        ctx_.aqv.onAlloc(q, t0);
    }
}

void
Executor::freeAncilla(std::span<const LogicalQubit> anc)
{
    // Free in reverse allocation order so the LIFO heap hands the most
    // recently grounded sites out first.
    for (size_t i = anc.size(); i-- > 0;) {
        LogicalQubit q = anc[i];
        PhysQubit site = ctx_.layout.siteOf(q);
        ctx_.aqv.onFree(q, ctx_.sched.siteClock(site));
        ctx_.layout.remove(q);
        ctx_.heap.push(site);
        if (ctx_.options.extraSink)
            ctx_.options.extraSink->onReclaim(site);
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
    ctx_.sched.apply(kind, std::span<const LogicalQubit>(
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
        ctx_.cfg.holdHorizon * static_cast<double>(inherited_gates));
    for (size_t k = 0; k < block.size(); ++k) {
        const Stmt &s = block[k];
        if (s.isGate()) {
            execGate(s, b, false);
        } else {
            // The callee frame (depth + 1) owns this argument buffer
            // for the duration of the call; no deeper frame reuses it.
            std::vector<LogicalQubit> &args =
                depthScratch(ctx_.argsScratch, depth + 1);
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
                depthScratch(ctx_.argsScratch, depth + 1);
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
    switch (ctx_.cfg.reclaim) {
      case ReclaimPolicy::Eager:
        return true;
      case ReclaimPolicy::Forced: {
        size_t idx = forced_idx_++;
        return idx < ctx_.cfg.forcedDecisions.size() &&
               ctx_.cfg.forcedDecisions[idx];
      }
      case ReclaimPolicy::MeasureReset:
        // Handled before the decision point in execCall (resets do not
        // go through the uncompute machinery).
        panic("MeasureReset must not reach shouldReclaim");
      case ReclaimPolicy::Lazy:
        // "Never reclaim" in practice (Fig. 1): garbage rides to the
        // end of the program.
        return false;
      case ReclaimPolicy::Cer: {
        CerInputs in;
        in.numActive = ctx_.layout.numLive();
        in.numAncilla = inv.garbage;
        in.uncomputeGates = inv.uncompCost;
        in.gatesToParentUncompute = gates_to_parent_uncompute;
        in.depth = depth;
        in.commFactor = ctx_.sched.commFactor();
        in.hasLocality = ctx_.machine.comm != CommModel::None;
        in.freeSites = ctx_.layout.numSites() - ctx_.layout.numLive();
        return cerDecide(ctx_.cfg, in).reclaim;
      }
    }
    panic("unknown reclaim policy");
}

Executor::InvPtr
Executor::execCall(ModuleId id, std::span<const LogicalQubit> args,
                   int depth, int64_t gates_to_parent_uncompute,
                   bool force_reclaim)
{
    const Module &m = prog_.module(id);
    const ModuleStats &st = ctx_.analysis.stats(id);

    Invocation *inv = ctx_.arena.make<Invocation>();
    inv->mod = id;
    inv->numAnc = static_cast<uint32_t>(m.numAncilla);
    inv->anc = ctx_.arena.makeArray<LogicalQubit>(inv->numAnc);
    allocAncillaTracked(id, args, inv->anc);
    inv->ancLive = inv->numAnc > 0;
    inv->computeKids = makeKids(st.computeCalls);
    inv->storeKids = makeKids(st.storeCalls);

    Binding b{args, inv->ancillas()};
    const bool force_kids = m.hasExplicitUncompute();
    runBlockForward(m.compute, b, inv->computeKids, depth,
                    st.suffixCompute, force_kids,
                    gates_to_parent_uncompute);
    runBlockForward(m.store, b, inv->storeKids, depth, st.suffixStore,
                    false, gates_to_parent_uncompute);

    // Dynamic uncompute-cost estimate for CER, from the children's
    // actual decisions.
    if (m.hasExplicitUncompute()) {
        inv->uncompCost = st.suffixUncompute.empty()
                              ? 0
                              : st.suffixUncompute[0];
    } else {
        int64_t cost = 0;
        size_t ki = 0;
        for (const Stmt &s : m.compute) {
            cost += s.isGate() ? 1 : inv->computeKids[ki++]->invertCost;
        }
        inv->uncompCost = cost;
    }

    auto recompute_garbage = [&]() {
        int g = inv->ancLive ? static_cast<int>(inv->numAnc) : 0;
        for (const InvPtr &k : inv->computeKids)
            g += k->garbage;
        for (const InvPtr &k : inv->storeKids)
            g += k->garbage;
        inv->garbage = g;
    };
    recompute_garbage();

    // Measurement-and-reset reclamation (Sec. II-E): no uncompute;
    // each invocation resets its own ancilla, paying the reset
    // latency.  Only sound for classical-basis executions.
    if (ctx_.cfg.reclaim == ReclaimPolicy::MeasureReset &&
        !force_reclaim) {
        if (inv->ancLive) {
            for (size_t i = inv->numAnc; i-- > 0;) {
                LogicalQubit q = inv->anc[i];
                PhysQubit site = ctx_.layout.siteOf(q);
                ctx_.sched.occupy(site, ctx_.cfg.resetLatency);
                ctx_.aqv.onFree(q, ctx_.sched.siteClock(site));
                ctx_.layout.remove(q);
                ctx_.heap.push(site);
                if (ctx_.options.extraSink)
                    ctx_.options.extraSink->onReset(site);
            }
            inv->ancLive = false;
            inv->reclaimed = true; // grounded; never invertible again
            ++reclaim_count_;
        }
        recompute_garbage();
        inv->invertCost = st.flatEager;
        return inv;
    }

    bool do_reclaim = false;
    if (inv->garbage > 0) {
        do_reclaim = force_reclaim ||
                     shouldReclaim(*inv, depth, gates_to_parent_uncompute);
        if (do_reclaim)
            ++reclaim_count_;
        else
            ++skip_count_;
    }

    if (do_reclaim) {
        ++uncompute_depth_;
        if (m.hasExplicitUncompute()) {
            KidList none = makeKids(0);
            runBlockForward(m.uncompute, b, none, depth,
                            st.suffixUncompute, true, 0);
            SQ_ASSERT(none.empty(), "explicit uncompute spawned calls");
        } else {
            invertBlock(m.compute, b, inv->computeKids, depth);
        }
        --uncompute_depth_;
        if (inv->ancLive) {
            freeAncilla(inv->ancillas());
            inv->ancLive = false;
        }
        inv->reclaimed = true;
        recompute_garbage();
    }

    if (inv->reclaimed) {
        inv->invertCost = st.flatEager;
    } else {
        int64_t store_cost = 0;
        size_t ki = 0;
        for (const Stmt &s : m.store)
            store_cost += s.isGate() ? 1 : inv->storeKids[ki++]->invertCost;
        inv->invertCost = store_cost + inv->uncompCost;
    }
    return inv;
}

void
Executor::invertInvocation(Invocation &rec,
                           std::span<const LogicalQubit> args, int depth)
{
    const Module &m = prog_.module(rec.mod);
    const ModuleStats &st = ctx_.analysis.stats(rec.mod);
    ++uncompute_depth_;

    if (rec.reclaimed) {
        // Recursive recomputation: the forward invocation realized
        // C;S;C^-1, so its inverse is C;S^-1;C^-1 with fresh ancilla.
        // The replay's ancilla list lives only for this frame, so it
        // comes from the per-depth scratch pool; the replayed child
        // records are arena-allocated like any other invocation.
        std::vector<LogicalQubit> &replay_anc =
            depthScratch(ctx_.replayAncScratch, depth);
        replay_anc.resize(static_cast<size_t>(m.numAncilla));
        allocAncillaTracked(rec.mod, args, replay_anc.data());
        Binding b{args, replay_anc};
        const bool force_kids = m.hasExplicitUncompute();
        KidList replay_kids = makeKids(st.computeCalls);
        runBlockForward(m.compute, b, replay_kids, depth,
                        st.suffixCompute, force_kids, /*inherited=*/0);
        invertBlock(m.store, b, rec.storeKids, depth);
        invertBlock(m.compute, b, replay_kids, depth);
        if (!replay_anc.empty())
            freeAncilla(replay_anc);
    } else {
        // Garbage consumption: forward realized C;S, so the inverse
        // S^-1;C^-1 grounds the recorded ancillas.
        Binding b{args, rec.ancillas()};
        invertBlock(m.store, b, rec.storeKids, depth);
        if (m.hasExplicitUncompute()) {
            KidList none = makeKids(0);
            runBlockForward(m.uncompute, b, none, depth,
                            st.suffixUncompute, true, 0);
        } else {
            invertBlock(m.compute, b, rec.computeKids, depth);
        }
        if (rec.ancLive) {
            freeAncilla(rec.ancillas());
            rec.ancLive = false;
        }
        rec.reclaimed = true; // consumed; must not be inverted again
    }

    int g = 0;
    for (const InvPtr &k : rec.computeKids)
        g += k->garbage;
    for (const InvPtr &k : rec.storeKids)
        g += k->garbage;
    rec.garbage = g;
    --uncompute_depth_;
}

CompileResult
Executor::run()
{
    // The fused allocate/route/schedule phase: SQUARE's tool flow
    // interleaves the three, so one span covers the whole
    // instrumentation-driven walk.
    obs::SpanClock phase;
    if (ctx_.options.phases != nullptr)
        phase = obs::SpanClock::now();

    const Module &entry = prog_.entryModule();
    std::vector<LogicalQubit> primaries =
        ctx_.alloc.allocPrimaries(entry.numParams);
    for (LogicalQubit q : primaries)
        ctx_.aqv.onAlloc(q, 0);

    CompileResult r;
    r.machineLabel = ctx_.machine.label;
    r.policyLabel = ctx_.cfg.name;
    r.primaryInitialSites.reserve(primaries.size());
    r.primaryFinalSites.reserve(primaries.size());
    for (LogicalQubit q : primaries)
        r.primaryInitialSites.push_back(ctx_.layout.siteOf(q));

    InvPtr root = execCall(prog_.entry, primaries, 0, 0, false);
    (void)root; // the tree lives in the arena until we return

    const int64_t makespan = ctx_.sched.makespan();
    ctx_.aqv.finish(makespan);

    for (LogicalQubit q : primaries)
        r.primaryFinalSites.push_back(ctx_.layout.siteOf(q));

    r.aqv = ctx_.aqv.aqv();
    r.qubitsUsed = ctx_.layout.sitesTouched();
    r.peakLive = ctx_.layout.peakLive();
    r.sched = ctx_.sched.stats();
    r.gates = r.sched.totalGates;
    r.swaps = r.sched.swaps;
    r.depth = makespan;
    r.uncomputeIrGates = uncompute_ir_gates_;
    r.reclaimCount = reclaim_count_;
    r.skipCount = skip_count_;
    r.commFactor = ctx_.sched.commFactor();
    r.avgBraidLength = ctx_.sched.avgBraidLength();
    r.usageCurve = ctx_.aqv.usageCurve();
    if (ctx_.options.phases != nullptr)
        ctx_.options.phases->phaseSpan("allocate_route_schedule",
                                       phase.wallUs,
                                       obs::microsSince(phase));
    return r;
}

} // namespace square
