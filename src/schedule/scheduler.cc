#include "schedule/scheduler.h"

#include <algorithm>

#include "common/logging.h"

namespace square {

GateScheduler::GateScheduler(const Machine &machine, Layout &layout,
                             AncillaHeap &heap, TraceSink *sink)
    : machine_(machine),
      layout_(layout),
      heap_(heap),
      sink_(sink),
      clock_(static_cast<size_t>(machine.numSites()), 0)
{
    for (size_t k = 0; k < static_cast<size_t>(GateKind::NumKinds); ++k)
        dur_table_[k] = machine_.times.durationFor(static_cast<GateKind>(k));
    switch (machine_.comm) {
      case CommModel::Swap:
        swap_router_.emplace(*machine_.topology);
        break;
      case CommModel::Braid: {
        auto *lattice =
            dynamic_cast<const LatticeTopology *>(machine_.topology.get());
        if (!lattice)
            fatal("braid communication requires a lattice topology");
        braid_router_ = std::make_unique<BraidRouter>(*lattice);
        break;
      }
      case CommModel::None:
        break;
    }
}

double
GateScheduler::commFactor() const
{
    switch (machine_.comm) {
      case CommModel::Swap:
        return stats_.twoQubitGates == 0
                   ? 0.0
                   : static_cast<double>(stats_.swaps) /
                         static_cast<double>(stats_.twoQubitGates);
      case CommModel::Braid:
        return stats_.braids == 0
                   ? 0.0
                   : static_cast<double>(stats_.braidConflicts) /
                         static_cast<double>(stats_.braids);
      case CommModel::None:
        return 0.0;
    }
    return 0.0;
}

double
GateScheduler::avgBraidLength() const
{
    // Every reserve() adds one to stats_.braids.
    if (!braid_router_ || stats_.braids == 0)
        return 0.0;
    return static_cast<double>(braid_router_->totalPathCells()) /
           static_cast<double>(stats_.braids);
}

void
GateScheduler::hop(PhysQubit from, PhysQubit to)
{
    constexpr GateKind kSwap = GateKind::Swap;
    const int dur = dur_table_[static_cast<size_t>(kSwap)];
    int64_t &clk_from = clock_[static_cast<size_t>(from)];
    int64_t &clk_to = clock_[static_cast<size_t>(to)];
    const int64_t start = std::max({int64_t{0}, clk_from, clk_to});
    clk_from = start + dur;
    clk_to = start + dur;
    makespan_ = std::max(makespan_, start + dur);
    ++stats_.swaps;
    if (sink_) {
        TimedGate g;
        g.kind = kSwap;
        g.arity = 2;
        g.sites[0] = from;
        g.sites[1] = to;
        g.start = start;
        g.duration = dur;
        sink_->onGate(g);
    }
    layout_.swapSites(from, to);
    heap_.onSwap(from, to, layout_);
}

void
GateScheduler::issue(GateKind kind, const PhysQubit *sites, int arity)
{
    int64_t start = 0;
    for (int i = 0; i < arity; ++i)
        start = std::max(start, clock_[static_cast<size_t>(sites[i])]);
    issueAt(kind, sites, arity, start);
}

void
GateScheduler::issueAt(GateKind kind, const PhysQubit *sites, int arity,
                       int64_t start)
{
    const int dur = dur_table_[static_cast<size_t>(kind)];
    for (int i = 0; i < arity; ++i)
        clock_[static_cast<size_t>(sites[i])] = start + dur;
    makespan_ = std::max(makespan_, start + dur);

    if (kind == GateKind::Swap) {
        ++stats_.swaps;
    } else {
        ++stats_.totalGates;
        switch (gateArity(kind)) {
          case 1:
            ++stats_.oneQubitGates;
            if (kind == GateKind::T || kind == GateKind::Tdg)
                ++stats_.tGates;
            break;
          case 2:
            ++stats_.twoQubitGates;
            break;
          case 3:
            ++stats_.toffoliGates;
            break;
        }
    }
    if (sink_) {
        TimedGate g;
        g.kind = kind;
        g.arity = static_cast<int8_t>(arity);
        for (int i = 0; i < arity; ++i)
            g.sites[static_cast<size_t>(i)] = sites[i];
        g.start = start;
        g.duration = dur;
        sink_->onGate(g);
    }
}

void
GateScheduler::occupy(PhysQubit site, int64_t duration)
{
    SQ_ASSERT(duration >= 0, "negative occupation");
    int64_t &clk = clock_.at(static_cast<size_t>(site));
    clk += duration;
    makespan_ = std::max(makespan_, clk);
}

void
GateScheduler::applyTwoQubit(GateKind kind, LogicalQubit a, LogicalQubit b)
{
    PhysQubit sa = layout_.siteOf(a);
    PhysQubit sb = layout_.siteOf(b);
    SQ_ASSERT(sa != sb, "two-qubit gate on one site");

    switch (machine_.comm) {
      case CommModel::None: {
        const PhysQubit sites[2] = {sa, sb};
        issue(kind, sites, 2);
        return;
      }
      case CommModel::Swap: {
        if (!swap_router_->adjacent(sa, sb)) {
            ++stats_.routedGates;
            swap_router_->makeAdjacent(
                sa, sb, [this](PhysQubit f, PhysQubit t) { hop(f, t); });
        }
        const PhysQubit sites[2] = {sa, sb};
        issue(kind, sites, 2);
        return;
      }
      case CommModel::Braid: {
        int64_t ready = std::max(clock_[static_cast<size_t>(sa)],
                                 clock_[static_cast<size_t>(sb)]);
        auto res = braid_router_->reserve(sa, sb, ready,
                                          machine_.times.braid);
        stats_.braidConflicts += res.conflicts;
        ++stats_.braids;
        if (res.conflicts > 0)
            ++stats_.routedGates;
        const PhysQubit sites[2] = {sa, sb};
        issueAt(kind, sites, 2, res.start);
        return;
      }
    }
}

void
GateScheduler::applyToffoliDecomposed(LogicalQubit c0, LogicalQubit c1,
                                      LogicalQubit tgt)
{
    // Standard 15-gate Clifford+T realization of CCX (Nielsen & Chuang
    // Fig. 4.9): 7 T/Tdg, 6 CNOT, 2 H.  Verified against the
    // state-vector simulator in tests/sim.
    auto one = [&](GateKind k, LogicalQubit q) {
        PhysQubit s = layout_.siteOf(q);
        issue(k, &s, 1);
    };
    auto two = [&](GateKind k, LogicalQubit a, LogicalQubit b) {
        applyTwoQubit(k, a, b);
    };

    one(GateKind::H, tgt);
    two(GateKind::CNOT, c1, tgt);
    one(GateKind::Tdg, tgt);
    two(GateKind::CNOT, c0, tgt);
    one(GateKind::T, tgt);
    two(GateKind::CNOT, c1, tgt);
    one(GateKind::Tdg, tgt);
    two(GateKind::CNOT, c0, tgt);
    one(GateKind::T, c1);
    one(GateKind::T, tgt);
    one(GateKind::H, tgt);
    two(GateKind::CNOT, c0, c1);
    one(GateKind::T, c0);
    one(GateKind::Tdg, c1);
    two(GateKind::CNOT, c0, c1);
}

void
GateScheduler::gatherForMacro(LogicalQubit c0, LogicalQubit c1,
                              LogicalQubit tgt)
{
    // Bring both controls onto neighbor sites of the target.  The
    // second control must avoid displacing the first, so it is moved
    // onto an explicit free-of-c0 neighbor.
    auto step = [this](PhysQubit f, PhysQubit t) { hop(f, t); };
    PhysQubit st = layout_.siteOf(tgt);
    PhysQubit s0 = layout_.siteOf(c0);
    if (!swap_router_->adjacent(s0, st)) {
        ++stats_.routedGates;
        swap_router_->makeAdjacent(s0, st, step);
    }
    st = layout_.siteOf(tgt); // target may not move, but stay defensive
    s0 = layout_.siteOf(c0);
    PhysQubit s1 = layout_.siteOf(c1);
    if (swap_router_->adjacent(s1, st) && s1 != s0)
        return;
    // Pick the neighbor of the target (excluding c0's site) closest to
    // c1 and move c1 onto it.
    PhysQubit best = kNoQubit;
    int best_d = INT32_MAX;
    machine_.topology->forEachNeighbor(st, [&](PhysQubit nbr) {
        if (nbr == s0)
            return;
        int d = machine_.topology->distance(s1, nbr);
        if (d < best_d) {
            best_d = d;
            best = nbr;
        }
    });
    if (best == kNoQubit) {
        fatal("macro Toffoli cannot gather operands: target site ", st,
              " has no free neighbor (machine too small)");
    }
    if (s1 != best) {
        ++stats_.routedGates;
        swap_router_->moveTo(s1, best, step);
    }
}

void
GateScheduler::apply(GateKind kind, std::span<const LogicalQubit> operands)
{
    SQ_ASSERT(static_cast<int>(operands.size()) == gateArity(kind),
              "operand count mismatch");
    switch (gateArity(kind)) {
      case 1: {
        PhysQubit s = layout_.siteOf(operands[0]);
        issue(kind, &s, 1);
        return;
      }
      case 2:
        applyTwoQubit(kind, operands[0], operands[1]);
        return;
      case 3:
        if (machine_.decomposeToffoli) {
            applyToffoliDecomposed(operands[0], operands[1], operands[2]);
        } else if (machine_.comm == CommModel::Braid) {
            // Macro CCX on an FT machine: braid each control to the
            // target (a surface-code CCX still needs the operands
            // connected; both windows must be held).
            PhysQubit sites[3] = {layout_.siteOf(operands[0]),
                                  layout_.siteOf(operands[1]),
                                  layout_.siteOf(operands[2])};
            int64_t ready = 0;
            for (PhysQubit s : sites) {
                ready = std::max(ready,
                                 clock_[static_cast<size_t>(s)]);
            }
            auto r0 = braid_router_->reserve(sites[0], sites[2], ready,
                                             machine_.times.toffoli);
            auto r1 = braid_router_->reserve(sites[1], sites[2],
                                             r0.start,
                                             machine_.times.toffoli);
            stats_.braidConflicts += r0.conflicts + r1.conflicts;
            stats_.braids += 2;
            issueAt(kind, sites, 3, r1.start);
        } else {
            if (machine_.comm == CommModel::Swap)
                gatherForMacro(operands[0], operands[1], operands[2]);
            PhysQubit sites[3] = {layout_.siteOf(operands[0]),
                                  layout_.siteOf(operands[1]),
                                  layout_.siteOf(operands[2])};
            issue(kind, sites, 3);
        }
        return;
      default:
        panic("unsupported gate arity");
    }
}

} // namespace square
