#ifndef RESACC_CORE_FORWARD_PUSH_H_
#define RESACC_CORE_FORWARD_PUSH_H_

#include <cstdint>
#include <functional>
#include <span>

#include "resacc/core/frontier.h"
#include "resacc/core/push_state.h"
#include "resacc/core/rwr_config.h"
#include "resacc/graph/graph.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/check.h"

namespace resacc {

// Operation counters for the push engines; the benches report these and
// the complexity tests assert their bounds.
struct PushStats {
  std::uint64_t push_operations = 0;
  std::uint64_t edge_traversals = 0;

  PushStats& operator+=(const PushStats& other) {
    push_operations += other.push_operations;
    edge_traversals += other.edge_traversals;
    return *this;
  }
};

// Half-width of the divide-free push-condition screen, relative to
// r_max * degree. IEEE-754 double rounding perturbs the compared
// quantities by at most ~3 ulp (~7e-16 relative); 1e-14 brackets that
// with an order of magnitude to spare. The batch kernel's vector screen
// (batch_solver.cc) uses the same margin.
inline constexpr Score kCondMargin = 1e-14;

// The push condition (Definition 6) for `residue` at a node of out-degree
// `degree`: residue / degree >= r_max, with dangling nodes treated as
// degree 1. Divide-free screen: residues at or above
// r_max*degree*(1 + kCondMargin) pass and residues below
// r_max*degree*(1 - kCondMargin) fail, which is exactly what the division
// decides outside that band; only in-band residues (astronomically rare
// for push residues) divide. Every decision equals residue / degree >=
// r_max bit for bit.
inline bool MeetsPushCondition(Score residue, NodeId degree, Score r_max) {
  if (degree == 0) return residue >= r_max;
  const Score t = r_max * static_cast<Score>(degree);
  if (residue >= t * (1.0 + kCondMargin)) return true;
  if (residue < t * (1.0 - kCondMargin)) return false;
  return residue / static_cast<Score>(degree) >= r_max;
}

inline bool SatisfiesPushCondition(const Graph& graph, const PushState& state,
                                   NodeId t, Score r_max) {
  return MeetsPushCondition(state.residue(t), graph.OutDegree(t), r_max);
}

// One forward push operation at `node` (Definition 7): moves alpha of its
// residue to its reserve and spreads the rest over out-neighbours (or per
// the dangling policy). No-op when the residue is zero. `on_deposit(v)` is
// called right after each out-neighbour deposit, before the next one.
struct NoDeposit {
  void operator()(NodeId) const {}
};

template <typename OnDeposit = NoDeposit>
void ForwardPushAt(const Graph& graph, const RwrConfig& config, NodeId source,
                   NodeId node, PushState& state, PushStats& stats,
                   const OnDeposit& on_deposit = {}) {
  const Score residue = state.residue(node);
  if (residue <= 0.0) return;
  ++stats.push_operations;

  const auto neighbors = graph.OutNeighbors(node);
  if (neighbors.empty()) {
    // Dangling node: see DanglingPolicy. The residue is consumed *before*
    // the back-flow is credited — the source may be this very node (an
    // isolated source), in which case the flow must survive the reset.
    state.SetResidue(node, 0.0);
    if (config.dangling == DanglingPolicy::kAbsorb) {
      state.AddReserve(node, residue);
    } else {
      state.AddReserve(node, config.alpha * residue);
      state.AddResidue(source, (1.0 - config.alpha) * residue);
    }
    return;
  }

  state.AddReserve(node, config.alpha * residue);
  const Score share = (1.0 - config.alpha) * residue /
                      static_cast<Score>(neighbors.size());
  for (NodeId v : neighbors) {
    state.AddResidue(v, share);
    on_deposit(v);
  }
  stats.edge_traversals += neighbors.size();
  state.SetResidue(node, 0.0);
}

// One step of the forward search: the push at popped node `u` fused with
// the scheduling sweep that follows it. Every out-neighbour v, and the
// source under kBackToSource, that is not yet scheduled, passes
// `can_schedule` and then meets the push condition at `r_max` is
// scheduled on `frontier`. The sweep needs no second pass over the row: it
// screens each v right after its deposit, and v's residue changes only at
// its own deposits, so it already holds the value a sweep after the push
// would read. u itself is skipped, since its residue is zeroed after the
// row; a no-op push (zero residue) still sweeps its unchanged row.
// Reserves, residues, touched() order and `stats` are exactly those of
// ForwardPushAt followed by the sweep. Only a row that repeats a target
// can stage next-round nodes in a different order, and promotion orders
// every round by id anyway.
struct AnyNode {
  bool operator()(NodeId) const { return true; }
};

template <typename CanSchedule = AnyNode>
void PushAndSchedule(const Graph& graph, const RwrConfig& config,
                     NodeId source, NodeId u, Score r_max, PushState& state,
                     Frontier& frontier, PushStats& stats,
                     const CanSchedule& can_schedule = {}) {
  RESACC_DCHECK(r_max > 0.0);
  const auto try_schedule = [&](NodeId v) {
    if (!frontier.scheduled(v) && can_schedule(v) &&
        MeetsPushCondition(state.residue(v), graph.OutDegree(v), r_max)) {
      frontier.Schedule(v);
    }
  };
  if (state.residue(u) <= 0.0) {
    for (NodeId v : graph.OutNeighbors(u)) try_schedule(v);
  } else {
    ForwardPushAt(graph, config, source, u, state, stats, [&](NodeId v) {
      if (v != u) try_schedule(v);
    });
  }
  if (config.dangling == DanglingPolicy::kBackToSource) try_schedule(source);
}

// Invoked by the level-synchronous search each time the Frontier promotes
// to a new round (before any node of that round is pushed). Returning true
// stops the search there; the state is a valid intermediate exactly as
// with cancellation. The top-k solver hangs its separation check here —
// round boundaries are the only points whose position in the processing
// sequence is a pure function of the scheduled (node, round) pairs, which
// is what keeps batched-lane replays bit-identical to serial.
using PushRoundHook = std::function<bool(std::size_t round)>;

// Queue-driven forward search (Algorithm 1, generalized):
//  * `seeds` are enqueued first; when `push_seeds_unconditionally` they
//    are pushed even if below threshold (OMFWD seeds the accumulated
//    (h+1)-layer this way, Algorithm 4).
//  * afterwards, any node whose residue meets the push condition with
//    `r_max` is pushed until none remains.
// The work list is level-synchronous rounds on the shared Frontier
// (frontier.h): the classic FIFO wavefront with a canonical ascending-id
// order inside each round. Wavefronts maximize residue accumulation (a
// node collects from its whole in-frontier before it is popped), and the
// canonical in-round order makes the processing sequence deterministic in
// the scheduled (node, round) pairs alone — the property the batched
// multi-source solver builds on.
// The state must already hold the initial residues (e.g. r(s) = 1).
// A non-null `cancel` token is polled every few hundred dequeues; when it
// fires the search stops early. The state stays a valid intermediate (the
// invariant pi(v) = reserve(v) + sum_u r(u) pi_u(v) holds after every
// individual push), so the caller can still read partial reserves and the
// remaining residue mass — the token's status says *why* it stopped.
PushStats RunForwardSearch(const Graph& graph, const RwrConfig& config,
                           NodeId source, Score r_max,
                           std::span<const NodeId> seeds,
                           bool push_seeds_unconditionally, PushState& state,
                           const CancellationToken* cancel = nullptr,
                           const PushRoundHook* round_hook = nullptr);

}  // namespace resacc

#endif  // RESACC_CORE_FORWARD_PUSH_H_
