#include "resacc/core/forward_push.h"

namespace resacc {

namespace {

// How many work-list dequeues happen between cancellation-token polls.
// A poll is one relaxed load (plus a clock read when a deadline is
// armed); 512 pops of push work dwarf that, so the overhead is noise
// while the stop latency stays far under a millisecond.
constexpr std::uint64_t kCancelPollInterval = 512;

}  // namespace

PushStats RunForwardSearch(const Graph& graph, const RwrConfig& config,
                           NodeId source, Score r_max,
                           std::span<const NodeId> seeds,
                           bool push_seeds_unconditionally, PushState& state,
                           const CancellationToken* cancel,
                           const PushRoundHook* round_hook) {
  PushStats stats;
  Frontier frontier(graph.num_nodes());
  for (NodeId seed : seeds) frontier.Seed(seed);

  std::uint64_t pops = 0;
  std::size_t round = 0;
  NodeId node;
  while (frontier.Next(&node)) {
    if (cancel != nullptr && (++pops % kCancelPollInterval) == 0 &&
        cancel->ShouldStop()) {
      break;
    }
    if (round_hook != nullptr && frontier.round() != round) {
      // The popped node's scheduled flag is already cleared; leaving its
      // residue unpushed is the same valid intermediate as a cancel.
      round = frontier.round();
      if ((*round_hook)(round)) break;
    }
    const bool unconditional =
        push_seeds_unconditionally && frontier.round() == 0;
    if (!unconditional && !SatisfiesPushCondition(graph, state, node, r_max)) {
      continue;
    }
    PushAndSchedule(graph, config, source, node, r_max, state, frontier,
                    stats);
  }
  return stats;
}

}  // namespace resacc
