#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/inverse.h"
#include "resacc/core/backward_push.h"
#include "resacc/core/forward_push.h"
#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/util/rng.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

using ::resacc::testing::Figure1Graph;

RwrConfig TestConfig(DanglingPolicy policy = DanglingPolicy::kAbsorb) {
  RwrConfig config;
  config.alpha = 0.2;
  config.dangling = policy;
  return config;
}

TEST(PushStateTest, TouchTrackingAndReset) {
  PushState state(5);
  state.AddResidue(3, 0.5);
  state.AddReserve(1, 0.25);
  EXPECT_EQ(state.touched().size(), 2u);
  EXPECT_DOUBLE_EQ(state.ResidueSum(), 0.5);
  EXPECT_DOUBLE_EQ(state.ReserveSum(), 0.25);
  state.Reset();
  EXPECT_TRUE(state.touched().empty());
  EXPECT_DOUBLE_EQ(state.residue(3), 0.0);
  EXPECT_DOUBLE_EQ(state.reserve(1), 0.0);
}

// Reproduces Figure 1(b): push sequence v1, v2, v3, v2 without residue
// accumulation (alpha = 0.2).
TEST(ForwardPushTest, Figure1WithoutAccumulation) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig();
  PushState state(4);
  PushStats stats;
  state.SetResidue(0, 1.0);

  ForwardPushAt(g, config, 0, 0, state, stats);  // push v1
  EXPECT_NEAR(state.residue(1), 0.4, 1e-15);
  EXPECT_NEAR(state.residue(2), 0.4, 1e-15);

  ForwardPushAt(g, config, 0, 1, state, stats);  // push v2
  EXPECT_NEAR(state.residue(3), 0.32, 1e-15);

  ForwardPushAt(g, config, 0, 2, state, stats);  // push v3
  EXPECT_NEAR(state.residue(1), 0.32, 1e-15);

  ForwardPushAt(g, config, 0, 1, state, stats);  // push v2 again
  EXPECT_NEAR(state.residue(3), 0.576, 1e-15);
  EXPECT_EQ(stats.push_operations, 4u);
}

// Reproduces Figure 1(c): accumulating v2's residue first saves one push.
TEST(ForwardPushTest, Figure1WithAccumulation) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig();
  PushState state(4);
  PushStats stats;
  state.SetResidue(0, 1.0);

  ForwardPushAt(g, config, 0, 0, state, stats);  // push v1
  ForwardPushAt(g, config, 0, 2, state, stats);  // push v3 first
  EXPECT_NEAR(state.residue(1), 0.72, 1e-15);    // accumulated at v2

  ForwardPushAt(g, config, 0, 1, state, stats);  // single push at v2
  EXPECT_NEAR(state.residue(3), 0.576, 1e-15);
  EXPECT_EQ(stats.push_operations, 3u);  // 3 pushes instead of 4
}

TEST(ForwardPushTest, ZeroResidueIsNoOp) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig();
  PushState state(4);
  PushStats stats;
  ForwardPushAt(g, config, 0, 1, state, stats);
  EXPECT_EQ(stats.push_operations, 0u);
}

TEST(ForwardPushTest, DanglingAbsorbConvertsFully) {
  const Graph g = Figure1Graph();  // v4 (id 3) is a sink
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  PushState state(4);
  PushStats stats;
  state.SetResidue(3, 0.5);
  ForwardPushAt(g, config, 0, 3, state, stats);
  EXPECT_DOUBLE_EQ(state.reserve(3), 0.5);
  EXPECT_DOUBLE_EQ(state.residue(3), 0.0);
}

TEST(ForwardPushTest, DanglingBackToSourceReturnsMass) {
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig(DanglingPolicy::kBackToSource);
  PushState state(4);
  PushStats stats;
  state.SetResidue(3, 0.5);
  ForwardPushAt(g, config, 0, 3, state, stats);
  EXPECT_NEAR(state.reserve(3), 0.1, 1e-15);   // alpha * 0.5
  EXPECT_NEAR(state.residue(0), 0.4, 1e-15);   // (1-alpha) * 0.5 to source
}

TEST(ForwardSearchTest, SeedsPushedUnconditionally) {
  // A seed far below the threshold must still be pushed exactly once (the
  // OMFWD seed round, Algorithm 4); its out-neighbour then stays below it.
  const Graph g = testing::CycleGraph(6);
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  PushState state(g.num_nodes());
  state.SetResidue(2, 1e-9);
  const NodeId seeds[] = {NodeId{2}};
  const PushStats stats =
      RunForwardSearch(g, config, 0, /*r_max=*/1.0, seeds,
                       /*push_seeds_unconditionally=*/true, state);
  EXPECT_EQ(stats.push_operations, 1u);
  EXPECT_EQ(state.residue(2), 0.0);
  EXPECT_EQ(state.residue(3), (1.0 - config.alpha) * 1e-9);  // 8e-10
}

class ForwardSearchPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, DanglingPolicy>> {};

TEST_P(ForwardSearchPropertyTest, ConservesMassAndMeetsThreshold) {
  const auto [seed, policy] = GetParam();
  const Graph g = ErdosRenyi(300, 1200, seed);
  const RwrConfig config = TestConfig(policy);
  const Score r_max = 1e-5;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, r_max, seeds,
                   /*push_seeds_unconditionally=*/false, state);

  // Mass conservation: every push moves mass, never creates or destroys it.
  EXPECT_NEAR(state.ReserveSum() + state.ResidueSum(), 1.0, 1e-12);

  // Push condition exhausted everywhere.
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_FALSE(SatisfiesPushCondition(g, state, v, r_max)) << "node " << v;
  }
}

TEST_P(ForwardSearchPropertyTest, InvariantAgainstExactScores) {
  const auto [seed, policy] = GetParam();
  if (policy == DanglingPolicy::kBackToSource) {
    // Equation (2) needs pi(v, .) in the chain anchored at the query
    // source; ExactInverse::Query(v) anchors at v, so the identity is only
    // directly checkable under kAbsorb (source-independent chain).
    GTEST_SKIP();
  }
  const Graph g = ErdosRenyi(60, 240, seed);
  const RwrConfig config = TestConfig(policy);

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/1e-3, seeds, false, state);

  ExactInverse oracle(g, config);
  const std::vector<Score> exact = oracle.Query(0);

  // pi(s,t) = reserve(t) + sum_v residue(v) * pi(v,t)  (Equation 2).
  std::vector<Score> reconstructed(g.num_nodes(), 0.0);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    reconstructed[t] = state.reserve(t);
  }
  for (NodeId v : state.touched()) {
    const Score residue = state.residue(v);
    if (residue <= 0.0) continue;
    const std::vector<Score> from_v = oracle.Query(v);
    for (NodeId t = 0; t < g.num_nodes(); ++t) {
      reconstructed[t] += residue * from_v[t];
    }
  }
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    EXPECT_NEAR(reconstructed[t], exact[t], 1e-9) << "node " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ForwardSearchPropertyTest,
    ::testing::Combine(::testing::Values(1u, 7u, 123u),
                       ::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource)));

// The FIFO search on skewed-degree graphs, where hubs collect residue
// from many in-neighbours within one wavefront.
class ForwardSearchSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, DanglingPolicy>> {};

// The cost bound behind r_max (FORA, Lemma 1): every push meets the push
// condition, so it moves alpha * r(v) >= alpha * r_max * max(d_out(v), 1)
// into v's reserve. Summed over all pushes, the edge work and the push
// count are both paid for by the reserve mass, which never exceeds 1.
TEST_P(ForwardSearchSweepTest, ReserveGainPaysForEdgeWork) {
  const auto [seed, policy] = GetParam();
  const Graph g = ChungLuPowerLaw(300, 1800, 2.2, seed);
  const RwrConfig config = TestConfig(policy);
  const Score r_max = 1e-6;

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  const PushStats stats =
      RunForwardSearch(g, config, 0, r_max, seeds,
                       /*push_seeds_unconditionally=*/false, state);

  const Score reserve = state.ReserveSum();
  EXPECT_GT(stats.push_operations, 0u);
  EXPECT_LE(reserve, 1.0 + 1e-12);
  EXPECT_LE(config.alpha * r_max * static_cast<Score>(stats.edge_traversals),
            reserve * (1.0 + 1e-12));
  EXPECT_LE(config.alpha * r_max * static_cast<Score>(stats.push_operations),
            reserve * (1.0 + 1e-12));
}

// Equation (2) under both dangling policies: the reserves plus the exact
// scores of the leftover residues, propagated in the chain anchored at the
// query source, reproduce pi(s, .). The dense sweep does that propagation
// (it is the hybrid path's finish); ExactInverse is the independent oracle.
TEST_P(ForwardSearchSweepTest, DenseContinuationRecoversExactScores) {
  const auto [seed, policy] = GetParam();
  const Graph g = ChungLuPowerLaw(300, 1800, 2.2, seed);
  const RwrConfig config = TestConfig(policy);

  PushState state(g.num_nodes());
  state.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  RunForwardSearch(g, config, 0, /*r_max=*/1e-4, seeds,
                   /*push_seeds_unconditionally=*/false, state);
  ASSERT_GT(state.ResidueSum(), 1e-3);  // the sweep has real mass to move

  std::vector<Score> scores(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) scores[v] = state.reserve(v);
  HybridOptions options;
  options.tolerance = 1e-13;
  const PowerIterStats stats =
      RunDensePowerIter(g, config, 0, state, scores, options);
  EXPECT_FALSE(stats.cancelled);
  EXPECT_LT(stats.leftover_mass, options.tolerance);

  const std::vector<Score> exact = ExactInverse(g, config).Query(0);
  for (NodeId t = 0; t < g.num_nodes(); ++t) {
    EXPECT_NEAR(scores[t], exact[t], 1e-10) << "node " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForwardSearchSweepTest,
    ::testing::Combine(::testing::Values(2u, 19u, 77u),
                       ::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource)));

// ---- Bit-for-bit oracle for the fused push step. The reference is the
// search as it was before PushAndSchedule existed: a push (its own copy,
// so the oracle does not share the push body under test), then a second
// sweep over the row that schedules by exact division, on a work list
// that sorts every round >= 1.

void ReferencePushAt(const Graph& graph, const RwrConfig& config,
                     NodeId source, NodeId node, PushState& state,
                     PushStats& stats) {
  const Score residue = state.residue(node);
  if (residue <= 0.0) return;
  ++stats.push_operations;
  const auto neighbors = graph.OutNeighbors(node);
  if (neighbors.empty()) {
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
  for (NodeId v : neighbors) state.AddResidue(v, share);
  stats.edge_traversals += neighbors.size();
  state.SetResidue(node, 0.0);
}

bool DividingCondition(const Graph& g, const PushState& state, NodeId t,
                       Score r_max) {
  const NodeId degree = g.OutDegree(t);
  const Score scaled = degree > 0
                           ? state.residue(t) / static_cast<Score>(degree)
                           : state.residue(t);
  return scaled >= r_max;
}

class SortingFrontier {
 public:
  explicit SortingFrontier(NodeId n) : scheduled_(n, 0) {}

  void Seed(NodeId v) {
    if (scheduled_[v]) return;
    scheduled_[v] = 1;
    current_.push_back(v);
  }
  void Schedule(NodeId v) {
    if (scheduled_[v]) return;
    scheduled_[v] = 1;
    next_.push_back(v);
  }
  bool Next(NodeId* v) {
    if (pos_ == current_.size()) {
      if (next_.empty()) return false;
      current_.swap(next_);
      next_.clear();
      std::sort(current_.begin(), current_.end());
      pos_ = 0;
      ++round_;
    }
    *v = current_[pos_++];
    scheduled_[*v] = 0;
    return true;
  }
  std::size_t round() const { return round_; }

 private:
  std::vector<std::uint8_t> scheduled_;
  std::vector<NodeId> current_;
  std::vector<NodeId> next_;
  std::size_t pos_ = 0;
  std::size_t round_ = 0;
};

PushStats ReferenceForwardSearch(const Graph& graph, const RwrConfig& config,
                                 NodeId source, Score r_max,
                                 std::span<const NodeId> seeds,
                                 bool push_seeds_unconditionally,
                                 PushState& state,
                                 const PushRoundHook* round_hook = nullptr) {
  PushStats stats;
  SortingFrontier frontier(graph.num_nodes());
  for (NodeId seed : seeds) frontier.Seed(seed);
  std::size_t round = 0;
  NodeId node;
  while (frontier.Next(&node)) {
    if (round_hook != nullptr && frontier.round() != round) {
      round = frontier.round();
      if ((*round_hook)(round)) break;
    }
    const bool unconditional =
        push_seeds_unconditionally && frontier.round() == 0;
    if (!unconditional && !DividingCondition(graph, state, node, r_max)) {
      continue;
    }
    ReferencePushAt(graph, config, source, node, state, stats);
    for (NodeId v : graph.OutNeighbors(node)) {
      if (DividingCondition(graph, state, v, r_max)) frontier.Schedule(v);
    }
    if (config.dangling == DanglingPolicy::kBackToSource &&
        DividingCondition(graph, state, source, r_max)) {
      frontier.Schedule(source);
    }
  }
  return stats;
}

// RunHHopFwd with default options (no hop cap, no dense probe, no
// cancellation), with the accumulating loop on the reference search.
PushStats ReferenceHHopFwd(const Graph& graph, const RwrConfig& config,
                           NodeId source, const HHopFwdOptions& options,
                           PushState& state) {
  const HopLayers layers =
      ComputeHopLayers(graph, source, options.num_hops + 1);
  const Score r_max = options.r_max_hop;
  const auto schedulable = [&](NodeId v) {
    if (options.use_loop_accumulation && v == source) return false;
    return layers.InHopSet(v, options.num_hops) &&
           DividingCondition(graph, state, v, r_max);
  };
  PushStats stats;
  state.SetResidue(source, 1.0);
  ReferencePushAt(graph, config, source, source, state, stats);
  SortingFrontier frontier(graph.num_nodes());
  for (NodeId v : graph.OutNeighbors(source)) {
    if (schedulable(v)) frontier.Seed(v);
  }
  if (!options.use_loop_accumulation &&
      DividingCondition(graph, state, source, r_max)) {
    frontier.Seed(source);
  }
  NodeId node;
  while (frontier.Next(&node)) {
    if (!DividingCondition(graph, state, node, r_max)) continue;
    ReferencePushAt(graph, config, source, node, state, stats);
    for (NodeId v : graph.OutNeighbors(node)) {
      if (schedulable(v)) frontier.Schedule(v);
    }
    if (config.dangling == DanglingPolicy::kBackToSource &&
        schedulable(source)) {
      frontier.Schedule(source);
    }
  }
  if (!options.use_loop_accumulation) return stats;

  const Score rho = state.residue(source);
  if (rho <= 0.0) return stats;
  const double degree_s =
      std::max<double>(1.0, static_cast<double>(graph.OutDegree(source)));
  const double threshold_arg = r_max * degree_s;
  double loop_count = 1.0;
  if (threshold_arg < 1.0 && rho >= threshold_arg) {
    loop_count = std::floor(std::log(threshold_arg) / std::log(rho)) + 1.0;
    loop_count = std::max(loop_count, 1.0);
  }
  const Score rho_pow_t = std::pow(rho, loop_count);
  const Score scaler = (1.0 - rho_pow_t) / (1.0 - rho);
  for (NodeId v : state.touched()) {
    state.ScaleReserve(v, scaler);
    if (v == source) {
      state.SetResidue(source, rho_pow_t);
    } else {
      state.ScaleResidue(v, scaler);
    }
  }
  return stats;
}

// Same touched() order and the same bits in every reserve and residue.
void ExpectSameState(const PushState& fused, const PushState& reference) {
  ASSERT_EQ(fused.touched().size(), reference.touched().size());
  EXPECT_TRUE(std::equal(fused.touched().begin(), fused.touched().end(),
                         reference.touched().begin()))
      << "touched() order differs";
  std::size_t mismatched = 0;
  for (NodeId v = 0; v < fused.num_nodes(); ++v) {
    if (std::bit_cast<std::uint64_t>(fused.reserve(v)) !=
            std::bit_cast<std::uint64_t>(reference.reserve(v)) ||
        std::bit_cast<std::uint64_t>(fused.residue(v)) !=
            std::bit_cast<std::uint64_t>(reference.residue(v))) {
      ++mismatched;
    }
  }
  EXPECT_EQ(mismatched, 0u);
}

void ExpectSameStats(const PushStats& fused, const PushStats& reference) {
  EXPECT_EQ(fused.push_operations, reference.push_operations);
  EXPECT_EQ(fused.edge_traversals, reference.edge_traversals);
}

// Runs RunForwardSearch and the reference from the same initial residues
// and compares everything they leave behind.
void ExpectSearchMatchesReference(
    const Graph& g, const RwrConfig& config, NodeId source, Score r_max,
    const std::vector<std::pair<NodeId, Score>>& initial,
    const std::vector<NodeId>& seeds, bool unconditional,
    const PushRoundHook* hook = nullptr) {
  PushState fused(g.num_nodes());
  PushState reference(g.num_nodes());
  for (const auto& [v, r] : initial) {
    fused.SetResidue(v, r);
    reference.SetResidue(v, r);
  }
  const PushStats fused_stats = RunForwardSearch(
      g, config, source, r_max, seeds, unconditional, fused, nullptr, hook);
  const PushStats reference_stats = ReferenceForwardSearch(
      g, config, source, r_max, seeds, unconditional, reference, hook);
  EXPECT_GT(reference_stats.push_operations, 0u);
  ExpectSameStats(fused_stats, reference_stats);
  ExpectSameState(fused, reference);
}

// Chung-Lu rows with a self-loop at every third node and every seventh
// node turned into a sink. GraphBuilder drops self-loops, so the CSR is
// assembled here.
Graph SelfLoopsAndSinks(std::uint64_t seed) {
  const Graph base = ChungLuPowerLaw(300, 1800, 2.2, seed);
  const NodeId n = base.num_nodes();
  std::vector<std::vector<NodeId>> rows(n);
  for (NodeId u = 0; u < n; ++u) {
    if (u % 7 == 0) continue;
    const auto out = base.OutNeighbors(u);
    rows[u].assign(out.begin(), out.end());
    if (u % 3 == 0) {
      rows[u].insert(std::lower_bound(rows[u].begin(), rows[u].end(), u), u);
    }
  }
  std::vector<EdgeId> out_offsets{0};
  std::vector<NodeId> out_targets;
  std::vector<std::vector<NodeId>> in_rows(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : rows[u]) {
      out_targets.push_back(v);
      in_rows[v].push_back(u);
    }
    out_offsets.push_back(out_targets.size());
  }
  std::vector<EdgeId> in_offsets{0};
  std::vector<NodeId> in_sources;
  for (NodeId v = 0; v < n; ++v) {
    in_sources.insert(in_sources.end(), in_rows[v].begin(), in_rows[v].end());
    in_offsets.push_back(in_sources.size());
  }
  return Graph(n, std::move(out_offsets), std::move(out_targets),
               std::move(in_offsets), std::move(in_sources));
}

class FusedPushOracleTest : public ::testing::TestWithParam<DanglingPolicy> {
};

TEST_P(FusedPushOracleTest, ChungLuGraphs) {
  const RwrConfig config = TestConfig(GetParam());
  for (const std::uint64_t seed : {2u, 19u, 77u}) {
    // 3000 nodes: 47 bitmap words, so rounds below 6 nodes take the sort
    // branch of the promotion and larger ones the bitmap scan.
    const Graph graphs[] = {ChungLuPowerLaw(300, 1800, 2.2, seed),
                            ChungLuPowerLaw(3000, 24000, 2.1, seed)};
    for (const Graph& g : graphs) {
      for (const Score r_max : {1e-4, 1e-6}) {
        ExpectSearchMatchesReference(g, config, 0, r_max, {{0, 1.0}}, {0},
                                     false);
      }
    }
  }
}

TEST_P(FusedPushOracleTest, SelfLoopsAndSinks) {
  const RwrConfig config = TestConfig(GetParam());
  const Graph g = SelfLoopsAndSinks(5);
  // Source 1 is plain, 3 carries a self-loop and 0 is a sink.
  for (const NodeId source : {NodeId{1}, NodeId{3}, NodeId{0}}) {
    ExpectSearchMatchesReference(g, config, source, 1e-6, {{source, 1.0}},
                                 {source}, false);
  }
}

TEST_P(FusedPushOracleTest, OverlaySnapshotWithDirtyRows) {
  const RwrConfig config = TestConfig(GetParam());
  MutableGraphView view(ChungLuPowerLaw(400, 2400, 2.2, 3));
  Rng rng(91);
  for (int i = 0; i < 120; ++i) {
    const NodeId u = static_cast<NodeId>(rng.NextBounded(400));
    const NodeId v = static_cast<NodeId>(rng.NextBounded(400));
    if (u == v) continue;
    if (!view.RemoveEdge(u, v).ok()) {
      ASSERT_TRUE(view.AddEdge(u, v).ok());
    }
  }
  const Graph snapshot = view.Snapshot();
  ASSERT_TRUE(snapshot.has_overlay());
  ExpectSearchMatchesReference(snapshot, config, 0, 1e-6, {{0, 1.0}}, {0},
                               false);
}

// OMFWD's seed round: seeds pushed unconditionally in the caller's order,
// including a zero-residue seed whose no-op push still sweeps its row and
// schedules a neighbour that already met the condition.
TEST_P(FusedPushOracleTest, UnconditionalSeeds) {
  const RwrConfig config = TestConfig(GetParam());
  const Graph g = ChungLuPowerLaw(3000, 24000, 2.1, 11);
  const Score r_max = 1e-6;
  Rng rng(17);
  std::vector<std::pair<NodeId, Score>> initial;
  std::vector<NodeId> seeds;
  NodeId idle = 0;
  while (g.OutDegree(idle) == 0) ++idle;
  const NodeId ready = g.OutNeighbors(idle)[0];
  initial.push_back({idle, 0.0});
  initial.push_back(
      {ready, 10.0 * r_max * std::max<Score>(1.0, g.OutDegree(ready))});
  seeds.push_back(idle);
  for (int i = 0; i < 60; ++i) {
    const NodeId v = static_cast<NodeId>(rng.NextBounded(g.num_nodes()));
    if (v == ready || v == idle) continue;
    const Score scale = r_max * std::max<Score>(1.0, g.OutDegree(v));
    initial.push_back({v, 2.0 * scale * rng.NextDouble()});
    seeds.push_back(v);
  }
  ExpectSearchMatchesReference(g, config, 0, r_max, initial, seeds, true);
  // The zero-residue seed alone: only its sweep schedules node 3.
  ExpectSearchMatchesReference(testing::CycleGraph(6), config, 0, 1e-3,
                               {{2, 0.0}, {3, 0.5}}, {2}, true);
}

TEST_P(FusedPushOracleTest, RoundHookStopsAtRound2) {
  const RwrConfig config = TestConfig(GetParam());
  const Graph g = ChungLuPowerLaw(3000, 24000, 2.1, 23);
  std::vector<std::size_t> fused_rounds;
  std::vector<std::size_t> reference_rounds;
  const PushRoundHook fused_hook = [&](std::size_t round) {
    fused_rounds.push_back(round);
    return round >= 2;
  };
  const PushRoundHook reference_hook = [&](std::size_t round) {
    reference_rounds.push_back(round);
    return round >= 2;
  };
  PushState fused(g.num_nodes());
  PushState reference(g.num_nodes());
  fused.SetResidue(0, 1.0);
  reference.SetResidue(0, 1.0);
  const NodeId seeds[] = {NodeId{0}};
  const PushStats fused_stats = RunForwardSearch(
      g, config, 0, 1e-7, seeds, false, fused, nullptr, &fused_hook);
  const PushStats reference_stats = ReferenceForwardSearch(
      g, config, 0, 1e-7, seeds, false, reference, &reference_hook);
  EXPECT_EQ(fused_rounds, (std::vector<std::size_t>{1, 2}));
  EXPECT_EQ(fused_rounds, reference_rounds);
  ExpectSameStats(fused_stats, reference_stats);
  ExpectSameState(fused, reference);
  EXPECT_GT(fused.ResidueSum(), 0.0);
}

TEST_P(FusedPushOracleTest, HHopFwdWithAndWithoutLoopAccumulation) {
  const RwrConfig config = TestConfig(GetParam());
  const Graph graphs[] = {ChungLuPowerLaw(3000, 24000, 2.1, 29),
                          SelfLoopsAndSinks(31)};
  for (const Graph& g : graphs) {
    for (const bool loop : {true, false}) {
      HHopFwdOptions options;
      options.r_max_hop = 1e-12;
      options.num_hops = 2;
      options.use_loop_accumulation = loop;
      // The two lowest ids with a few out-edges, so the phase has a
      // wavefront to push.
      std::vector<NodeId> sources;
      for (NodeId v = 0; sources.size() < 2; ++v) {
        if (g.OutDegree(v) >= 3) sources.push_back(v);
      }
      for (const NodeId source : sources) {
        PushState fused(g.num_nodes());
        PushState reference(g.num_nodes());
        HopLayers layers;
        const HHopFwdStats stats =
            RunHHopFwd(g, config, source, options, fused, &layers);
        const PushStats reference_stats =
            ReferenceHHopFwd(g, config, source, options, reference);
        EXPECT_GT(reference_stats.push_operations, 1u);
        ExpectSameStats(stats.push, reference_stats);
        ExpectSameState(fused, reference);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Dangling, FusedPushOracleTest,
                         ::testing::Values(DanglingPolicy::kAbsorb,
                                           DanglingPolicy::kBackToSource));

// The divide-free screen at its boundary: residues a few ulps either side
// of r_max * deg decide exactly as the division does.
TEST(PushConditionScreenTest, BoundaryResiduesMatchDivision) {
  const Score r_maxes[] = {1e-14, 1.0 / (10.0 * 523878.0), 1e-4, 0.1,
                           1.0 / 3.0};
  const NodeId degrees[] = {0, 1, 2, 3, 7, 10, 97, 1000, 49999};
  constexpr Score kInf = std::numeric_limits<Score>::infinity();
  std::size_t passes = 0;
  std::size_t fails = 0;
  for (const Score r_max : r_maxes) {
    for (const NodeId degree : degrees) {
      const Score deg = std::max<Score>(1.0, degree);
      Score r = r_max * deg;
      for (int ulps = 0; ulps < 4; ++ulps) r = std::nextafter(r, 0.0);
      for (int step = 0; step <= 8; ++step) {
        const bool expected = r / deg >= r_max;
        EXPECT_EQ(MeetsPushCondition(r, degree, r_max), expected)
            << "r_max=" << r_max << " degree=" << degree << " r=" << r;
        (expected ? passes : fails) += 1;
        r = std::nextafter(r, kInf);
      }
    }
  }
  EXPECT_GT(passes, 0u);
  EXPECT_GT(fails, 0u);
}

TEST(BackwardPushTest, InvariantAgainstExactScoresWithSink) {
  // Figure 1's graph has a sink (v4), exercising the dedicated sink rule.
  const Graph g = Figure1Graph();
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  ExactInverse oracle(g, config);

  for (NodeId target = 0; target < g.num_nodes(); ++target) {
    PushState state(g.num_nodes());
    RunBackwardSearch(g, config, target, /*r_max=*/1e-4, state);
    for (NodeId s = 0; s < g.num_nodes(); ++s) {
      const std::vector<Score> from_s = oracle.Query(s);
      Score reconstructed = state.reserve(s);
      for (NodeId v : state.touched()) {
        reconstructed += state.residue(v) * from_s[v];
      }
      EXPECT_NEAR(reconstructed, from_s[target], 1e-9)
          << "s=" << s << " t=" << target;
    }
  }
}

TEST(BackwardPushTest, ReservesApproximateColumnOfExact) {
  const Graph g = ErdosRenyi(80, 400, 11);
  const RwrConfig config = TestConfig(DanglingPolicy::kAbsorb);
  ExactInverse oracle(g, config);
  const NodeId target = 5;

  PushState state(g.num_nodes());
  RunBackwardSearch(g, config, target, /*r_max=*/1e-8, state);
  for (NodeId s = 0; s < g.num_nodes(); s += 7) {
    const std::vector<Score> from_s = oracle.Query(s);
    // With a tiny r_max the residues are negligible; reserve(s) ~ pi(s,t).
    EXPECT_NEAR(state.reserve(s), from_s[target], 1e-5);
  }
}

}  // namespace
}  // namespace resacc
