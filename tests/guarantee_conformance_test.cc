// Statistical conformance suite (PR 4 satellite): asserts Definition 1 —
// every node with pi(v) > delta satisfies |pi_hat(v) - pi(v)| <=
// epsilon * pi(v) with probability at least 1 - p_f — empirically, for
// each solver that claims it (ResAcc, FORA, MC), on two seeded graphs,
// against power-iteration ground truth.
//
// Methodology: N independent trials per (solver, graph); each trial uses a
// fresh solver with a distinct RNG seed (a repeated Query on one solver is
// deterministic by design, so independence must come from the seed). A
// checked pair is (trial, node with pi > delta); a violation is a pair
// whose relative error exceeds epsilon. Definition 1 bounds the expected
// violation fraction by p_f, so the observed fraction must stay below
// p_f + 3 standard deviations of the binomial at the checked-pair count.
// In practice the concentration bounds behind Theorem 3 are conservative
// and the observed fraction is ~0.
//
// The full suite is excluded from tier-1: it runs ~1200 full queries. It
// is labelled `conformance` in CTest and skips itself unless
// RESACC_CONFORMANCE=1 (the nightly conformance workflow sets both). A
// small slice (GuaranteeConformanceSliceTest, kSliceTrials trials per
// graph) always runs, so every change is checked against Definition 1.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "resacc/algo/fora.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph_builder.h"
#include "resacc/util/env.h"
#include "resacc/util/rng.h"
#include "resacc/util/top_k.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

constexpr int kTrials = 200;
constexpr int kSliceTrials = 24;
constexpr int kSourcesPerGraph = 10;

RwrConfig ConformanceConfig(std::uint64_t seed) {
  RwrConfig config;
  config.alpha = 0.2;
  config.epsilon = 0.5;  // the paper's operating point
  // delta/p_f large enough that (a) many nodes clear the delta threshold
  // on a few-hundred-node graph and (b) p_f is observable at this trial
  // count (p_f = 1e-6 would need millions of pairs to say anything).
  config.delta = 0.01;
  config.p_f = 0.01;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = seed;
  return config;
}

struct ConformanceGraph {
  std::string name;
  Graph graph;
};

std::vector<ConformanceGraph> MakeGraphs() {
  std::vector<ConformanceGraph> graphs;
  graphs.push_back(
      {"chung-lu", ChungLuPowerLaw(400, 2400, 2.5, /*seed=*/13)});
  graphs.push_back({"erdos-renyi", ErdosRenyi(300, 1800, /*seed=*/29)});
  return graphs;
}

// Dynamic-graph variant: push a deterministic churn stream (~20% of the
// edge count, adds and removes toggling random pairs) through a
// MutableGraphView and return the merged live snapshot. Definition 1 must
// hold on it exactly as on a statically built graph — a Snapshot() is,
// by the bit-identity contract (dynamic/mutable_graph_view.h), just
// another graph. The returned snapshots are self-contained: they keep the
// view's published base+overlay alive after the view is gone.
std::vector<ConformanceGraph> MakeMutatedGraphs() {
  std::vector<ConformanceGraph> graphs;
  for (ConformanceGraph& entry : MakeGraphs()) {
    const NodeId n = entry.graph.num_nodes();
    std::set<std::pair<NodeId, NodeId>> edges;
    for (NodeId u = 0; u < n; ++u) {
      for (const NodeId v : entry.graph.OutNeighbors(u)) {
        edges.insert({u, v});
      }
    }
    const int steps = static_cast<int>(entry.graph.num_edges() / 5);
    MutableGraphView view(std::move(entry.graph));
    Rng rng(0xc4a2 + n);
    for (int i = 0; i < steps; ++i) {
      const NodeId u = static_cast<NodeId>(rng.NextBounded(n));
      const NodeId v = static_cast<NodeId>(rng.NextBounded(n));
      if (u == v) continue;
      if (edges.count({u, v}) > 0) {
        EXPECT_TRUE(view.RemoveEdge(u, v).ok());
        edges.erase({u, v});
      } else {
        EXPECT_TRUE(view.AddEdge(u, v).ok());
        edges.insert({u, v});
      }
    }
    graphs.push_back({entry.name + "+churn", view.Snapshot()});
  }
  return graphs;
}

// Hub-heavy variant (PR 10): graphs whose low-id sources include hubs
// with 1-hop sets spanning a large fraction of the graph — the regime
// where the hybrid selector hands queries to the dense power-iteration
// path. The star is the extreme (source 0 IS the hub and always goes
// dense); the low-exponent Chung-Lu head exercises the mixed case where
// some of the ten sources go dense and the rest stay local.
std::vector<ConformanceGraph> MakeHubGraphs() {
  std::vector<ConformanceGraph> graphs;
  graphs.push_back({"star", ::resacc::testing::StarGraph(399)});
  graphs.push_back(
      {"chung-lu-head", ChungLuPowerLaw(400, 4000, 2.0, /*seed=*/17)});
  return graphs;
}

using SolverFactory = std::function<std::unique_ptr<SsrwrAlgorithm>(
    const Graph&, const RwrConfig&)>;

// Runs `trials` queries per graph. With `nightly_only` the run skips
// itself unless RESACC_CONFORMANCE is set.
void RunConformance(const SolverFactory& factory,
                    const std::vector<ConformanceGraph>& graphs,
                    int trials = kTrials, bool nightly_only = true) {
  if (nightly_only && GetEnvString("RESACC_CONFORMANCE", "").empty()) {
    GTEST_SKIP() << "set RESACC_CONFORMANCE=1 to run the statistical "
                    "conformance suite (nightly CI job)";
  }

  for (const ConformanceGraph& entry : graphs) {
    const Graph& graph = entry.graph;
    const RwrConfig base_config = ConformanceConfig(/*seed=*/1);
    GroundTruthCache ground_truth(graph, base_config);

    std::uint64_t checked_pairs = 0;
    std::uint64_t violations = 0;
    double worst_relative_error = 0.0;

    for (int trial = 0; trial < trials; ++trial) {
      const NodeId source =
          static_cast<NodeId>((trial * 7) % kSourcesPerGraph);
      RwrConfig config = ConformanceConfig(
          /*seed=*/0x5eed0000ULL + static_cast<std::uint64_t>(trial));
      std::unique_ptr<SsrwrAlgorithm> solver = factory(graph, config);
      const std::vector<Score> estimate = solver->Query(source);

      const std::vector<Score>& exact = ground_truth.Get(source);
      ASSERT_EQ(estimate.size(), exact.size());
      for (NodeId v = 0; v < graph.num_nodes(); ++v) {
        if (exact[v] <= config.delta) continue;
        ++checked_pairs;
        const double relative_error =
            std::abs(estimate[v] - exact[v]) / exact[v];
        worst_relative_error = std::max(worst_relative_error, relative_error);
        if (relative_error > config.epsilon + 1e-9) ++violations;
      }
    }

    ASSERT_GT(checked_pairs, 0u) << entry.name << ": delta too large, no "
                                 << "node qualified — the test checked "
                                 << "nothing";
    const double p_f = ConformanceConfig(1).p_f;
    const double fraction =
        static_cast<double>(violations) / static_cast<double>(checked_pairs);
    const double slack =
        3.0 * std::sqrt(p_f * (1.0 - p_f) /
                        static_cast<double>(checked_pairs));
    EXPECT_LE(fraction, p_f + slack)
        << entry.name << ": " << violations << "/" << checked_pairs
        << " pairs violated the epsilon bound (worst relative error "
        << worst_relative_error << ")";
  }
}

SolverFactory MakeResAcc() {
  return [](const Graph& graph, const RwrConfig& config) {
    return std::make_unique<ResAccSolver>(graph, config, ResAccOptions{});
  };
}

// ResAcc with the hybrid local/dense selector on (core/power_iter.h):
// Definition 1 must hold regardless of which path answers — the dense
// path's guarantee is deterministic, the local path's is the usual
// statistical one, and the conformance budget covers both.
SolverFactory MakeHybridResAcc() {
  return [](const Graph& graph, const RwrConfig& config) {
    ResAccOptions options;
    options.hybrid.enable = true;
    return std::make_unique<ResAccSolver>(graph, config, options);
  };
}

SolverFactory MakeFora() {
  return [](const Graph& graph, const RwrConfig& config) {
    return std::make_unique<Fora>(graph, config);
  };
}

SolverFactory MakeMonteCarlo() {
  return [](const Graph& graph, const RwrConfig& config) {
    return std::make_unique<MonteCarlo>(graph, config);
  };
}

TEST(GuaranteeConformanceTest, ResAccSatisfiesDefinition1) {
  RunConformance(MakeResAcc(), MakeGraphs());
}

TEST(GuaranteeConformanceTest, ForaSatisfiesDefinition1) {
  RunConformance(MakeFora(), MakeGraphs());
}

// Hub-heavy suite (PR 10): plain ResAcc must keep the guarantee on hub
// sources (via the floored adaptive cap), and hybrid ResAcc must keep it
// while actually switching those sources to the dense path.
TEST(GuaranteeConformanceTest, ResAccSatisfiesDefinition1OnHubGraphs) {
  RunConformance(MakeResAcc(), MakeHubGraphs());
}

TEST(GuaranteeConformanceTest, HybridResAccSatisfiesDefinition1OnHubGraphs) {
  RunConformance(MakeHybridResAcc(), MakeHubGraphs());
}

TEST(GuaranteeConformanceTest, MonteCarloSatisfiesDefinition1) {
  RunConformance(MakeMonteCarlo(), MakeGraphs());
}

// The always-on slice: plain ResAcc on the Chung-Lu conformance graph
// and hybrid ResAcc on the star, whose source 0 is the hub and goes dense,
// held to the same p_f + 3 sigma budget as the nightly runs.
TEST(GuaranteeConformanceSliceTest, ResAccOnChungLu) {
  std::vector<ConformanceGraph> graphs = MakeGraphs();
  graphs.resize(1);
  ASSERT_EQ(graphs[0].name, "chung-lu");
  RunConformance(MakeResAcc(), graphs, kSliceTrials, /*nightly_only=*/false);
}

// Plain ResAcc on the churned Chung-Lu graph: a live graph's snapshot
// keeps the guarantee in every run, not only in the nightly suite.
TEST(GuaranteeConformanceSliceTest, ResAccOnChurnedChungLu) {
  std::vector<ConformanceGraph> graphs = MakeMutatedGraphs();
  graphs.resize(1);
  ASSERT_EQ(graphs[0].name, "chung-lu+churn");
  RunConformance(MakeResAcc(), graphs, kSliceTrials, /*nightly_only=*/false);
}

TEST(GuaranteeConformanceSliceTest, HybridResAccOnStarHub) {
  std::vector<ConformanceGraph> graphs = MakeHubGraphs();
  graphs.resize(1);
  ASSERT_EQ(graphs[0].name, "star");
  RunConformance(MakeHybridResAcc(), graphs, kSliceTrials,
                 /*nightly_only=*/false);
}

// Top-k precision under Definition 1 (PR 8): with every relative error
// bounded by epsilon above delta, a node can legitimately displace the
// true k-th node only if pi(v) >= pi(k-th) * (1 - eps) / (1 + eps). A
// returned node below that admissible threshold is a violation, held to
// the same binomial budget as the pointwise check. Certified results
// (ResAcc's separation certificates) additionally claim the *exact*
// top-k, so they are audited without the epsilon slack.
void RunTopKConformance(const SolverFactory& factory,
                        const std::vector<ConformanceGraph>& graphs) {
  if (GetEnvString("RESACC_CONFORMANCE", "").empty()) {
    GTEST_SKIP() << "set RESACC_CONFORMANCE=1 to run the statistical "
                    "conformance suite (nightly CI job)";
  }
  constexpr std::size_t kK = 10;

  for (const ConformanceGraph& entry : graphs) {
    const Graph& graph = entry.graph;
    GroundTruthCache ground_truth(graph, ConformanceConfig(/*seed=*/1));

    std::uint64_t checked_pairs = 0;
    std::uint64_t violations = 0;

    for (int trial = 0; trial < kTrials; ++trial) {
      const NodeId source =
          static_cast<NodeId>((trial * 7) % kSourcesPerGraph);
      const RwrConfig config = ConformanceConfig(
          /*seed=*/0x70b0000ULL + static_cast<std::uint64_t>(trial));
      std::unique_ptr<SsrwrAlgorithm> solver = factory(graph, config);
      const TopKResult result = solver->QueryTopK(source, kK);
      ASSERT_TRUE(result.status.ok());
      ASSERT_EQ(result.entries.size(), kK);

      const std::vector<Score>& exact = ground_truth.Get(source);
      const Score kth_exact = exact[TopKIndices(exact, kK).back()];
      if (kth_exact <= config.delta) continue;  // no guarantee below delta
      const double admissible =
          kth_exact * (1.0 - config.epsilon) / (1.0 + config.epsilon);
      for (const TopKEntry& e : result.entries) {
        ++checked_pairs;
        if (result.certified) {
          // Exact claim: a certified set is a true top-k modulo ties.
          EXPECT_GE(exact[e.node] + 1e-12, kth_exact)
              << entry.name << ": certified entry " << e.node
              << " outside the exact top-" << kK;
        } else if (exact[e.node] < admissible - 1e-12) {
          ++violations;
        }
      }
    }

    ASSERT_GT(checked_pairs, 0u)
        << entry.name << ": delta too large, no trial qualified";
    const double p_f = ConformanceConfig(1).p_f;
    const double fraction =
        static_cast<double>(violations) / static_cast<double>(checked_pairs);
    const double slack = 3.0 * std::sqrt(p_f * (1.0 - p_f) /
                                         static_cast<double>(checked_pairs));
    EXPECT_LE(fraction, p_f + slack)
        << entry.name << ": " << violations << "/" << checked_pairs
        << " returned top-k entries below the admissible threshold";
  }
}

TEST(GuaranteeConformanceTest, ResAccTopKPrecision) {
  RunTopKConformance(MakeResAcc(), MakeGraphs());
}

TEST(GuaranteeConformanceTest, ForaTopKPrecision) {
  RunTopKConformance(MakeFora(), MakeGraphs());
}

TEST(GuaranteeConformanceTest, MonteCarloTopKPrecision) {
  RunTopKConformance(MakeMonteCarlo(), MakeGraphs());
}

// Before trusting the statistical re-check, pin the stronger property the
// dynamic subsystem actually promises: on the churned live snapshot every
// solver is *bit-identical* to a fresh GraphBuilder build of the same
// surviving edge set (so the Definition 1 runs below genuinely re-verify
// the guarantee on the mutated graph, not on some divergent view of it).
TEST(GuaranteeConformanceTest, MutatedGraphsBitIdenticalToFreshLoad) {
  if (GetEnvString("RESACC_CONFORMANCE", "").empty()) {
    GTEST_SKIP() << "set RESACC_CONFORMANCE=1 to run the statistical "
                    "conformance suite (nightly CI job)";
  }
  const SolverFactory factories[] = {MakeResAcc(), MakeFora(),
                                     MakeMonteCarlo()};
  for (const ConformanceGraph& entry : MakeMutatedGraphs()) {
    GraphBuilder builder(entry.graph.num_nodes());
    for (NodeId u = 0; u < entry.graph.num_nodes(); ++u) {
      for (const NodeId v : entry.graph.OutNeighbors(u)) {
        builder.AddEdge(u, v);
      }
    }
    const Graph fresh = std::move(builder).Build();
    ASSERT_EQ(entry.graph.num_edges(), fresh.num_edges()) << entry.name;
    const RwrConfig config = ConformanceConfig(/*seed=*/42);
    for (const SolverFactory& factory : factories) {
      std::unique_ptr<SsrwrAlgorithm> on_live = factory(entry.graph, config);
      std::unique_ptr<SsrwrAlgorithm> on_fresh = factory(fresh, config);
      for (const NodeId source : {NodeId{0}, NodeId{5}}) {
        EXPECT_EQ(on_live->Query(source), on_fresh->Query(source))
            << entry.name << ": " << on_live->name()
            << " diverged at source " << source;
      }
    }
  }
}

TEST(GuaranteeConformanceTest, ResAccSatisfiesDefinition1OnMutatedGraph) {
  RunConformance(MakeResAcc(), MakeMutatedGraphs());
}

TEST(GuaranteeConformanceTest, ForaSatisfiesDefinition1OnMutatedGraph) {
  RunConformance(MakeFora(), MakeMutatedGraphs());
}

TEST(GuaranteeConformanceTest, MonteCarloSatisfiesDefinition1OnMutatedGraph) {
  RunConformance(MakeMonteCarlo(), MakeMutatedGraphs());
}

}  // namespace
}  // namespace resacc
