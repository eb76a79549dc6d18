#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "resacc/algo/bippr.h"
#include "resacc/algo/fora.h"
#include "resacc/algo/fora_plus.h"
#include "resacc/algo/forward_search_solver.h"
#include "resacc/algo/inverse.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/algo/particle_filter.h"
#include "resacc/algo/power.h"
#include "resacc/algo/topppr.h"
#include "resacc/algo/tpa.h"
#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/eval/metrics.h"
#include "resacc/graph/generators.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

RwrConfig SmallConfig(NodeId n, DanglingPolicy policy) {
  RwrConfig config;
  config.alpha = 0.2;
  config.epsilon = 0.5;
  config.delta = 1.0 / static_cast<double>(n);
  config.p_f = 1e-7;
  config.dangling = policy;
  config.seed = 0x600d;
  return config;
}

class PowerVsInverseTest : public ::testing::TestWithParam<DanglingPolicy> {};

TEST_P(PowerVsInverseTest, AgreeOnSmallGraphs) {
  const DanglingPolicy policy = GetParam();
  for (const Graph& g : {testing::Figure1Graph(), testing::Figure3Graph(),
                         ErdosRenyi(80, 400, 2)}) {
    const RwrConfig config = SmallConfig(g.num_nodes(), policy);
    PowerIteration power(g, config, 1e-13);
    ExactInverse inverse(g, config);
    for (NodeId s = 0; s < std::min<NodeId>(g.num_nodes(), 5); ++s) {
      const std::vector<Score> a = power.Query(s);
      const std::vector<Score> b = inverse.Query(s);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_NEAR(a[v], b[v], 1e-10)
            << "s=" << s << " v=" << v << " n=" << g.num_nodes();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PowerVsInverseTest,
                         ::testing::Values(DanglingPolicy::kAbsorb,
                                           DanglingPolicy::kBackToSource));

TEST(PowerTest, IterationCountTracksTolerance) {
  const Graph g = testing::CycleGraph(50);
  const RwrConfig config = SmallConfig(50, DanglingPolicy::kAbsorb);
  PowerIteration loose(g, config, 1e-3);
  PowerIteration tight(g, config, 1e-12);
  loose.Query(0);
  tight.Query(0);
  EXPECT_LT(loose.last_iterations(), tight.last_iterations());
}

// Ground truth and the hybrid dense path run one sweep: PowerIteration
// from s is RunDensePowerIter from the unit impulse r(s) = 1, bit for bit
// and sweep for sweep.
class PowerMatchesDenseSweepTest
    : public ::testing::TestWithParam<DanglingPolicy> {};

TEST_P(PowerMatchesDenseSweepTest, UnitImpulseIsBitIdentical) {
  const DanglingPolicy policy = GetParam();
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    const Graph g = ChungLuPowerLaw(400, 2400, 2.2, seed);
    const RwrConfig config = SmallConfig(g.num_nodes(), policy);
    for (const double tolerance : {1e-3, 1e-9, 1e-12}) {
      PowerIteration power(g, config, tolerance);
      HybridOptions options;
      options.tolerance = tolerance;
      options.max_iterations = 10000;  // PowerIteration's default cap
      for (const NodeId s : {NodeId{0}, NodeId{57}, NodeId{311}}) {
        SCOPED_TRACE(::testing::Message() << "seed=" << seed << " tol="
                                          << tolerance << " s=" << s);
        PushState impulse(g.num_nodes());
        impulse.SetResidue(s, 1.0);
        std::vector<Score> dense(g.num_nodes(), 0.0);
        const PowerIterStats stats =
            RunDensePowerIter(g, config, s, impulse, dense, options);
        const std::vector<Score> scores = power.Query(s);
        EXPECT_EQ(power.last_iterations(), stats.iterations);
        ASSERT_EQ(scores.size(), dense.size());
        for (NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(scores[v]),
                    std::bit_cast<std::uint64_t>(dense[v]))
              << "node " << v;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Policies, PowerMatchesDenseSweepTest,
                         ::testing::Values(DanglingPolicy::kAbsorb,
                                           DanglingPolicy::kBackToSource));

TEST(ForwardSearchSolverTest, TinyThresholdApproachesExact) {
  const Graph g = ErdosRenyi(150, 900, 4);
  const RwrConfig config = SmallConfig(150, DanglingPolicy::kBackToSource);
  ForwardSearchSolver fwd(g, config, /*r_max=*/1e-10);
  PowerIteration power(g, config, 1e-13);
  const std::vector<Score> estimate = fwd.Query(0);
  const std::vector<Score> exact = power.Query(0);
  EXPECT_LT(MeanAbsError(estimate, exact), 1e-7);
  EXPECT_GT(fwd.last_push_stats().push_operations, 0u);
}

class GuaranteedAlgoTest
    : public ::testing::TestWithParam<std::tuple<int, DanglingPolicy>> {};

// Every output-bounded algorithm must meet the Definition 1 guarantee.
TEST_P(GuaranteedAlgoTest, MeetsRelativeError) {
  const auto [algo_id, policy] = GetParam();
  const Graph g = ChungLuPowerLaw(300, 1800, 2.2, 6);
  const RwrConfig config = SmallConfig(g.num_nodes(), policy);

  std::unique_ptr<SsrwrAlgorithm> algo;
  switch (algo_id) {
    case 0:
      algo = std::make_unique<MonteCarlo>(g, config);
      break;
    case 1:
      algo = std::make_unique<Fora>(g, config);
      break;
    case 2: {
      if (policy == DanglingPolicy::kBackToSource) GTEST_SKIP();
      auto fora_plus = std::make_unique<ForaPlus>(g, config);
      ASSERT_TRUE(fora_plus->BuildIndex().ok());
      algo = std::move(fora_plus);
      break;
    }
  }

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = algo->Query(source);

  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);
  EXPECT_LE(MaxRelativeErrorAboveDelta(estimate, exact, config.delta),
            config.epsilon)
      << algo->name();
}

INSTANTIATE_TEST_SUITE_P(
    Algos, GuaranteedAlgoTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(DanglingPolicy::kAbsorb,
                                         DanglingPolicy::kBackToSource)));

TEST(ForaPlusTest, RefusesBackToSourceWithSinks) {
  const Graph g = testing::Figure1Graph();  // has a sink
  const RwrConfig config = SmallConfig(4, DanglingPolicy::kBackToSource);
  ForaPlus fora_plus(g, config);
  const Status status = fora_plus.BuildIndex();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(ForaPlusTest, MemoryBudgetEnforced) {
  const Graph g = ErdosRenyi(300, 1800, 7);
  const RwrConfig config = SmallConfig(300, DanglingPolicy::kAbsorb);
  ForaPlusOptions options;
  options.memory_budget_bytes = 16;  // absurdly small
  ForaPlus fora_plus(g, config, options);
  const Status status = fora_plus.BuildIndex();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(fora_plus.IndexReady());
}

TEST(ForaPlusTest, IndexBytesReported) {
  const Graph g = ErdosRenyi(200, 1200, 8);
  const RwrConfig config = SmallConfig(200, DanglingPolicy::kAbsorb);
  ForaPlus fora_plus(g, config);
  ASSERT_TRUE(fora_plus.BuildIndex().ok());
  EXPECT_GT(fora_plus.IndexBytes(), 0u);
  EXPECT_GT(fora_plus.index_walks(), 0u);
}

TEST(ForaTest, TimeBudgetDegradesGracefully) {
  const Graph g = ChungLuPowerLaw(500, 3000, 2.2, 9);
  RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  ForaOptions options;
  options.time_budget_seconds = 1e-9;
  Fora fora(g, config, options);
  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> scores = fora.Query(source);
  EXPECT_TRUE(fora.last_stats().budget_exhausted);
  // Reserves are still reported even though walks were cut off.
  Score total = 0.0;
  for (Score s : scores) total += s;
  EXPECT_GT(total, 0.0);
  EXPECT_LT(total, 1.0);
}

TEST(TpaTest, NearFieldPlusPageRankTail) {
  const Graph g = ChungLuPowerLaw(300, 2400, 2.3, 10);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  TpaOptions options;
  options.near_hops = 20;
  Tpa tpa(g, config, options);
  ASSERT_TRUE(tpa.BuildIndex().ok());
  EXPECT_EQ(tpa.IndexBytes(), g.num_nodes() * sizeof(Score));

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = tpa.Query(source);
  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);

  // Additive error bounded by the tail mass (1-alpha)^near_hops spread
  // over the PageRank distribution (plus what PageRank gets right).
  const double tail = std::pow(1.0 - config.alpha, options.near_hops);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_LE(std::fabs(estimate[v] - exact[v]), tail + 1e-9);
  }
  // Ranking of top nodes is still good (near field dominates).
  EXPECT_GT(NdcgAtK(estimate, exact, 10), 0.99);
}

TEST(TopPprTest, TopKPrecisionHigh) {
  const Graph g = ChungLuPowerLaw(400, 2800, 2.2, 11);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  TopPprOptions options;
  options.top_k = 50;
  TopPpr topppr(g, config, options);
  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = topppr.Query(source);
  EXPECT_EQ(topppr.last_top_k().size(), 50u);

  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);
  EXPECT_GE(PrecisionAtK(estimate, exact, 50), 0.9);
  EXPECT_GT(NdcgAtK(estimate, exact, 50), 0.98);
}

TEST(ParticleFilterTest, ApproximatesTopScores) {
  const Graph g = ChungLuPowerLaw(300, 2100, 2.2, 12);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  ParticleFilterOptions options;
  options.w_min = 10.0;  // fine granularity for a small graph
  ParticleFilter pf(g, config, options);
  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> estimate = pf.Query(source);

  PowerIteration power(g, config, 1e-12);
  const std::vector<Score> exact = power.Query(source);
  // PF is biased low (dropped remainders) but must track the big scores.
  Score total = 0.0;
  for (Score s : estimate) total += s;
  EXPECT_LE(total, 1.0 + 1e-9);
  EXPECT_GT(total, 0.5);
  EXPECT_GT(NdcgAtK(estimate, exact, 10), 0.95);
}

TEST(ParticleFilterTest, LargerWMinLosesMoreMass) {
  const Graph g = ChungLuPowerLaw(300, 2100, 2.2, 12);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  auto mass_with_wmin = [&](double w_min) {
    ParticleFilterOptions options;
    options.w_min = w_min;
    ParticleFilter pf(g, config, options);
    const std::vector<Score> estimate = pf.Query(0);
    Score total = 0.0;
    for (Score s : estimate) total += s;
    return total;
  };
  // The paper: "The larger the w_min, the larger the error."
  EXPECT_GE(mass_with_wmin(5.0), mass_with_wmin(5000.0));
}

TEST(BiPprTest, PairEstimatesMatchExact) {
  const Graph g = ChungLuPowerLaw(200, 1400, 2.2, 13);
  const RwrConfig config = SmallConfig(g.num_nodes(), DanglingPolicy::kAbsorb);
  BiPpr bippr(g, config);
  ExactInverse oracle(g, config);

  NodeId source = 0;
  while (g.OutDegree(source) == 0) ++source;
  const std::vector<Score> exact = oracle.Query(source);
  for (NodeId target = 0; target < 20; ++target) {
    const Score estimate = bippr.EstimatePair(source, target);
    if (exact[target] > config.delta) {
      EXPECT_LE(std::fabs(estimate - exact[target]) / exact[target],
                config.epsilon)
          << "target " << target;
    } else {
      EXPECT_NEAR(estimate, exact[target], 5.0 * config.delta);
    }
  }
}

TEST(MonteCarloTest, WalkScaleControlsCost) {
  const Graph g = ErdosRenyi(100, 600, 14);
  const RwrConfig config = SmallConfig(100, DanglingPolicy::kAbsorb);
  MonteCarlo cheap(g, config, /*walk_scale=*/0.01);
  MonteCarlo full(g, config, /*walk_scale=*/1.0);
  cheap.Query(0);
  const std::uint64_t cheap_walks = cheap.last_walk_stats().walks;
  full.Query(0);
  EXPECT_LT(cheap_walks, full.last_walk_stats().walks / 50);
}

}  // namespace
}  // namespace resacc
