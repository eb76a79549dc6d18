// Tests of the benchmark's own pieces: op-stream determinism, the order
// statistics, and that tracing neither changes answers nor loses time.
#include <gtest/gtest.h>

#include <vector>

#include "ledger.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/graph/generators.h"

namespace ledger {
namespace {

TEST(LedgerStats, QuantileInterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.25), 2.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.9), 4.6);
  EXPECT_DOUBLE_EQ(Quantile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(Quantile({7}, 0.9), 7.0);
  EXPECT_DOUBLE_EQ(Quantile({}, 0.5), 0.0);
}

TEST(LedgerStats, SummarizeGivesQuartilesAndHarmonicMean) {
  const Distribution d = Summarize({1, 2, 4, 4});
  EXPECT_EQ(d.count, 4u);
  EXPECT_DOUBLE_EQ(d.min, 1.0);
  EXPECT_DOUBLE_EQ(d.q1, 1.75);
  EXPECT_DOUBLE_EQ(d.median, 3.0);
  EXPECT_DOUBLE_EQ(d.q3, 4.0);
  EXPECT_DOUBLE_EQ(d.max, 4.0);
  EXPECT_DOUBLE_EQ(d.harmonic_mean, 4.0 / (1 + 0.5 + 0.25 + 0.25));
}

TEST(LedgerStream, SameSeedSameHashOtherSeedOtherHash) {
  const Graph graph = resacc::ChungLuPowerLaw(2000, 20000, 2.1, 3);
  for (const WorkloadDef& w : AllWorkloads()) {
    SCOPED_TRACE(w.name);
    EXPECT_EQ(StreamHash(w, graph, 11, 500), StreamHash(w, graph, 11, 500));
    EXPECT_NE(StreamHash(w, graph, 11, 500), StreamHash(w, graph, 12, 500));
  }
}

TEST(LedgerStream, SparseUniformSourcesAreDistinct) {
  const Graph graph = resacc::ChungLuPowerLaw(2000, 20000, 2.1, 3);
  OpStream stream(*FindWorkload("sparse-uniform"), graph, 5);
  std::vector<bool> seen(graph.num_nodes(), false);
  // 31 full blocks of 64: every stratum of 2000 / 64 nodes still has room.
  for (NodeId i = 0; i < 31 * 64; ++i) {
    const NodeId s = stream.Next().source;
    ASSERT_FALSE(seen[s]) << "repeat at op " << i;
    seen[s] = true;
  }
}

TEST(LedgerStream, ZipfMixHasAllThreeClasses) {
  const Graph graph = resacc::ChungLuPowerLaw(2000, 20000, 2.1, 3);
  OpStream stream(*FindWorkload("zipf-topk-churn"), graph, 5);
  std::size_t counts[resacc::kNumOpClasses] = {};
  for (int i = 0; i < 4000; ++i) ++counts[static_cast<int>(stream.Next().cls)];
  EXPECT_EQ(counts[0], 1000u);  // full
  EXPECT_EQ(counts[1], 2800u);  // topk
  EXPECT_EQ(counts[4], 200u);   // mutation
}

class LedgerTrace : public ::testing::Test {
 protected:
  LedgerTrace() : graph_(resacc::ChungLuPowerLaw(20000, 200000, 2.1, 9)) {}
  Graph graph_;
};

TEST_F(LedgerTrace, TracedSolveIsBitIdenticalToUntraced) {
  const resacc::RwrConfig config = MakeConfig(graph_);
  const resacc::ResAccOptions options =
      MakeOptions(*FindWorkload("sparse-uniform"));
  SpanLog log;
  PhaseTracer tracer(&log);
  resacc::ResAccOptions traced_options = options;
  traced_options.phase_hook = tracer.Hook();
  resacc::ResAccSolver plain(graph_, config, options);
  resacc::ResAccSolver traced(graph_, config, traced_options);
  for (NodeId source : {NodeId{0}, NodeId{17}, NodeId{4242}}) {
    tracer.BeginQuery(source);
    const std::vector<resacc::Score> with_spans = traced.Query(source);
    tracer.EndQuery();
    EXPECT_EQ(with_spans, plain.Query(source)) << source;
  }
  EXPECT_GT(log.spans().size(), 3u);
}

TEST_F(LedgerTrace, PhaseSelfTimesSumToSolverTotal) {
  const resacc::RwrConfig config = MakeConfig(graph_);
  SpanLog log;
  PhaseTracer tracer(&log);
  resacc::ResAccOptions options = MakeOptions(*FindWorkload("sparse-uniform"));
  options.phase_hook = tracer.Hook();
  resacc::ResAccSolver solver(graph_, config, options);
  double solver_total = 0.0;
  // Node 0 has the generator's largest degree weight; the rest are tails.
  for (NodeId source : {NodeId{0}, NodeId{101}, NodeId{5000}, NodeId{19999}}) {
    tracer.BeginQuery(source);
    solver.Query(source);
    tracer.EndQuery();
    solver_total += solver.last_stats().total_seconds;
  }
  const PhaseSeconds phases = PhaseSelfSeconds(log);
  EXPECT_GT(phases.hhop, 0.0);
  EXPECT_NEAR(phases.Sum() / solver_total, 1.0, 0.05);
  // Phase spans are children of their query span, so its self time is
  // only the solver's own set-up and return.
  EXPECT_NEAR(log.TotalSeconds("query"),
              log.SelfSeconds("query") + phases.Sum(), 1e-9);
}

}  // namespace
}  // namespace ledger
