// Cancellation/deadline coverage (PR 4 tentpole): the token itself, a
// cancel landing inside each solver phase, honesty of the degraded
// accuracy tag against ground truth, phase-metric consistency after an
// abort, and the serving layer's Cancel()/allow_degraded paths — including
// the acceptance criterion that a 10ms deadline on a sub-second solve
// returns in a small fraction of the full solve time.

#include <chrono>
#include <cmath>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "resacc/algo/fora.h"
#include "resacc/algo/monte_carlo.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/core/topk.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/generators.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/cancellation.h"
#include "resacc/util/timer.h"
#include "tests/test_graphs.h"

namespace resacc {
namespace {

RwrConfig TestConfig(const Graph& graph) {
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;
  return config;
}

// --- CancellationToken ----------------------------------------------------

TEST(CancellationTokenTest, DefaultNeverStops) {
  CancellationToken token;
  EXPECT_FALSE(token.ShouldStop());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_TRUE(token.StopStatus().ok());
  EXPECT_FALSE(ShouldStop(static_cast<const CancellationToken*>(nullptr)));
}

TEST(CancellationTokenTest, CancelFiresWithCancelledStatus) {
  CancellationToken token;
  token.Cancel();
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, ExpiredDeadlineFiresWithDeadlineStatus) {
  CancellationToken token;
  token.SetDeadlineAt(CancellationToken::Clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(token.has_deadline());
  EXPECT_TRUE(token.ShouldStop());
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTokenTest, FutureDeadlineDoesNotFireEarly) {
  CancellationToken token = CancellationToken::WithDeadline(60.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.ShouldStop());
}

TEST(CancellationTokenTest, CancelWinsOverDeadline) {
  CancellationToken token;
  token.SetDeadlineAt(CancellationToken::Clock::now() -
                      std::chrono::milliseconds(1));
  token.Cancel();
  EXPECT_EQ(token.StopStatus().code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, CopiesShareState) {
  CancellationToken token;
  CancellationToken copy = token;
  token.Cancel();
  EXPECT_TRUE(copy.ShouldStop());
}

// --- Cancelling inside each ResAcc phase ----------------------------------

struct PhaseCancelOutcome {
  ControlledQueryResult result;
  TopKResult topk;  // filled by top-k queries only
  // Phase-histogram count deltas observed across the query.
  std::uint64_t hhop_delta = 0;
  std::uint64_t omfwd_delta = 0;
  std::uint64_t remedy_delta = 0;
  std::uint64_t dense_delta = 0;
  std::uint64_t queries_delta = 0;
  std::uint64_t degraded_delta = 0;
  std::uint64_t cancelled_delta = 0;
  std::uint64_t query_hist_delta = 0;
  std::uint64_t topk_queries_delta = 0;
  std::uint64_t topk_certified_delta = 0;
  std::uint64_t topk_fallback_delta = 0;
};

// Runs one query that cancels itself at the start of `phase` (via the
// phase_hook, so the cancel lands deterministically inside the pipeline
// rather than racing a timer) and captures the solver-metric deltas.
// `top_k` > 0 runs QueryTopK instead of QueryControlled.
PhaseCancelOutcome CancelAtPhase(const Graph& graph, const RwrConfig& config,
                                 NodeId source, const std::string& phase,
                                 std::size_t top_k = 0) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& queries = registry.GetCounter("resacc_solver_queries_total", "");
  Counter& degraded =
      registry.GetCounter("resacc_solver_queries_degraded_total", "");
  Counter& cancelled =
      registry.GetCounter("resacc_solver_queries_cancelled_total", "");
  LatencyHistogram& hhop =
      registry.GetHistogram("resacc_solver_phase_seconds", "phase=\"hhop\"");
  LatencyHistogram& omfwd =
      registry.GetHistogram("resacc_solver_phase_seconds", "phase=\"omfwd\"");
  LatencyHistogram& remedy =
      registry.GetHistogram("resacc_solver_phase_seconds", "phase=\"remedy\"");
  LatencyHistogram& dense =
      registry.GetHistogram("resacc_solver_phase_seconds", "phase=\"dense\"");
  LatencyHistogram& total =
      registry.GetHistogram("resacc_solver_query_seconds", "");
  Counter& topk_queries = registry.GetCounter("resacc_topk_queries_total", "");
  Counter& topk_certified =
      registry.GetCounter("resacc_topk_certified_total", "");
  Counter& topk_fallback =
      registry.GetCounter("resacc_topk_fallback_total", "");

  const std::uint64_t queries0 = queries.Value();
  const std::uint64_t degraded0 = degraded.Value();
  const std::uint64_t cancelled0 = cancelled.Value();
  const std::uint64_t hhop0 = hhop.count();
  const std::uint64_t omfwd0 = omfwd.count();
  const std::uint64_t remedy0 = remedy.count();
  const std::uint64_t dense0 = dense.count();
  const std::uint64_t total0 = total.count();
  const std::uint64_t topk_queries0 = topk_queries.Value();
  const std::uint64_t topk_certified0 = topk_certified.Value();
  const std::uint64_t topk_fallback0 = topk_fallback.Value();

  CancellationToken token;
  ResAccOptions options;
  options.phase_hook = [&token, phase](const char* name) {
    if (phase == name) token.Cancel();
  };
  ResAccSolver solver(graph, config, options);
  QueryControl control;
  control.cancel = &token;

  PhaseCancelOutcome outcome;
  if (top_k > 0) {
    outcome.topk = solver.QueryTopK(source, top_k, control);
  } else {
    outcome.result = solver.QueryControlled(source, control);
  }
  outcome.queries_delta = queries.Value() - queries0;
  outcome.degraded_delta = degraded.Value() - degraded0;
  outcome.cancelled_delta = cancelled.Value() - cancelled0;
  outcome.hhop_delta = hhop.count() - hhop0;
  outcome.omfwd_delta = omfwd.count() - omfwd0;
  outcome.remedy_delta = remedy.count() - remedy0;
  outcome.dense_delta = dense.count() - dense0;
  outcome.query_hist_delta = total.count() - total0;
  outcome.topk_queries_delta = topk_queries.Value() - topk_queries0;
  outcome.topk_certified_delta = topk_certified.Value() - topk_certified0;
  outcome.topk_fallback_delta = topk_fallback.Value() - topk_fallback0;
  return outcome;
}

class PhaseCancelTest : public ::testing::TestWithParam<const char*> {};

TEST_P(PhaseCancelTest, PartialResultIsHonestAndMetricsStayConsistent) {
  const Graph graph = ChungLuPowerLaw(400, 2400, 2.5, /*seed=*/11);
  const RwrConfig config = TestConfig(graph);
  const NodeId source = 3;
  const std::string phase = GetParam();

  const PhaseCancelOutcome outcome =
      CancelAtPhase(graph, config, source, phase);
  const ControlledQueryResult& result = outcome.result;

  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.uncorrected_mass, 0.0);
  EXPECT_GT(result.achieved_epsilon, config.epsilon);
  EXPECT_NEAR(result.achieved_epsilon,
              config.epsilon + result.uncorrected_mass / config.delta,
              1e-12);
  ASSERT_EQ(result.scores.size(),
            static_cast<std::size_t>(graph.num_nodes()));

  // Honesty, deterministically: a cancel at a phase *start* leaves pure
  // reserves (no walk noise), and the push invariant pi(v) = reserve(v) +
  // sum_u r(u) pi_u(v) bounds the undershoot of every node by the
  // remaining residue mass — which is exactly uncorrected_mass.
  GroundTruthCache ground_truth(graph, config);
  const std::vector<Score>& exact = ground_truth.Get(source);
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    EXPECT_LE(result.scores[v], exact[v] + 1e-9) << "node " << v;
    EXPECT_LE(exact[v] - result.scores[v], result.uncorrected_mass + 1e-9)
        << "node " << v;
  }
  // And the advertised (much weaker) relative bound a fortiori.
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    if (exact[v] > config.delta) {
      EXPECT_LE(std::abs(result.scores[v] - exact[v]),
                result.achieved_epsilon * exact[v] + 1e-9)
          << "node " << v;
    }
  }

  // Metric consistency after the abort: the query is counted exactly once
  // (queries_total + the end-to-end histogram), the cancel is counted, and
  // each phase histogram recorded iff its phase started.
  EXPECT_EQ(outcome.queries_delta, 1u);
  EXPECT_EQ(outcome.query_hist_delta, 1u);
  EXPECT_EQ(outcome.cancelled_delta, 1u);
  EXPECT_EQ(outcome.degraded_delta, 1u);
  EXPECT_EQ(outcome.hhop_delta, 1u);  // hhop always starts
  EXPECT_EQ(outcome.omfwd_delta, phase == "hhop" ? 0u : 1u);
  EXPECT_EQ(outcome.remedy_delta, phase == "remedy" ? 1u : 0u);
  EXPECT_EQ(outcome.dense_delta, 0u);
  EXPECT_EQ(outcome.topk_queries_delta, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPhases, PhaseCancelTest,
                         ::testing::Values("hhop", "omfwd", "remedy"));

// The same cancel landing inside each phase of a top-k query. A top-k
// query is counted in the solver's series like a full one (query,
// degraded and cancelled counters and the query histogram, once each)
// and in resacc_topk_queries_total; the remedy and dense histograms stay
// untouched because neither phase started.
class TopKPhaseCancelTest : public PhaseCancelTest {};

TEST_P(TopKPhaseCancelTest, PartialBracketIsHonestAndMetricsStayConsistent) {
  const Graph graph = ChungLuPowerLaw(400, 2400, 2.5, /*seed=*/11);
  const RwrConfig config = TestConfig(graph);
  const NodeId source = 3;
  const std::size_t k = 10;
  const std::string phase = GetParam();

  const PhaseCancelOutcome outcome =
      CancelAtPhase(graph, config, source, phase, k);
  const TopKResult& result = outcome.topk;

  EXPECT_EQ(result.status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(result.certified);
  EXPECT_TRUE(result.degraded);
  EXPECT_GT(result.uncorrected_mass, 0.0);
  EXPECT_EQ(result.achieved_epsilon,
            config.epsilon + result.uncorrected_mass / config.delta);
  ASSERT_EQ(result.entries.size(), k);

  // The bracket of every entry holds against ground truth: a cancel at a
  // phase start leaves pure reserves, so lower = reserve <= pi and
  // pi <= reserve + r_sum = upper.
  GroundTruthCache ground_truth(graph, config);
  const std::vector<Score>& exact = ground_truth.Get(source);
  for (const TopKEntry& entry : result.entries) {
    EXPECT_LE(entry.lower, exact[entry.node] + 1e-9) << "node " << entry.node;
    EXPECT_GE(entry.upper, exact[entry.node] - 1e-9) << "node " << entry.node;
  }

  EXPECT_EQ(outcome.hhop_delta, 1u);
  EXPECT_EQ(outcome.omfwd_delta, phase == "hhop" ? 0u : 1u);
  EXPECT_EQ(outcome.remedy_delta, 0u);
  EXPECT_EQ(outcome.dense_delta, 0u);
  EXPECT_EQ(outcome.queries_delta, 1u);
  EXPECT_EQ(outcome.query_hist_delta, 1u);
  EXPECT_EQ(outcome.degraded_delta, 1u);
  EXPECT_EQ(outcome.cancelled_delta, 1u);
  EXPECT_EQ(outcome.topk_queries_delta, 1u);
  EXPECT_EQ(outcome.topk_certified_delta, 0u);
  EXPECT_EQ(outcome.topk_fallback_delta, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPhases, TopKPhaseCancelTest,
                         ::testing::Values("hhop", "omfwd", "topk"));

TEST(SolverCancelTest, DeadOnArrivalDeadlineReturnsZeroEstimate) {
  const Graph graph = testing::Figure1Graph();
  const RwrConfig config = TestConfig(graph);
  ResAccSolver solver(graph, config, ResAccOptions{});

  CancellationToken token;
  token.SetDeadlineAt(CancellationToken::Clock::now() -
                      std::chrono::milliseconds(1));
  QueryControl control;
  control.cancel = &token;
  const ControlledQueryResult result = solver.QueryControlled(0, control);

  EXPECT_EQ(result.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(result.degraded);
  EXPECT_DOUBLE_EQ(result.uncorrected_mass, 1.0);
  ASSERT_EQ(result.scores.size(),
            static_cast<std::size_t>(graph.num_nodes()));
  for (Score s : result.scores) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(SolverCancelTest, UncancelledControlledQueryMatchesQuery) {
  const Graph graph = ChungLuPowerLaw(200, 1000, 2.5, /*seed=*/3);
  const RwrConfig config = TestConfig(graph);
  ResAccSolver a(graph, config, ResAccOptions{});
  ResAccSolver b(graph, config, ResAccOptions{});

  CancellationToken token = CancellationToken::WithDeadline(3600.0);
  QueryControl control;
  control.cancel = &token;
  const ControlledQueryResult controlled = a.QueryControlled(5, control);
  const std::vector<Score> plain = b.Query(5);

  EXPECT_TRUE(controlled.status.ok());
  EXPECT_FALSE(controlled.degraded);
  EXPECT_DOUBLE_EQ(controlled.achieved_epsilon, config.epsilon);
  ASSERT_EQ(controlled.scores.size(), plain.size());
  for (NodeId v = 0; v < plain.size(); ++v) {
    EXPECT_DOUBLE_EQ(controlled.scores[v], plain[v]) << "node " << v;
  }
}

TEST(SolverCancelTest, ForaAndMonteCarloReportHonestPartialResults) {
  const Graph graph = ChungLuPowerLaw(300, 1500, 2.5, /*seed=*/5);
  const RwrConfig config = TestConfig(graph);

  CancellationToken token;
  token.Cancel();
  QueryControl control;
  control.cancel = &token;

  Fora fora(graph, config);
  const ControlledQueryResult fora_result = fora.QueryControlled(2, control);
  EXPECT_EQ(fora_result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(fora_result.degraded);
  EXPECT_GT(fora_result.uncorrected_mass, 0.0);
  EXPECT_NEAR(fora_result.achieved_epsilon,
              config.epsilon + fora_result.uncorrected_mass / config.delta,
              1e-12);

  MonteCarlo mc(graph, config);
  const ControlledQueryResult mc_result = mc.QueryControlled(2, control);
  EXPECT_EQ(mc_result.status.code(), StatusCode::kCancelled);
  EXPECT_TRUE(mc_result.degraded);
  // MC skipped everything: the whole unit of walk mass is uncorrected.
  EXPECT_NEAR(mc_result.uncorrected_mass, 1.0, 1e-9);
}

// --- Serving layer --------------------------------------------------------

// A tight configuration: delta ~ 1e-5 makes the remedy phase the long
// one. Raised further by kSlowWalkScale where a test needs a full solve
// far longer than a 10ms deadline.
RwrConfig SlowConfig(const Graph& graph) {
  RwrConfig config = TestConfig(graph);
  config.delta = 1e-5;
  config.p_f = 1e-5;
  return config;
}
constexpr double kSlowWalkScale = 8.0;

// A ResAcc phase hook that holds the worker at the start of `phase` until
// `*release_at` has passed, so a deadline set before that instant fires
// inside the phase on any machine instead of racing the solve.
std::function<void(const char*)> HoldAtPhase(
    const std::string& phase,
    const CancellationToken::Clock::time_point* release_at) {
  return [phase, release_at](const char* name) {
    if (phase == name) std::this_thread::sleep_until(*release_at);
  };
}

TEST(ServeCancelTest, DeadlineMidComputeReturnsFastWithoutBlockingWorker) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.5, /*seed=*/17);
  const RwrConfig config = SlowConfig(graph);
  ResAccOptions solver;
  solver.walk_scale = kSlowWalkScale;

  // Baseline: how long the full solve takes (also warms nothing — the
  // service below uses its own solver instance).
  ResAccSolver reference(graph, config, solver);
  Timer full_timer;
  reference.Query(7);
  const double full_seconds = full_timer.ElapsedSeconds();
  ASSERT_GT(full_seconds, 0.05) << "solve too fast to observe a cancel";

  // Set just before the deadline query is submitted; the queue hand-off
  // orders that write before the worker's read. Later queries find it in
  // the past and are not held.
  CancellationToken::Clock::time_point release_at{};
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;  // no accidental hits
  options.solver = solver;
  options.solver.phase_hook = HoldAtPhase("remedy", &release_at);
  QueryService service(graph, config, options);

  QueryRequest request;
  request.source = 7;
  request.deadline_seconds = 0.010;
  release_at = CancellationToken::Clock::now() + std::chrono::milliseconds(15);
  Timer cancel_timer;
  const QueryResponse response = service.Query(request);
  const double cancel_seconds = cancel_timer.ElapsedSeconds();

  EXPECT_EQ(response.status.code(), StatusCode::kDeadlineExceeded);
  // The walk engine polls the token every block, so the return should be
  // the hold + a block or two — far below the full solve. Generous slack
  // for slow CI, but still a small fraction of the full solve.
  EXPECT_LT(cancel_seconds, 0.5 * full_seconds);
  EXPECT_LT(cancel_seconds, 0.25);

  // The worker is free again: a fresh no-deadline query completes OK.
  QueryRequest follow_up;
  follow_up.source = 9;
  const QueryResponse ok_response = service.Query(follow_up);
  EXPECT_TRUE(ok_response.status.ok());
  EXPECT_FALSE(ok_response.degraded);

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 1u);
  // The latency split surfaced: both jobs were dequeued (queue_wait), and
  // at least the follow-up reached the solver (the deadline job computes
  // too unless a slow machine let the 10ms elapse before dequeue).
  EXPECT_EQ(stats.queue_wait.count, 2u);
  EXPECT_GE(stats.compute.count, 1u);
}

TEST(ServeCancelTest, AllowDegradedTurnsDeadlineIntoHonestPartialResult) {
  const Graph graph = ChungLuPowerLaw(500, 3000, 2.5, /*seed=*/17);
  const RwrConfig config = SlowConfig(graph);

  // The top-k query is held at the start of its bound-driven top-k phase
  // until its deadline has passed (see the test above for release_at).
  CancellationToken::Clock::time_point release_at{};
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 64 << 20;
  options.solver.phase_hook = HoldAtPhase("topk", &release_at);
  QueryService service(graph, config, options);

  QueryRequest request;
  request.source = 7;
  request.top_k = 5;
  request.deadline_seconds = 0.010;
  request.allow_degraded = true;
  release_at = CancellationToken::Clock::now() + std::chrono::milliseconds(15);
  const QueryResponse response = service.Query(request);

  EXPECT_TRUE(response.status.ok());
  EXPECT_TRUE(response.degraded);
  // Top-k mode: the partial solve is salvaged as an approximate top-k
  // payload (wide epsilon brackets, never a certificate), no full vector.
  EXPECT_EQ(response.scores, nullptr);
  ASSERT_NE(response.topk, nullptr);
  EXPECT_FALSE(response.topk->certified);
  EXPECT_TRUE(response.topk->degraded);
  EXPECT_GT(response.uncorrected_mass, 0.0);
  EXPECT_GT(response.achieved_epsilon, config.epsilon);
  EXPECT_EQ(response.topk->entries.size(), 5u);

  // Degraded results must never be served from the cache: the same query
  // without a deadline computes fresh and comes back complete.
  QueryRequest retry;
  retry.source = 7;
  const QueryResponse full = service.Query(retry);
  EXPECT_TRUE(full.status.ok());
  EXPECT_FALSE(full.degraded);
  EXPECT_FALSE(full.cache_hit);

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.degraded, 1u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.expired, 0u);
}

TEST(ServeCancelTest, CancelWhileQueuedResolvesOnlyThatRequest) {
  const Graph graph = ChungLuPowerLaw(200, 1000, 2.5, /*seed=*/9);
  const RwrConfig config = TestConfig(graph);

  // One worker held hostage on source 0 keeps source 1 queued while we
  // cancel it — no timing races.
  std::promise<void> arrived;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;
  options.dequeue_hook = [&arrived, release_future](NodeId source) {
    if (source == 0) {
      arrived.set_value();
      release_future.wait();
    }
  };
  QueryService service(graph, config, options);

  QueryRequest blocker;
  blocker.source = 0;
  std::future<QueryResponse> blocked = service.Submit(blocker);
  arrived.get_future().wait();

  QueryRequest queued;
  queued.source = 1;
  queued.request_id = 42;
  std::future<QueryResponse> cancelled = service.Submit(queued);

  EXPECT_TRUE(service.Cancel(42));
  EXPECT_FALSE(service.Cancel(42));  // already gone
  EXPECT_FALSE(service.Cancel(777));  // never registered

  // Resolves promptly even though the worker is still held.
  ASSERT_EQ(cancelled.wait_for(std::chrono::seconds(5)),
            std::future_status::ready);
  const QueryResponse response = cancelled.get();
  EXPECT_EQ(response.status.code(), StatusCode::kCancelled);

  release.set_value();
  EXPECT_TRUE(blocked.get().status.ok());

  const ServerStats stats = service.Snapshot();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ServeCancelTest, CancellingOneCoalescedWaiterKeepsTheOthersRunning) {
  const Graph graph = ChungLuPowerLaw(200, 1000, 2.5, /*seed=*/9);
  const RwrConfig config = TestConfig(graph);

  std::promise<void> arrived;
  std::promise<void> release;
  std::shared_future<void> release_future = release.get_future().share();
  ServeOptions options;
  options.num_workers = 1;
  options.cache_bytes = 0;
  options.coalesce = true;
  options.dequeue_hook = [&arrived, release_future](NodeId source) {
    if (source == 0) {
      arrived.set_value();
      release_future.wait();
    }
  };
  QueryService service(graph, config, options);

  QueryRequest blocker;
  blocker.source = 0;
  std::future<QueryResponse> blocked = service.Submit(blocker);
  arrived.get_future().wait();

  // Two requests coalesce onto one queued job for source 1; cancel one.
  QueryRequest a;
  a.source = 1;
  a.request_id = 1001;
  QueryRequest b;
  b.source = 1;
  b.request_id = 1002;
  std::future<QueryResponse> future_a = service.Submit(a);
  std::future<QueryResponse> future_b = service.Submit(b);

  EXPECT_TRUE(service.Cancel(1001));
  EXPECT_EQ(future_a.get().status.code(), StatusCode::kCancelled);

  release.set_value();
  const QueryResponse response_b = future_b.get();
  EXPECT_TRUE(response_b.status.ok());
  EXPECT_FALSE(response_b.degraded);
  EXPECT_TRUE(blocked.get().status.ok());
}

}  // namespace
}  // namespace resacc
