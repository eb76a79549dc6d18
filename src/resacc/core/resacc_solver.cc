#include "resacc/core/resacc_solver.h"

#include <optional>
#include <utility>

#include "resacc/core/omfwd.h"
#include "resacc/core/topk_solve.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/trace.h"
#include "resacc/util/check.h"
#include "resacc/util/timer.h"

namespace resacc {
namespace {

// Process-wide phase latency surface (Table VII as metrics). Function-local
// statics: registered once, then each Record is a handful of relaxed
// atomics — safe to leave on for every query.
struct SolverMetrics {
  Counter& queries;
  Counter& degraded;
  Counter& cancelled;
  LatencyHistogram& hhop;
  LatencyHistogram& omfwd;
  LatencyHistogram& remedy;
  LatencyHistogram& dense;
  LatencyHistogram& total;

  static SolverMetrics& Get() {
    MetricsRegistry& registry = MetricsRegistry::Global();
    static SolverMetrics metrics{
        registry.GetCounter("resacc_solver_queries_total", "",
                            "Single-source RWR queries answered."),
        registry.GetCounter(
            "resacc_solver_queries_degraded_total", "",
            "Queries that returned with uncorrected residual mass "
            "(achieved epsilon above the configured bound)."),
        registry.GetCounter(
            "resacc_solver_queries_cancelled_total", "",
            "Queries stopped early by a cancellation token "
            "(deadline or explicit cancel)."),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"hhop\"",
                              "Per-query phase latency (Table VII split)."),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"omfwd\""),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"remedy\""),
        registry.GetHistogram("resacc_solver_phase_seconds",
                              "phase=\"dense\""),
        registry.GetHistogram("resacc_solver_query_seconds", "",
                              "End-to-end single-source query latency."),
    };
    return metrics;
  }
};

}  // namespace

ResAccPipeline::ResAccPipeline(const Graph& graph, const RwrConfig& config,
                               const ResAccOptions& options)
    : graph_(graph),
      config_(config),
      options_(options),
      r_max_f_(options.r_max_f > 0.0
                   ? options.r_max_f
                   : 1.0 / (10.0 * static_cast<Score>(graph.num_edges()))),
      rng_(config.seed),
      walk_engine_(options.walk_threads) {
  RESACC_CHECK(config_.Validate().ok());
  RESACC_CHECK(options_.r_max_hop > 0.0);
}

HHopFwdStats ResAccPipeline::RunHopPhase(NodeId source, PushState& state,
                                         const CancellationToken* cancel,
                                         SolverPath* path,
                                         HopLayers* layers) const {
  // The No-SG ablation accumulates over the whole graph; there the
  // practical threshold is r_max^f (with r_max^hop the whole-graph search
  // would push for days — the subgraph restriction is exactly what makes
  // the tiny threshold affordable).
  HHopFwdOptions hhop_options;
  hhop_options.r_max_hop =
      options_.use_hop_subgraph ? options_.r_max_hop : r_max_f_;
  hhop_options.num_hops = options_.num_hops;
  hhop_options.use_loop_accumulation = options_.use_loop_accumulation;
  hhop_options.use_hop_subgraph = options_.use_hop_subgraph;
  hhop_options.max_hop_set_fraction = options_.max_hop_set_fraction;
  hhop_options.cancel = cancel;

  // Hybrid selection point 1: with the hop-layer BFS done and nothing
  // pushed yet, hand hub sources to the dense path (core/power_iter.h).
  // The decision is a pure function of the BFS-derived stats, so a batch
  // lane selects exactly when its serial replay does.
  if (hybrid_on()) {
    hhop_options.dense_probe = [&](const HHopFwdStats& hop_stats) {
      const SolverPath choice = ChooseFromHopStats(
          graph_, config_, options_.hybrid, hhop_options.r_max_hop,
          hop_stats.shrink_floored,
          static_cast<double>(hop_stats.hop_set_edges));
      if (choice == SolverPath::kLocal) return false;
      *path = choice;
      return true;
    };
  }
  const HHopFwdStats stats =
      RunHHopFwd(graph_, config_, source, hhop_options, state, layers);
  if (stats.shrink_hops > 0 || stats.shrink_floored) RecordHubShrink();
  return stats;
}

ControlledQueryResult ResAccPipeline::Finish(
    NodeId source, std::size_t top_k, const CancellationToken* cancel,
    SolverPath path, const Status& push_status, PushState& state,
    TopKResult* topk, ResAccQueryStats* stats) {
  const bool serial = stats != nullptr;
  Timer phase;
  auto begin_phase = [&](const char* name) {
    if (serial && options_.phase_hook) options_.phase_hook(name);
    phase.Restart();
  };
  ControlledQueryResult result;
  result.status = push_status;
  result.achieved_epsilon = config_.epsilon;
  Score uncorrected = 0.0;

  if (push_status.ok() && path != SolverPath::kLocal) {
    // Dense fallback: the selector handed this query to whole-graph power
    // iteration (core/power_iter.h) — the drained residues become the
    // starting alive mass, and the remedy walks are skipped entirely. The
    // full dense vector is exact to an additive eps*delta, so its top-k
    // prefix with the standard epsilon-relative brackets is a valid
    // certificate at the configured epsilon.
    begin_phase("dense");
    DenseFinish dense;
    {
      std::optional<SpanScope> span;
      if (serial) span.emplace("dense_power_iter");
      dense = RunDenseFinish(graph_, config_, source, state, options_.hybrid,
                             cancel);
    }
    if (serial) {
      stats->dense = dense.stats;
      stats->dense_seconds = phase.ElapsedSeconds();
      SolverMetrics::Get().dense.Record(stats->dense_seconds);
    }
    if (dense.stats.cancelled) result.status = cancel->StopStatus();
    if (topk != nullptr) {
      *topk = MakeApproximateTopK(dense.scores, top_k, dense.achieved_epsilon,
                                  dense.degraded, dense.uncorrected_mass);
      topk->status = result.status;
    } else {
      result.scores = std::move(dense.scores);
      uncorrected = dense.uncorrected_mass;
    }
  } else if (topk != nullptr) {
    begin_phase("topk");
    Rng query_rng = rng_.Fork(source);
    *topk = SolveTopKFromState(graph_, config_, source, top_k, r_max_f_,
                               options_.walk_scale, options_.topk, state,
                               query_rng, &walk_engine_, cancel, push_status);
    if (serial) stats->remedy_seconds = phase.ElapsedSeconds();
  } else {
    // Partial result on an early stop: the reserves accumulated so far.
    // pi(v) = reserve(v) + sum_u r(u) pi_u(v) holds after every push, so
    // the estimate undershoots by at most the remaining residue mass.
    result.scores.assign(graph_.num_nodes(), 0.0);
    for (NodeId v : state.touched()) result.scores[v] = state.reserve(v);
    if (!push_status.ok()) {
      uncorrected = state.ResidueSum();
    } else {
      // Phase 3: remedy (Algorithm 2 lines 5-17).
      begin_phase("remedy");
      Rng query_rng = rng_.Fork(source);
      RemedyStats remedy;
      {
        std::optional<SpanScope> span;
        if (serial) span.emplace("remedy");
        remedy = RunRemedy(graph_, config_, source, state, query_rng,
                           result.scores, options_.walk_scale,
                           /*time_budget_seconds=*/0.0, &walk_engine_, cancel);
      }
      if (serial) {
        stats->remedy = remedy;
        stats->remedy_seconds = phase.ElapsedSeconds();
        SolverMetrics::Get().remedy.Record(stats->remedy_seconds);
      }
      if (remedy.cancelled) result.status = cancel->StopStatus();
      uncorrected = remedy.uncorrected_mass;
    }
  }

  if (options_.hybrid.enable) RecordHybridSelection(path);
  if (topk != nullptr) {
    // A top-k query's tag row mirrors its result; the scores stay empty.
    result.status = topk->status;
    result.degraded = topk->degraded;
    result.uncorrected_mass = topk->uncorrected_mass;
    result.achieved_epsilon = topk->achieved_epsilon;
    return result;
  }
  result.uncorrected_mass = uncorrected;
  if (uncorrected > 0.0) {
    result.degraded = true;
    result.achieved_epsilon = config_.AchievedEpsilon(uncorrected);
  }
  return result;
}

ResAccSolver::ResAccSolver(const Graph& graph, const RwrConfig& config,
                           const ResAccOptions& options)
    : pipeline_(graph, config, options),
      name_("ResAcc"),
      state_(graph.num_nodes()) {
  if (!options.use_loop_accumulation) name_ = "No-Loop-ResAcc";
  if (!options.use_hop_subgraph) name_ = "No-SG-ResAcc";
  if (!options.use_omfwd) name_ = "No-OFD-ResAcc";
}

std::vector<Score> ResAccSolver::Query(NodeId source) {
  // Same code path as the controlled variant with no token: identical RNG
  // draws, identical phase structure, bit-identical scores.
  return QueryControlled(source, QueryControl{}).scores;
}

ControlledQueryResult ResAccSolver::QueryControlled(
    NodeId source, const QueryControl& control) {
  RESACC_SPAN("query");
  return RunQuery(source, /*top_k=*/0, control.cancel, /*topk=*/nullptr);
}

TopKResult ResAccSolver::QueryTopK(NodeId source, std::size_t k,
                                   const QueryControl& control) {
  RESACC_SPAN("query_topk");
  TopKResult result;
  RunQuery(source, k, control.cancel, &result);
  return result;
}

ControlledQueryResult ResAccSolver::RunQuery(NodeId source, std::size_t top_k,
                                             const CancellationToken* cancel,
                                             TopKResult* topk) {
  RESACC_CHECK(source < pipeline_.graph().num_nodes());
  last_stats_ = ResAccQueryStats();
  Timer total;
  state_.Reset();
  Status push_status;
  if (ShouldStop(cancel)) {
    // Dead on arrival (deadline already passed): nothing runs, the whole
    // unit of probability mass stays on the source, unconverted.
    state_.SetResidue(source, 1.0);
    push_status = cancel->StopStatus();
  } else {
    push_status = RunPushPhases(source, cancel);
  }
  ControlledQueryResult result =
      pipeline_.Finish(source, top_k, cancel, last_stats_.path, push_status,
                       state_, topk, &last_stats_);
  last_stats_.total_seconds = total.ElapsedSeconds();
  // Every query of either mode, complete, degraded or cancelled, is
  // counted here, so queries_total and the query histogram stay
  // consistent with the per-phase histograms after an abort (each phase
  // records iff it started).
  SolverMetrics& metrics = SolverMetrics::Get();
  if (result.degraded) metrics.degraded.Increment();
  if (!result.status.ok()) metrics.cancelled.Increment();
  metrics.queries.Increment();
  metrics.total.Record(last_stats_.total_seconds);
  return result;
}

Status ResAccSolver::RunPushPhases(NodeId source,
                                   const CancellationToken* cancel) {
  SolverMetrics& metrics = SolverMetrics::Get();
  const ResAccOptions& options = pipeline_.options();

  // Phase 1: h-HopFWD.
  if (options.phase_hook) options.phase_hook("hhop");
  Timer phase;
  HopLayers layers;
  {
    RESACC_SPAN("hhop_fwd");
    last_stats_.hhop = pipeline_.RunHopPhase(source, state_, cancel,
                                             &last_stats_.path, &layers);
  }
  last_stats_.hhop_seconds = phase.ElapsedSeconds();
  metrics.hhop.Record(last_stats_.hhop_seconds);
  if (ShouldStop(cancel)) return cancel->StopStatus();
  // Probe fired: the state holds the clean r(s) = 1 unit for the dense
  // sweep; OMFWD would only smear it back over the graph.
  if (last_stats_.path != SolverPath::kLocal) return Status::Ok();

  // Phase 2: OMFWD from the accumulated frontier. At each wavefront-round
  // boundary (selection point 2) the remedy cost of the residues still
  // outstanding is compared against the dense bound; when remedy loses,
  // the search stops and the drained state goes dense instead.
  if (options.phase_hook) options.phase_hook("omfwd");
  phase.Restart();
  const Graph& graph = pipeline_.graph();
  const RwrConfig& config = pipeline_.config();
  PushRoundHook round_hook;
  const PushRoundHook* round_hook_ptr = nullptr;
  if (pipeline_.hybrid_on()) {
    round_hook = [&](std::size_t) {
      if (!DenseBeatsRemedy(graph, config, options.hybrid,
                            state_.ResidueSum(), options.walk_scale)) {
        return false;
      }
      last_stats_.path = SolverPath::kDenseResidueMass;
      return true;
    };
    round_hook_ptr = &round_hook;
  }
  {
    RESACC_SPAN("omfwd");
    if (options.use_omfwd && !layers.layers.empty()) {
      last_stats_.omfwd_push =
          RunOmfwd(graph, config, source, pipeline_.r_max_f(),
                   layers.layers.back(), state_, cancel, round_hook_ptr);
    }
  }
  last_stats_.omfwd_seconds = phase.ElapsedSeconds();
  last_stats_.residue_sum_after_omfwd = state_.ResidueSum();
  metrics.omfwd.Record(last_stats_.omfwd_seconds);
  if (ShouldStop(cancel)) return cancel->StopStatus();
  return Status::Ok();
}

}  // namespace resacc
