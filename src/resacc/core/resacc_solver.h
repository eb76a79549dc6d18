#ifndef RESACC_CORE_RESACC_SOLVER_H_
#define RESACC_CORE_RESACC_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "resacc/core/h_hop_fwd.h"
#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/core/remedy.h"
#include "resacc/core/rwr_config.h"
#include "resacc/core/ssrwr_algorithm.h"
#include "resacc/core/topk.h"
#include "resacc/graph/graph.h"
#include "resacc/util/rng.h"

namespace resacc {

// Tuning knobs of the full ResAcc pipeline (Algorithm 2).
struct ResAccOptions {
  // r_max^hop of the h-HopFWD phase. Paper default: 1e-14.
  Score r_max_hop = 1e-14;
  // r_max^f of the OMFWD phase. <= 0 selects the paper default 1/(10 m).
  Score r_max_f = 0.0;
  // h; the paper uses 2 everywhere except DBLP (3). See Fig. 21.
  std::uint32_t num_hops = 2;
  // Adaptive hop-set cap (our extension; see HHopFwdOptions): shrink the
  // effective h when the source's hop set exceeds this fraction of n —
  // keeps hub-source queries from drowning in the accumulating phase.
  // 0 disables.
  double max_hop_set_fraction = 0.15;
  // Remedy walk multiplier n_scale (Appendix F); 1.0 = Theorem 3 count.
  double walk_scale = 1.0;

  // Top-k refinement knobs (QueryTopK only; full queries never read
  // them). Part of the serve-layer config hash: they shape the cached
  // top-k payloads.
  TopKOptions topk;

  // Hybrid local/dense selection (core/power_iter.h): when enabled, a
  // query whose hop set or residue mass makes the local pipeline cost
  // more than a whole-graph power-iteration sweep is handed to the dense
  // path instead, same (eps, delta) contract. Requires use_hop_subgraph
  // (the ablations stay pure-local). Part of the serve-layer config hash.
  HybridOptions hybrid;

  // Threads for the remedy phase's walk engine (0 = hardware concurrency).
  // Changes speed only, never the scores: remedy output is bit-identical
  // for every value (see walk_engine.h), which is why this knob is NOT
  // part of the serve-layer config hash. Keep 1 wherever one solver
  // already runs per pool worker (QueryService, ParallelQueryMany).
  std::size_t walk_threads = 1;

  // Ablation switches (Appendix K). All true = full ResAcc.
  bool use_loop_accumulation = true;  // false => "No-Loop-ResAcc"
  bool use_hop_subgraph = true;       // false => "No-SG-ResAcc"
  bool use_omfwd = true;              // false => "No-OFD-ResAcc"

  // Test hook: invoked at the start of each phase of a serial query with
  // "hhop", "omfwd", "remedy", "dense" or "topk" (same precedent as
  // ServeOptions::dequeue_hook); batch lanes never call it. Lets tests
  // cancel deterministically *inside* a chosen phase instead of racing a
  // timer. Not hashed by the serve layer's config hash — hooks must not
  // change results.
  std::function<void(const char*)> phase_hook;
};

// Per-query diagnostics: phase timings (Table VII), operation counts, and
// the h-HopFWD internals (rho, T, S).
struct ResAccQueryStats {
  double hhop_seconds = 0.0;
  double omfwd_seconds = 0.0;
  double remedy_seconds = 0.0;
  double dense_seconds = 0.0;
  double total_seconds = 0.0;

  HHopFwdStats hhop;
  PushStats omfwd_push;
  RemedyStats remedy;
  Score residue_sum_after_omfwd = 0.0;

  // Hybrid selection outcome: which path answered and, when dense, the
  // sweep diagnostics.
  SolverPath path = SolverPath::kLocal;
  PowerIterStats dense;
};

// The per-query decisions of the ResAcc pipeline (Algorithm 2 plus the
// hybrid selector), written once for ResAccSolver and BatchSolver: the
// construction defaults, phase 1 with hybrid selection point 1, and the
// finish. The push kernels stay with their solvers; every decision a batch
// lane shares with its serial replay lives here, so the lane stays
// bit-identical to the serial solve by construction.
class ResAccPipeline {
 public:
  // Checks the config and applies the r_max^f = 1/(10 m) default.
  ResAccPipeline(const Graph& graph, const RwrConfig& config,
                 const ResAccOptions& options);

  const Graph& graph() const { return graph_; }
  const RwrConfig& config() const { return config_; }
  const ResAccOptions& options() const { return options_; }
  Score r_max_f() const { return r_max_f_; }

  // The hybrid selector runs only with the hop subgraph on: the ablations
  // stay pure-local.
  bool hybrid_on() const {
    return options_.hybrid.enable && options_.use_hop_subgraph;
  }

  // Phase 1: h-HopFWD from `source` on `state`, cancellable through
  // `cancel`. Selection point 1 runs after the hop-layer BFS: when it hands
  // the query to the dense path it sets *path and the state keeps the
  // clean r(s) = 1 unit. Counts adaptive hop-cap shrinks.
  HHopFwdStats RunHopPhase(NodeId source, PushState& state,
                           const CancellationToken* cancel, SolverPath* path,
                           HopLayers* layers) const;

  // Finishes one query from `state` as phases 1-2 left it (or r(s) = 1 for
  // a query dead on arrival): a non-OK `push_status` returns the reserves
  // with the residue mass uncorrected; otherwise a dense `path` runs the
  // power-iteration sweep, a top-k query (non-null `topk`, k = `top_k`)
  // runs SolveTopKFromState, and a full query runs the remedy walks. A
  // top-k query's result carries only its tags; `*topk` gets the entries.
  // A non-null `stats` marks a serial query: it then fires the phase hooks,
  // opens the phase spans, records the phase timings and the solver's
  // dense and remedy phase histograms. `state` is consumed.
  ControlledQueryResult Finish(NodeId source, std::size_t top_k,
                               const CancellationToken* cancel,
                               SolverPath path, const Status& push_status,
                               PushState& state, TopKResult* topk,
                               ResAccQueryStats* stats);

 private:
  const Graph& graph_;
  RwrConfig config_;
  ResAccOptions options_;
  Score r_max_f_;
  Rng rng_;
  WalkEngine walk_engine_;
};

// The paper's algorithm: h-HopFWD + OMFWD + remedy (Algorithm 2). One
// instance per graph; Query is repeatable and reuses workspaces.
class ResAccSolver : public SsrwrAlgorithm {
 public:
  ResAccSolver(const Graph& graph, const RwrConfig& config,
               const ResAccOptions& options);

  const std::string& name() const override { return name_; }

  std::vector<Score> Query(NodeId source) override;

  // Cancellable variant: polls `control.cancel` between the three phases,
  // every few hundred pushes inside h-HopFWD/OMFWD, and at every remedy
  // walk block. On an early stop the returned scores are the reserves
  // accumulated so far (plus any merged walk corrections) and
  // achieved_epsilon = epsilon + uncorrected_mass / delta. See
  // ControlledQueryResult for the exact contract.
  ControlledQueryResult QueryControlled(NodeId source,
                                        const QueryControl& control) override;

  // Bound-driven top-k (see topk_solve.h): runs the two push phases
  // unchanged, then refines at shrinking thresholds until rank k
  // separates — a certified result skips the remedy walks entirely; an
  // unseparated one falls back to remedy on the refined state. The shared
  // finish (ResAccPipeline::Finish) makes BatchSolver's top-k lanes
  // bit-identical to this.
  TopKResult QueryTopK(NodeId source, std::size_t k,
                       const QueryControl& control = QueryControl{}) override;

  // Diagnostics of the most recent Query call.
  const ResAccQueryStats& last_stats() const { return last_stats_; }

  // Effective r_max^f after applying the 1/(10 m) default.
  Score effective_r_max_f() const { return pipeline_.r_max_f(); }

  const RwrConfig& config() const { return pipeline_.config(); }
  const ResAccOptions& options() const { return pipeline_.options(); }

 private:
  // The body QueryControlled and QueryTopK share: reset, the
  // dead-on-arrival check, phases 1-2, the pipeline's finish, then the
  // solver's query/degraded/cancelled counters and query histogram. A
  // non-null `topk` makes it a top-k query for k = `top_k`.
  ControlledQueryResult RunQuery(NodeId source, std::size_t top_k,
                                 const CancellationToken* cancel,
                                 TopKResult* topk);

  // Phases 1-2 of Algorithm 2 (h-HopFWD + OMFWD) on state_, with the
  // usual per-phase stats/metrics/hooks. Returns the stop status: OK when
  // both phases completed, the token's status when one was cut short
  // (state_ then holds the valid partial reserves/residues).
  Status RunPushPhases(NodeId source, const CancellationToken* cancel);

  ResAccPipeline pipeline_;
  std::string name_;
  PushState state_;
  ResAccQueryStats last_stats_;
};

}  // namespace resacc

#endif  // RESACC_CORE_RESACC_SOLVER_H_
