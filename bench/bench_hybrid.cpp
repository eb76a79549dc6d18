// Hub-vs-tail record of the hybrid local/dense selector (PR 10;
// core/power_iter.h). The hub-source degradation this PR fixes: on a
// heavy-tailed graph a hub's 1-hop set spans a large fraction of the
// graph, so the paper's local pipeline grinds the 1e-14-threshold
// accumulating phase over most of the CSR. The hybrid selector hands
// exactly those queries to the dense power-iteration path.
//
// The record (BENCH_hybrid.json, uploaded by CI) measures ResAcc with the
// hybrid off vs on, on hub sources (top out-degree) and tail sources
// (median-and-below out-degree), and GATES:
//   * every hub query under the hybrid actually selected a dense path;
//   * hybrid hub QPS beats pure-local hub QPS;
//   * hybrid tail QPS stays within noise of pure-local (>= 80%);
//   * every dense result satisfies Definition 1 against power-iteration
//     ground truth — deterministically, per the eps * delta tolerance.
// Exit 1 on any gate failure, 2 when the record cannot be written.
//
// Env knobs: RESACC_HYBRID_{NODES,EDGES,HUBS,TAILS,REPS,VERIFY,RATIO,
// ALPHA,DELTA}.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "resacc/core/power_iter.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/generators.h"
#include "resacc/graph/graph.h"
#include "resacc/util/env.h"
#include "resacc/util/timer.h"

namespace resacc {
namespace {

// Best-of-reps {local, hybrid} QPS over `sources`. The sides alternate
// rep by rep (swapping which goes first) so host drift lands on both
// alike; best-of gives the machine's capability, not its scheduling
// noise. Each pass calls its function with (source, rep == 0).
template <typename LocalFn, typename HybridFn>
std::pair<double, double> AlternatingQps(const std::vector<NodeId>& sources,
                                         int reps, LocalFn&& local,
                                         HybridFn&& hybrid) {
  double best[2] = {0.0, 0.0};
  auto time_pass = [&](auto& per_source, int side, int rep) {
    Timer timer;
    for (NodeId s : sources) per_source(s, rep == 0);
    const double seconds = timer.ElapsedSeconds();
    if (rep == 0 || seconds < best[side]) best[side] = seconds;
  };
  for (int rep = 0; rep < reps; ++rep) {
    if (rep % 2 == 1) time_pass(hybrid, 1, rep);
    time_pass(local, 0, rep);
    if (rep % 2 == 0) time_pass(hybrid, 1, rep);
  }
  const double n = static_cast<double>(sources.size());
  return {n / best[0], n / best[1]};
}

int RunHybridRecord(const std::string& json_path) {
  const NodeId nodes =
      static_cast<NodeId>(GetEnvInt("RESACC_HYBRID_NODES", 5000));
  const std::uint64_t edges =
      static_cast<std::uint64_t>(GetEnvInt("RESACC_HYBRID_EDGES", 1000000));
  const std::size_t num_hubs =
      static_cast<std::size_t>(GetEnvInt("RESACC_HYBRID_HUBS", 8));
  const std::size_t num_tails =
      static_cast<std::size_t>(GetEnvInt("RESACC_HYBRID_TAILS", 16));
  const int reps =
      std::max(1, static_cast<int>(GetEnvInt("RESACC_HYBRID_REPS", 2)));

  std::fprintf(stderr,
               "[bench_hybrid] generating hub bench graph (n=%u, m=%llu)...\n",
               nodes, static_cast<unsigned long long>(edges));
  const Graph graph = ChungLuPowerLaw(nodes, edges, 2.1, /*seed=*/7);

  RwrConfig config;
  config.alpha = GetEnvDouble("RESACC_HYBRID_ALPHA", 0.15);
  config.epsilon = 0.5;
  // delta well above 1/n keeps the pure-local remedy phase affordable —
  // the degradation under test is the accumulating phase, not the walks.
  config.delta = GetEnvDouble("RESACC_HYBRID_DELTA", 0.01);
  config.p_f = 1e-3;
  config.dangling = DanglingPolicy::kAbsorb;
  config.seed = 7;

  ResAccOptions local_options;
  ResAccOptions hybrid_options;
  hybrid_options.hybrid.enable = true;
  hybrid_options.hybrid.cost_ratio = GetEnvDouble("RESACC_HYBRID_RATIO", 1.0);

  // Hub sources: the top of the out-degree order (their 1-hop sets floor
  // the adaptive cap). Tail sources: median and below, strided so they
  // spread over the quiet half of the degree distribution.
  const std::vector<NodeId> by_degree = graph.NodesByOutDegreeDesc();
  std::vector<NodeId> hubs;
  for (std::size_t i = 0; i < num_hubs && i < by_degree.size(); ++i) {
    hubs.push_back(by_degree[i]);
  }
  std::vector<NodeId> tails;
  for (std::size_t i = 0; i < num_tails; ++i) {
    const std::size_t rank = by_degree.size() / 2 + i * 31;
    tails.push_back(by_degree[std::min(rank, by_degree.size() - 1)]);
  }

  ResAccSolver local_solver(graph, config, local_options);
  ResAccSolver hybrid_solver(graph, config, hybrid_options);

  // Hybrid selections and payloads, captured on the first rep.
  std::size_t hub_dense = 0, tail_dense = 0;
  std::vector<std::vector<Score>> dense_results(hubs.size());
  std::size_t next = 0;

  const auto [local_hub_qps, hybrid_hub_qps] = AlternatingQps(
      hubs, reps, [&](NodeId s, bool) { local_solver.Query(s); },
      [&](NodeId s, bool first) {
        std::vector<Score> scores = hybrid_solver.Query(s);
        if (first) {
          if (hybrid_solver.last_stats().path != SolverPath::kLocal) {
            ++hub_dense;
          }
          dense_results[next++] = std::move(scores);
        }
      });
  const auto [local_tail_qps, hybrid_tail_qps] = AlternatingQps(
      tails, reps, [&](NodeId s, bool) { local_solver.Query(s); },
      [&](NodeId s, bool first) {
        hybrid_solver.Query(s);
        if (first && hybrid_solver.last_stats().path != SolverPath::kLocal) {
          ++tail_dense;
        }
      });

  // Conformance audit: the acceptance bar is that every dense-path result
  // passes Definition 1 against power-iteration ground truth. The dense
  // guarantee is deterministic (additive error <= eps * delta), so any
  // single violation is a bug, not noise. Ground truth costs ~n + m per
  // sweep per source, so a subsample keeps the smoke fast.
  const std::size_t verify = std::min(
      hubs.size(),
      static_cast<std::size_t>(GetEnvInt("RESACC_HYBRID_VERIFY", 4)));
  GroundTruthCache truth(graph, config);
  bool conformance_ok = true;
  for (std::size_t i = 0; i < verify; ++i) {
    const std::vector<Score>& exact = truth.Get(hubs[i]);
    const std::vector<Score>& estimate = dense_results[i];
    for (NodeId v = 0; v < static_cast<NodeId>(exact.size()); ++v) {
      if (exact[v] <= config.delta) continue;
      if (std::abs(estimate[v] - exact[v]) >
          config.epsilon * exact[v] + 1e-12) {
        conformance_ok = false;
        std::fprintf(stderr,
                     "[bench_hybrid] DEFINITION-1 VIOLATION source=%u "
                     "node=%u est=%.6e true=%.6e\n",
                     hubs[i], v, estimate[v], exact[v]);
      }
    }
  }

  const bool all_hubs_dense = hub_dense == hubs.size();
  const bool hub_wins = hybrid_hub_qps > local_hub_qps;
  const bool tail_ok = hybrid_tail_qps >= 0.8 * local_tail_qps;

  std::printf("hybrid vs pure-local (ResAcc, n=%u, m=%llu, %zu hubs, "
              "%zu tails, delta=%g, ratio=%g):\n",
              graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), hubs.size(),
              tails.size(), config.delta, hybrid_options.hybrid.cost_ratio);
  std::printf("  hub   local %8.2f qps | hybrid %8.2f qps  (%.2fx, "
              "%zu/%zu dense)\n",
              local_hub_qps, hybrid_hub_qps, hybrid_hub_qps / local_hub_qps,
              hub_dense, hubs.size());
  std::printf("  tail  local %8.2f qps | hybrid %8.2f qps  (%.2fx, "
              "%zu/%zu dense)\n",
              local_tail_qps, hybrid_tail_qps,
              hybrid_tail_qps / local_tail_qps, tail_dense, tails.size());
  std::printf("  dense conformance vs ground truth (%zu sources): %s\n",
              verify, conformance_ok ? "ok" : "VIOLATED");
  if (!all_hubs_dense) {
    std::printf("  GATE: %zu hub sources stayed local\n",
                hubs.size() - hub_dense);
  }
  if (!hub_wins) std::printf("  GATE: hybrid did not beat local on hubs\n");
  if (!tail_ok) std::printf("  GATE: tail regression beyond noise\n");

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"hybrid_hub_vs_tail\",\n"
                 "  \"graph\": {\"nodes\": %u, \"edges\": %llu,"
                 " \"generator\": \"chung_lu_powerlaw_2.1\"},\n"
                 "  \"config\": {\"alpha\": %g, \"epsilon\": %g,"
                 " \"delta\": %g, \"p_f\": %g, \"cost_ratio\": %g},\n"
                 "  \"hub_sources\": %zu,\n"
                 "  \"tail_sources\": %zu,\n"
                 "  \"local_hub_qps\": %.4f,\n"
                 "  \"hybrid_hub_qps\": %.4f,\n"
                 "  \"hub_speedup\": %.4f,\n"
                 "  \"local_tail_qps\": %.4f,\n"
                 "  \"hybrid_tail_qps\": %.4f,\n"
                 "  \"tail_ratio\": %.4f,\n"
                 "  \"hub_dense_selected\": %zu,\n"
                 "  \"tail_dense_selected\": %zu,\n"
                 "  \"verified_sources\": %zu,\n"
                 "  \"conformance_ok\": %s\n"
                 "}\n",
                 graph.num_nodes(),
                 static_cast<unsigned long long>(graph.num_edges()),
                 config.alpha, config.epsilon, config.delta, config.p_f,
                 hybrid_options.hybrid.cost_ratio, hubs.size(), tails.size(),
                 local_hub_qps, hybrid_hub_qps,
                 hybrid_hub_qps / local_hub_qps, local_tail_qps,
                 hybrid_tail_qps, hybrid_tail_qps / local_tail_qps, hub_dense,
                 tail_dense, verify, conformance_ok ? "true" : "false");
    std::fclose(f);
    std::printf("  record written to %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "[bench_hybrid] cannot write %s\n",
                 json_path.c_str());
    return 2;
  }
  return (all_hubs_dense && hub_wins && tail_ok && conformance_ok) ? 0 : 1;
}

}  // namespace
}  // namespace resacc

int main(int argc, char** argv) {
  std::string json_path = "BENCH_hybrid.json";
  constexpr const char kFlag[] = "--hybrid_json=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kFlag, sizeof(kFlag) - 1) == 0) {
      json_path = argv[i] + sizeof(kFlag) - 1;
    }
  }
  return resacc::RunHybridRecord(json_path);
}
