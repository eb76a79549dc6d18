// ledger_bench — the ResAcc benchmark program.
//
//   ledger_bench gen --dir=DIR
//       Generates graph A and graph B once and saves them as DIR/*.rsg.
//   ledger_bench run --workload=NAME --seed=N --seconds=T --trace=0|1
//                    --dir=DIR --serve=PATH [--record=FILE]
//       Runs one workload for T timed seconds and prints, as the last line
//       of stdout, {"correct", "attempted", "failed", "metrics"}: the
//       end-to-end metrics with --trace=0, the per-layer metrics with
//       --trace=1. Exits 1 when a correctness check fails.
//
// ledger/run.py builds this and the server, then calls `gen` and `run`;
// ledger/README.md documents the workloads and every metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ledger.h"
#include "resacc/core/batch_solver.h"
#include "resacc/core/resacc_solver.h"
#include "resacc/eval/ground_truth.h"
#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/graph/hop_layers.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/timer.h"
#include "resacc/util/top_k.h"
#include "resacc/workload/protocol_client.h"

namespace {

using namespace resacc;
using ledger::WorkloadDef;

constexpr int kSetupRepeats = 9;
// Sources re-solved serially per run to check the served answers.
constexpr std::size_t kCheckedResponses = 3;
// Sources of the traced run's layer probe.
constexpr std::size_t kProbeSources = 12;
// qps is the median over this many equal windows of the timed phase, so a
// burst of outside load in one window does not move it.
constexpr int kQpsWindows = 5;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      flags[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      flags[arg] = argv[++i];
    }
  }
  return flags;
}

// One finished op of the timed phase.
struct Sample {
  OpClass cls = OpClass::kFull;
  bool ok = false;
  bool hit = false;
  bool coalesced = false;
  double latency = 0.0;     // seconds, client side
  double server_us = 0.0;   // protocol: the server's us= field
  double queue_wait = 0.0;  // in process: QueryResponse split
  double compute = 0.0;
  std::size_t bytes = 0;    // protocol: response line length
  double done_at = 0.0;     // seconds into the timed phase
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// Everything one run measures and checks.
struct RunState {
  const WorkloadDef* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Graph graph;                  // the loaded base graph
  RwrConfig config;
  ResAccOptions options;
  std::vector<double> setup_samples;
  std::vector<double> load_samples;
  std::vector<Sample> samples;  // timed phase only
  double timed_wall = 0.0;
  double rss_mb = 0.0;
  std::vector<std::string> failures;  // correctness-gate failures
  std::map<std::string, Metric> layer;  // per-layer metrics
  std::vector<std::string> notes;       // human-readable extra lines
  std::string spans_json = "[]";
  std::uint64_t stream_hash = 0;

  void Fail(const std::string& what) { failures.push_back(what); }
  void Layer(const std::string& name, double value, const char* unit) {
    layer[name] = Metric{value, unit};
  }
};

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string FormatDistribution(const std::string& name,
                               const std::vector<double>& samples,
                               const char* unit) {
  const ledger::Distribution d = ledger::Summarize(samples);
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  %-22s n=%zu min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g "
                "hmean=%.4g %s",
                name.c_str(), d.count, d.min, d.q1, d.median, d.q3, d.max,
                d.harmonic_mean, unit);
  return buf;
}

// ---------------------------------------------------------------------------
// Correctness helpers.

// Definition 1 against power-iteration ground truth: every node above
// delta within relative error epsilon.
std::size_t Definition1Violations(const std::vector<Score>& estimate,
                                  const std::vector<Score>& truth,
                                  const RwrConfig& config) {
  std::size_t bad = 0;
  for (std::size_t v = 0; v < truth.size(); ++v) {
    if (truth[v] > config.delta &&
        std::abs(estimate[v] - truth[v]) > config.epsilon * truth[v]) {
      ++bad;
    }
  }
  return bad;
}

bool CertificateHolds(const TopKResult& result) {
  if (!result.certified) return true;
  for (const TopKEntry& e : result.entries) {
    if (e.lower < result.outsider_upper) return false;
  }
  return true;
}

NodeId MaxOutDegreeNode(const Graph& graph) {
  NodeId best = 0;
  for (NodeId v = 1; v < graph.num_nodes(); ++v) {
    if (graph.OutDegree(v) > graph.OutDegree(best)) best = v;
  }
  return best;
}

// Checks Definition 1 for the highest-degree node (the hub; dense under the
// hybrid selector) and `other`, solving on `graph` with the run's options.
void CheckDefinition1(RunState& run, const Graph& graph, NodeId other) {
  GroundTruthCache truth(graph, run.config);
  ResAccSolver solver(graph, run.config, run.options);
  bool saw_dense = false;
  for (NodeId source : {MaxOutDegreeNode(graph), other}) {
    const std::vector<Score> scores = solver.Query(source);
    saw_dense |= solver.last_stats().path != SolverPath::kLocal;
    const std::size_t bad =
        Definition1Violations(scores, truth.Get(source), run.config);
    if (bad > 0) {
      run.Fail("definition 1: " + std::to_string(bad) +
               " nodes above delta off by more than eps for source " +
               std::to_string(source));
    }
  }
  run.notes.push_back(std::string("definition 1 checked on 2 sources, ") +
                      (saw_dense ? "one dense-path" : "none dense-path"));
}

// ---------------------------------------------------------------------------
// In-process workloads: one client thread keeping `outstanding` requests in
// a QueryService.

ServeOptions MakeServeOptions(const RunState& run) {
  ServeOptions options;
  options.num_workers = 2;
  options.max_batch = run.workload->max_batch;
  options.batch_linger_us = run.workload->batch_linger_us;
  options.cache_bytes = run.workload->cache ? options.cache_bytes : 0;
  options.coalesce = run.workload->coalesce;
  options.solver = run.options;
  return options;
}

struct Checked {
  NodeId source = 0;
  std::shared_ptr<const std::vector<Score>> scores;
};

// Closed loop over `stream` until `ops` are done or `deadline` seconds have
// passed (whichever is set), then drains. Fills `samples` when non-null.
void DriveService(QueryService& service, ledger::OpStream& stream,
                  std::size_t outstanding, std::size_t ops, double deadline,
                  std::vector<Sample>* samples,
                  std::vector<Checked>* checked) {
  struct InFlight {
    NodeId source;
    std::future<QueryResponse> future;
  };
  std::deque<InFlight> in_flight;
  std::size_t sent = 0;
  Timer clock;
  auto more = [&] {
    return deadline > 0.0 ? clock.ElapsedSeconds() < deadline : sent < ops;
  };
  while (true) {
    while (in_flight.size() < outstanding && more()) {
      const WorkloadOp op = stream.Next();
      QueryRequest request;
      request.source = op.source;
      in_flight.push_back({op.source, service.Submit(request)});
      ++sent;
    }
    if (in_flight.empty()) break;
    // Harvest whatever finished; block briefly on the oldest otherwise.
    bool harvested = false;
    for (auto it = in_flight.begin(); it != in_flight.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++it;
        continue;
      }
      const QueryResponse response = it->future.get();
      if (samples != nullptr) {
        Sample s;
        s.ok = response.status.ok();
        s.hit = response.cache_hit;
        s.coalesced = response.coalesced;
        s.latency = response.latency_seconds;
        s.queue_wait = response.queue_wait_seconds;
        s.compute = response.compute_seconds;
        s.done_at = clock.ElapsedSeconds();
        samples->push_back(s);
        if (s.ok && !s.hit && checked->size() < kCheckedResponses) {
          checked->push_back({it->source, response.scores});
        }
      }
      it = in_flight.erase(it);
      harvested = true;
    }
    if (!harvested) {
      in_flight.front().future.wait_for(std::chrono::microseconds(200));
    }
  }
}

double HistogramMean(const MetricsRegistry& registry, const std::string& name,
                     double empty_value) {
  for (const MetricsRegistry::Sample& s : registry.TakeSnapshot()) {
    if (s.name == name && s.histogram.count > 0) {
      return s.value / static_cast<double>(s.histogram.count);
    }
  }
  return empty_value;
}

void RunInProcess(RunState& run, const std::string& graph_path) {
  const ServeOptions serve_options = MakeServeOptions(run);
  std::unique_ptr<QueryService> service;
  // Set-up: .rsg load with section checksum verification until the
  // service is ready, repeated; the median is reported.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    service.reset();
    Timer setup;
    SnapshotLoadOptions load_options;
    load_options.verify_section_checksum = true;
    StatusOr<Graph> loaded = LoadSnapshot(graph_path, load_options);
    if (!loaded.ok()) {
      run.Fail("load " + graph_path + ": " + loaded.status().ToString());
      return;
    }
    const double load_seconds = setup.ElapsedSeconds();
    run.graph = std::move(loaded).value();
    run.config = ledger::MakeConfig(run.graph);
    service = std::make_unique<QueryService>(run.graph, run.config,
                                             serve_options);
    run.setup_samples.push_back(setup.ElapsedSeconds());
    run.load_samples.push_back(load_seconds);
  }

  ledger::OpStream stream(*run.workload, run.graph, run.seed);
  std::vector<Checked> checked;
  DriveService(*service, stream, run.workload->outstanding,
               run.workload->warmup_ops, 0.0, nullptr, nullptr);
  const ServerStats before = service->Snapshot();
  Timer timed;
  DriveService(*service, stream, run.workload->outstanding, 0, run.seconds,
               &run.samples, &checked);
  run.timed_wall = timed.ElapsedSeconds();
  run.rss_mb = ledger::PeakRssMb();
  const ServerStats after = service->Snapshot();

  if (after.completed != after.computed + after.coalesced + after.cache_hits) {
    run.Fail("service stats: completed != computed + coalesced + cache_hits");
  }
  const double completed = static_cast<double>(after.completed -
                                               before.completed);
  run.Layer("serve.hit_frac",
            Ratio(static_cast<double>(after.cache_hits - before.cache_hits),
                  completed),
            "ratio");
  run.Layer("serve.coalesced_frac",
            Ratio(static_cast<double>(after.coalesced - before.coalesced),
                  completed),
            "ratio");
  run.Layer("serve.rejected_frac",
            Ratio(static_cast<double>(after.rejected - before.rejected),
                  static_cast<double>(run.samples.size())),
            "ratio");
  run.Layer("batch.lanes_mean",
            HistogramMean(service->metrics(), "resacc_serve_batch_size", 1.0),
            "count");
  run.Layer("dynamic.invalidated_frac", 0.0, "ratio");
  run.Layer("dynamic.mutate_p50_ms", 0.0, "ms");
  run.Layer("protocol.overhead_us", 0.0, "us");
  run.Layer("protocol.bytes_per_response", 0.0, "bytes");
  service.reset();

  // Served answers must equal a fresh serial solver bit for bit.
  ResAccSolver reference(run.graph, run.config, run.options);
  for (const Checked& c : checked) {
    if (reference.Query(c.source) != *c.scores) {
      run.Fail("served scores differ from a serial solve for source " +
               std::to_string(c.source));
    }
  }
  run.notes.push_back("bit-identity checked on " +
                      std::to_string(checked.size()) + " served responses");
  CheckDefinition1(run, run.graph, checked.empty() ? 0 : checked[0].source);
}

// ---------------------------------------------------------------------------
// Protocol workload: resacc_serve over its line protocol.

std::map<std::string, double> ParseKeyValues(const std::string& line) {
  std::map<std::string, double> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq != std::string::npos) {
      out[token.substr(0, eq)] = std::atof(token.c_str() + eq + 1);
    }
  }
  return out;
}

// Sums the series of a Prometheus scrape by metric name (labels folded).
std::map<std::string, double> Scrape(ProtocolClient& client) {
  std::map<std::string, double> out;
  client.SendLine("metrics");
  client.Flush();
  std::string line;
  while (client.ReadLine(line) && line != "# EOF") {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    std::string name = line.substr(0, line.find_first_of("{ "));
    out[name] += std::atof(line.c_str() + space + 1);
  }
  return out;
}

// The part of a query/topk response a client compares: everything from
// " top" on (node:score list), plus the certificate and eps fields.
std::string ComparablePart(const std::string& line) {
  std::string out;
  for (const char* key : {"certified=", "k=", "eps="}) {
    const std::size_t at = line.find(std::string(" ") + key);
    if (at != std::string::npos) {
      out += line.substr(at, line.find(' ', at + 1) - at);
    }
  }
  const std::size_t top = line.find(" top");
  return out + (top == std::string::npos ? "" : line.substr(top));
}

std::string FormatQueryTail(const std::vector<Score>& scores, double eps) {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), " eps=%.3g top", eps);
  out += buf;
  for (const auto& [node, score] : TopKPairs(scores, ledger::kTopK)) {
    std::snprintf(buf, sizeof(buf), " %u:%.6e", node, score);
    out += buf;
  }
  return out;
}

std::string FormatTopKTail(const TopKResult& tk) {
  std::string out;
  char buf[96];
  std::snprintf(buf, sizeof(buf), " certified=%d k=%zu eps=%.3g top",
                tk.certified ? 1 : 0, tk.k, tk.achieved_epsilon);
  out += buf;
  for (const TopKEntry& e : tk.entries) {
    std::snprintf(buf, sizeof(buf), " %u:%.6e:%.6e:%.6e", e.node, e.estimate,
                  e.lower, e.upper);
    out += buf;
  }
  return out;
}

// A certified top-k line keeps every entry's lower bound at or above the
// outsider bound (last lower - gap), at the printed precision.
bool ProtocolCertificateHolds(const std::string& line) {
  if (line.find(" certified=1") == std::string::npos) return true;
  const double gap = ParseKeyValues(line)["gap"];
  if (gap < 0.0) return false;
  std::vector<double> lowers;
  std::istringstream in(line.substr(line.find(" top") + 4));
  std::string entry;
  while (in >> entry) {
    double est = 0, lower = 0, upper = 0;
    unsigned node = 0;
    if (std::sscanf(entry.c_str(), "%u:%lf:%lf:%lf", &node, &est, &lower,
                    &upper) != 4) {
      return false;
    }
    lowers.push_back(lower);
  }
  if (lowers.empty()) return false;
  const double outsider = lowers.back() - gap;
  for (double lower : lowers) {
    if (lower < outsider * (1.0 - 1e-5)) return false;
  }
  return true;
}

void RunProtocol(RunState& run, const std::string& graph_path,
                 const std::string& serve_path, const std::string& log_path) {
  const std::string command = "exec '" + serve_path + "' '" + graph_path +
                              "' " + ledger::kServerFlags + " 2>>'" +
                              log_path + "'";
  std::unique_ptr<ProtocolClient> client;
  // Set-up: spawn until the server answers `info`, repeated; the last
  // server stays up for the run.
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    if (client != nullptr) client->Shutdown();
    client = std::make_unique<ProtocolClient>();
    Timer setup;
    Status spawned = client->Spawn(command);
    StatusOr<NodeId> nodes =
        spawned.ok() ? client->Handshake() : StatusOr<NodeId>(spawned);
    if (!nodes.ok()) {
      run.Fail("server start: " + nodes.status().ToString());
      return;
    }
    run.setup_samples.push_back(setup.ElapsedSeconds());
  }
  {
    Timer load;
    SnapshotLoadOptions load_options;
    load_options.verify_section_checksum = true;
    StatusOr<Graph> loaded = LoadSnapshot(graph_path, load_options);
    if (!loaded.ok()) {
      run.Fail("load " + graph_path + ": " + loaded.status().ToString());
      return;
    }
    run.load_samples.push_back(load.ElapsedSeconds());
    run.graph = std::move(loaded).value();
    run.config = ledger::MakeConfig(run.graph);
  }

  ledger::OpStream stream(*run.workload, run.graph, run.seed);
  std::vector<WorkloadOp> mutations;  // in send order, for the replay
  std::set<NodeId> queried;
  bool closed = false;
  auto drive = [&](std::size_t ops, double deadline, bool record) {
    struct InFlight {
      WorkloadOp op;
      Timer sent;
    };
    std::deque<InFlight> in_flight;
    std::size_t sent = 0;
    Timer clock;
    auto more = [&] {
      return deadline > 0.0 ? clock.ElapsedSeconds() < deadline : sent < ops;
    };
    while (!closed) {
      while (in_flight.size() < run.workload->outstanding && more()) {
        const WorkloadOp op = stream.Next();
        char line[96];
        if (op.cls == OpClass::kMutation) {
          std::snprintf(line, sizeof(line), "%s %u %u",
                        op.remove ? "rmedge" : "addedge", op.source, op.target);
          mutations.push_back(op);
        } else {
          std::snprintf(line, sizeof(line), "%s %u %zu",
                        op.cls == OpClass::kTopK ? "topk" : "query", op.source,
                        ledger::kTopK);
          queried.insert(op.source);
        }
        client->SendLine(line);
        client->Flush();
        in_flight.push_back({op, Timer()});
        ++sent;
      }
      if (in_flight.empty()) break;
      std::string line;
      if (!client->ReadLine(line)) {
        run.Fail("server closed the pipe mid-run");
        closed = true;
        break;
      }
      const InFlight done = in_flight.front();
      in_flight.pop_front();
      if (!record) continue;
      Sample s;
      s.cls = done.op.cls;
      s.latency = done.sent.ElapsedSeconds();
      s.done_at = clock.ElapsedSeconds();
      s.bytes = line.size() + 1;
      s.ok = line.rfind("ok ", 0) == 0;
      if (done.op.cls != OpClass::kMutation) {
        const ProtocolResponse parsed = ProtocolClient::ParseResponse(line);
        s.hit = parsed.hit;
        s.coalesced = parsed.coalesced;
        s.server_us = parsed.latency_seconds * 1e6;
        if (s.ok && done.op.cls == OpClass::kTopK &&
            !ProtocolCertificateHolds(line)) {
          run.Fail("certified top-k with lower < outsider upper: " + line);
        }
      }
      run.samples.push_back(s);
    }
  };

  drive(run.workload->warmup_ops, 0.0, false);
  const std::map<std::string, double> before = Scrape(*client);
  Timer timed;
  drive(0, run.seconds, true);
  run.timed_wall = timed.ElapsedSeconds();
  if (closed) return;
  run.rss_mb = ledger::PeakRssMb(std::to_string(client->pid()));
  const std::map<std::string, double> after = Scrape(*client);
  auto delta = [&](const std::string& name) {
    const auto a = after.find(name);
    const auto b = before.find(name);
    return (a == after.end() ? 0.0 : a->second) -
           (b == before.end() ? 0.0 : b->second);
  };

  // The server's own accounting must balance.
  client->SendLine("stats");
  client->Flush();
  std::string stats_line;
  client->ReadLine(stats_line);
  std::map<std::string, double> stats = ParseKeyValues(stats_line);
  if (stats["completed"] !=
      stats["computed"] + stats["coalesced"] + stats["cache_hits"]) {
    run.Fail("server stats: completed != computed + coalesced + cache_hits: " +
             stats_line);
  }

  const double completed = delta("resacc_serve_completed_total");
  run.Layer("serve.hit_frac", Ratio(delta("resacc_serve_cache_hits_total"),
                                    completed), "ratio");
  run.Layer("serve.coalesced_frac",
            Ratio(delta("resacc_serve_coalesced_total"), completed), "ratio");
  run.Layer("serve.rejected_frac",
            Ratio(delta("resacc_serve_rejected_total"),
                  static_cast<double>(run.samples.size())),
            "ratio");
  run.Layer("serve.queue_wait_ms",
            1e3 * Ratio(delta("resacc_serve_queue_wait_seconds_sum"),
                        delta("resacc_serve_queue_wait_seconds_count")),
            "ms");
  run.Layer("serve.compute_ms",
            1e3 * Ratio(delta("resacc_serve_compute_seconds_sum"),
                        delta("resacc_serve_compute_seconds_count")),
            "ms");
  const double kept = delta("resacc_serve_cache_kept_total");
  const double invalidated = delta("resacc_serve_invalidated_total");
  run.Layer("dynamic.invalidated_frac", Ratio(invalidated, invalidated + kept),
            "ratio");
  run.Layer("selector.dense_frac",
            Ratio(delta("resacc_hybrid_dense_total"),
                  delta("resacc_hybrid_dense_total") +
                      delta("resacc_hybrid_local_total")),
            "ratio");
  run.Layer("batch.lanes_mean", 1.0, "count");

  // Fresh sources (never queried, so never cached) answered by the server
  // after the last mutation must match a serial solve on the final
  // snapshot, rebuilt by replaying the mutation ledger.
  MutableGraphView view(run.graph.ShallowView());
  for (const WorkloadOp& m : mutations) {
    const Status s = m.remove ? view.RemoveEdge(m.source, m.target)
                              : view.AddEdge(m.source, m.target);
    if (!s.ok() && s.code() != StatusCode::kAlreadyExists &&
        s.code() != StatusCode::kNotFound) {
      run.Fail("mutation replay: " + s.ToString());
    }
  }
  const Graph final_graph = view.Snapshot();
  ResAccSolver reference(final_graph, run.config, run.options);
  // Separate sources per verb: a `topk` after a `query` of the same
  // source would be served from the cached full vector.
  Rng pick(Rng(run.seed).Fork(0xc4ec));
  std::vector<NodeId> fresh;
  while (fresh.size() < 4) {
    const NodeId s =
        static_cast<NodeId>(pick.NextBounded(final_graph.num_nodes()));
    if (queried.insert(s).second) fresh.push_back(s);
  }
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    const NodeId source = fresh[i];
    const bool topk = i % 2 == 1;
    char request[64];
    std::snprintf(request, sizeof(request), "%s %u %zu",
                  topk ? "topk" : "query", source, ledger::kTopK);
    client->SendLine(request);
    client->Flush();
    std::string line;
    client->ReadLine(line);
    std::string expected;
    if (topk) {
      const TopKResult tk = reference.QueryTopK(source, ledger::kTopK);
      if (!CertificateHolds(tk)) {
        run.Fail("certified top-k with lower < outsider upper, source " +
                 std::to_string(source));
      }
      expected = FormatTopKTail(tk);
    } else {
      expected = FormatQueryTail(reference.Query(source), run.config.epsilon);
    }
    if (ComparablePart(line) != expected) {
      run.Fail("server answer differs from the final-snapshot solve:\n  " +
               line + "\n  expected" + expected);
    }
  }
  run.notes.push_back("protocol answers checked on " +
                      std::to_string(fresh.size()) +
                      " fresh sources against the replayed final snapshot (" +
                      std::to_string(mutations.size()) + " mutations)");
  client->Shutdown();
  CheckDefinition1(run, final_graph, fresh[0]);

  std::vector<double> overhead, bytes, mutate;
  for (const Sample& s : run.samples) {
    if (!s.ok) continue;
    bytes.push_back(static_cast<double>(s.bytes));
    if (s.cls == OpClass::kMutation) {
      mutate.push_back(s.latency * 1e3);
    } else {
      overhead.push_back(s.latency * 1e6 - s.server_us);
    }
  }
  run.Layer("protocol.overhead_us", ledger::Quantile(overhead, 0.5), "us");
  run.Layer("protocol.bytes_per_response", Mean(bytes), "bytes");
  run.Layer("dynamic.mutate_p50_ms", ledger::Quantile(mutate, 0.5), "ms");
}

// ---------------------------------------------------------------------------
// Traced run: the layer probe. The first kProbeSources distinct read
// sources of the workload's own stream are solved serially with
// phase_hook spans, untraced (for the overhead), with the selector forced
// each way (for its regret), in top-k mode and as one batch.

void RunLayerProbe(RunState& run) {
  const Graph& graph = run.graph;
  const ResAccOptions plain_options = run.options;
  // Full solves and top-k solves trace into separate logs, so each log's
  // phase self times belong to one query mode.
  ledger::SpanLog log, topk_log;
  ledger::PhaseTracer tracer(&log), topk_tracer(&topk_log);
  ResAccOptions traced_options = plain_options;
  traced_options.phase_hook = tracer.Hook();
  ResAccOptions topk_options = plain_options;
  topk_options.phase_hook = topk_tracer.Hook();
  ResAccOptions local_options = plain_options;
  local_options.hybrid.enable = false;
  ResAccOptions dense_options = plain_options;
  dense_options.hybrid.cost_ratio = 0.0;
  ResAccSolver plain(graph, run.config, plain_options);
  ResAccSolver traced(graph, run.config, traced_options);
  ResAccSolver traced_topk(graph, run.config, topk_options);
  ResAccSolver local(graph, run.config, local_options);
  ResAccSolver dense(graph, run.config, dense_options);

  std::vector<NodeId> sources;
  {
    ledger::OpStream stream(*run.workload, graph, run.seed);
    std::set<NodeId> seen;
    while (sources.size() < kProbeSources) {
      const WorkloadOp op = stream.Next();
      if (op.cls != OpClass::kMutation && seen.insert(op.source).second) {
        sources.push_back(op.source);
      }
    }
  }

  double plain_total = 0.0, solver_total = 0.0;
  double chosen_total = 0.0, best_total = 0.0;
  std::uint64_t hhop_pushes = 0, hhop_edges = 0, omfwd_pushes = 0,
                omfwd_edges = 0, walks = 0, steps = 0, dense_iterations = 0;
  std::size_t dense_queries = 0, certified = 0, refine_stages = 0;
  // Phase seconds as the solver reports them, for the aggregate rates.
  double hhop_seconds = 0.0, omfwd_seconds = 0.0, remedy_seconds = 0.0,
         dense_seconds = 0.0;
  std::vector<double> hhop_rate, omfwd_edge_rate, omfwd_push_rate, walk_rate,
      step_rate, dense_rate, bfs_us, hop_nodes;
  std::vector<std::vector<Score>> plain_scores;
  const double dense_sweep_edges =
      static_cast<double>(graph.num_nodes()) +
      static_cast<double>(graph.num_edges());

  for (std::size_t i = 0; i < sources.size(); ++i) {
    const NodeId source = sources[i];
    // Alternate which side runs first so neither always finds warm caches.
    std::vector<Score> untraced_scores, traced_scores;
    double t_plain = 0.0;
    ResAccQueryStats stats;
    for (int side = 0; side < 2; ++side) {
      if ((side == 0) == (i % 2 == 0)) {
        Timer t;
        untraced_scores = plain.Query(source);
        t_plain = t.ElapsedSeconds();
      } else {
        tracer.BeginQuery(i);
        traced_scores = traced.Query(source);
        tracer.EndQuery();
        stats = traced.last_stats();
      }
    }
    if (traced_scores != untraced_scores) {
      run.Fail("traced solve differs from untraced for source " +
               std::to_string(source));
    }
    plain_scores.push_back(std::move(untraced_scores));
    plain_total += t_plain;
    solver_total += stats.total_seconds;

    hhop_pushes += stats.hhop.push.push_operations;
    hhop_edges += stats.hhop.push.edge_traversals;
    omfwd_pushes += stats.omfwd_push.push_operations;
    omfwd_edges += stats.omfwd_push.edge_traversals;
    walks += stats.remedy.walks;
    steps += stats.remedy.steps;
    dense_iterations += stats.dense.iterations;
    hhop_seconds += stats.hhop_seconds;
    omfwd_seconds += stats.omfwd_seconds;
    remedy_seconds += stats.remedy_seconds;
    dense_seconds += stats.dense_seconds;
    if (stats.hhop.push.edge_traversals > 0) {
      hhop_rate.push_back(stats.hhop.push.edge_traversals / stats.hhop_seconds);
    }
    if (stats.omfwd_seconds > 0.0 && stats.omfwd_push.push_operations > 0) {
      omfwd_edge_rate.push_back(stats.omfwd_push.edge_traversals /
                                stats.omfwd_seconds);
      omfwd_push_rate.push_back(stats.omfwd_push.push_operations /
                                stats.omfwd_seconds);
    }
    if (stats.remedy_seconds > 0.0 && stats.remedy.walks > 0) {
      walk_rate.push_back(stats.remedy.walks / stats.remedy_seconds);
      step_rate.push_back(stats.remedy.steps / stats.remedy_seconds);
    }
    if (stats.path != SolverPath::kLocal) {
      ++dense_queries;
      dense_rate.push_back(stats.dense.iterations * dense_sweep_edges /
                           stats.dense_seconds);
    }

    // Selector regret: the chosen path against the cheaper of the two.
    Timer t_local;
    local.Query(source);
    const double local_seconds = t_local.ElapsedSeconds();
    Timer t_dense;
    dense.Query(source);
    const double forced_dense_seconds = t_dense.ElapsedSeconds();
    chosen_total += t_plain;
    best_total += std::min(local_seconds, forced_dense_seconds);

    const int bfs_span = log.Begin("hop_bfs", -1, i);
    const HopLayers layers =
        ComputeHopLayers(graph, source, run.options.num_hops + 1);
    log.End(bfs_span);
    const ledger::SpanLog::Span& bfs =
        log.spans()[static_cast<std::size_t>(bfs_span)];
    bfs_us.push_back((bfs.end - bfs.start) * 1e6);
    hop_nodes.push_back(
        static_cast<double>(layers.HopSetSize(run.options.num_hops)));

    topk_tracer.BeginQuery(i);
    const TopKResult tk = traced_topk.QueryTopK(source, ledger::kTopK);
    topk_tracer.EndQuery();
    if (!CertificateHolds(tk)) {
      run.Fail("certified top-k with lower < outsider upper, source " +
               std::to_string(source));
    }
    certified += tk.certified ? 1 : 0;
    refine_stages += tk.refine_stages;
  }

  // Layer self times; the full solves' phases must add up to the solver's
  // own total.
  const ledger::PhaseSeconds phase = ledger::PhaseSelfSeconds(log);
  const double traced_total = log.TotalSeconds("query");
  const double topk_query_seconds = topk_log.TotalSeconds("query");
  const double full_phase_sum = phase.Sum();
  const double n = static_cast<double>(sources.size());
  const double phase_sum_frac = Ratio(full_phase_sum, solver_total);
  if (std::abs(phase_sum_frac - 1.0) > 0.05) {
    run.Fail("traced phase self times sum to " +
             std::to_string(phase_sum_frac) + " of the solver total");
  }

  // One batch over the probe sources, lanes checked against serial.
  BatchSolver batch(graph, run.config, plain_options);
  std::vector<BatchLane> lanes;
  for (NodeId s : sources) lanes.push_back(BatchLane{s, nullptr, 0});
  const int batch_span = log.Begin("batch");
  const std::vector<ControlledQueryResult> batch_results =
      batch.QueryBatch(lanes);
  log.End(batch_span);
  const double batch_seconds = log.TotalSeconds("batch");
  for (std::size_t i = 0; i < batch_results.size(); ++i) {
    if (batch_results[i].scores != plain_scores[i]) {
      run.Fail("batch lane differs from serial for source " +
               std::to_string(sources[i]));
    }
  }
  const BatchQueryStats& batch_stats = batch.last_stats();

  const double hhop_s = phase.hhop, omfwd_s = phase.omfwd,
               remedy_s = phase.remedy, dense_s = phase.dense;
  run.Layer("graph.load_s", ledger::Quantile(run.load_samples, 0.5), "s");
  run.Layer("graph.hop_bfs_us", Mean(bfs_us), "us");
  run.Layer("graph.hop_set_nodes", Mean(hop_nodes), "count");
  run.Layer("hhop.ms_per_query", 1e3 * hhop_s / n, "ms");
  run.Layer("hhop.pushes", static_cast<double>(hhop_pushes), "count");
  run.Layer("hhop.edges", static_cast<double>(hhop_edges), "count");
  run.Layer("hhop.edges_per_s", Ratio(hhop_edges, hhop_seconds), "1/s");
  run.Layer("omfwd.ms_per_query", 1e3 * omfwd_s / n, "ms");
  run.Layer("omfwd.pushes", static_cast<double>(omfwd_pushes), "count");
  run.Layer("omfwd.edges", static_cast<double>(omfwd_edges), "count");
  run.Layer("omfwd.edges_per_s", Ratio(omfwd_edges, omfwd_seconds), "1/s");
  run.Layer("omfwd.pushes_per_s", Ratio(omfwd_pushes, omfwd_seconds), "1/s");
  run.Layer("remedy.ms_per_query", 1e3 * remedy_s / n, "ms");
  run.Layer("remedy.walks", static_cast<double>(walks), "count");
  run.Layer("remedy.steps", static_cast<double>(steps), "count");
  run.Layer("remedy.walks_per_s", Ratio(walks, remedy_seconds), "1/s");
  run.Layer("remedy.steps_per_s", Ratio(steps, remedy_seconds), "1/s");
  run.Layer("dense.ms_per_query",
            dense_queries > 0 ? 1e3 * dense_s / dense_queries : 0.0, "ms");
  run.Layer("dense.iterations", static_cast<double>(dense_iterations),
            "count");
  run.Layer("dense.edges_per_s",
            Ratio(dense_iterations * dense_sweep_edges, dense_seconds),
            "1/s");
  if (run.layer.count("selector.dense_frac") == 0) {
    run.Layer("selector.dense_frac", dense_queries / n, "ratio");
  }
  run.Layer("selector.regret_frac",
            Ratio(chosen_total - best_total, chosen_total), "ratio");
  run.Layer("topk.certified_frac", certified / n, "ratio");
  run.Layer("topk.refine_stages", refine_stages / n, "count");
  run.Layer("topk.ms_per_query", 1e3 * topk_query_seconds / n, "ms");
  run.Layer("batch.pushes_per_pop",
            Ratio(static_cast<double>(batch_stats.push_operations),
                  static_cast<double>(batch_stats.shared_node_pops)),
            "count");
  run.Layer("batch.ms_per_lane", 1e3 * batch_seconds / n, "ms");
  run.Layer("trace.overhead_frac", Ratio(traced_total - plain_total,
                                         plain_total), "ratio");
  run.Layer("trace.phase_sum_frac", phase_sum_frac, "ratio");
  run.spans_json =
      "{\"full\":" + log.ToJson() + ",\"topk\":" + topk_log.ToJson() + "}";

  const std::pair<const char*, const std::vector<double>*> rates[] = {
      {"hhop.edges_per_s", &hhop_rate},
      {"omfwd.edges_per_s", &omfwd_edge_rate},
      {"omfwd.pushes_per_s", &omfwd_push_rate},
      {"remedy.walks_per_s", &walk_rate},
      {"remedy.steps_per_s", &step_rate},
      {"dense.edges_per_s", &dense_rate}};
  for (const auto& [name, samples] : rates) {
    run.notes.push_back(FormatDistribution(name, *samples, "1/s"));
  }
  char split[160];
  const double solve = hhop_s + omfwd_s + remedy_s + dense_s;
  std::snprintf(split, sizeof(split),
                "  phase split of %zu full solves: hhop %.1f%% omfwd %.1f%% "
                "remedy %.1f%% dense %.1f%%",
                sources.size(), 100 * Ratio(hhop_s, solve),
                100 * Ratio(omfwd_s, solve), 100 * Ratio(remedy_s, solve),
                100 * Ratio(dense_s, solve));
  run.notes.push_back(split);
}

// ---------------------------------------------------------------------------

int Generate(const std::string& dir) {
  std::filesystem::create_directories(dir);
  for (ledger::GraphId id : {ledger::GraphId::kA, ledger::GraphId::kB}) {
    const std::string path = dir + "/" + ledger::GraphFileName(id);
    if (std::filesystem::exists(path)) continue;
    const Graph graph = ledger::MakeGraph(id);
    const std::string tmp = path + ".tmp";
    const Status saved = SaveSnapshot(graph, tmp);
    if (!saved.ok()) {
      std::fprintf(stderr, "ledger_bench: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::filesystem::rename(tmp, path);
    std::printf("generated %s: %u nodes, %llu edges\n", path.c_str(),
                graph.num_nodes(),
                static_cast<unsigned long long>(graph.num_edges()));
  }
  return 0;
}

int Run(const std::map<std::string, std::string>& flags) {
  auto flag = [&](const std::string& key, const std::string& fallback) {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  };
  RunState run;
  run.workload = ledger::FindWorkload(flag("workload", ""));
  if (run.workload == nullptr) {
    std::fprintf(stderr, "ledger_bench: unknown --workload '%s'\n",
                 flag("workload", "").c_str());
    return 2;
  }
  run.seed = std::strtoull(flag("seed", "1").c_str(), nullptr, 10);
  run.seconds = std::atof(flag("seconds", "10").c_str());
  run.trace = flag("trace", "0") == "1";
  run.options = ledger::MakeOptions(*run.workload);
  const std::string dir = flag("dir", ".bench_build/graphs");
  const std::string graph_path =
      dir + "/" + ledger::GraphFileName(run.workload->graph);

  if (run.workload->transport == ledger::Transport::kInProcess) {
    RunInProcess(run, graph_path);
  } else {
    RunProtocol(run, graph_path, flag("serve", ""),
                flag("server-log", "/dev/null"));
  }
  if (run.graph.num_nodes() == 0) {
    for (const std::string& f : run.failures) {
      std::fprintf(stderr, "ledger_bench: %s\n", f.c_str());
    }
    return 1;
  }
  run.stream_hash = ledger::StreamHash(*run.workload, run.graph, run.seed, 256);
  if (run.trace) RunLayerProbe(run);

  // End-to-end figures from the raw client samples.
  std::vector<double> full_ms, topk_ms;
  std::vector<double> window_reads(kQpsWindows, 0.0);
  std::size_t failed = 0;
  std::vector<double> queue_wait, compute;
  for (const Sample& s : run.samples) {
    if (!s.ok) {
      ++failed;
      continue;
    }
    if (s.cls == OpClass::kMutation) continue;
    const int window = static_cast<int>(s.done_at / run.seconds * kQpsWindows);
    if (window < kQpsWindows) ++window_reads[window];
    (s.cls == OpClass::kTopK ? topk_ms : full_ms).push_back(s.latency * 1e3);
    if (!s.hit && !s.coalesced) {
      queue_wait.push_back(s.queue_wait * 1e3);
      compute.push_back(s.compute * 1e3);
    }
  }
  std::map<std::string, Metric> e2e;
  e2e["setup_s"] = {ledger::Quantile(run.setup_samples, 0.5), "s"};
  e2e["qps"] = {ledger::Quantile(window_reads, 0.5) * kQpsWindows /
                    run.seconds,
                "1/s"};
  e2e["full_p50_ms"] = {ledger::Quantile(full_ms, 0.5), "ms"};
  e2e["full_p90_ms"] = {ledger::Quantile(full_ms, 0.9), "ms"};
  e2e["rss_mb"] = {run.rss_mb, "MB"};
  if (run.trace) {
    run.Layer("topk.p50_ms", ledger::Quantile(topk_ms, 0.5), "ms");
    run.Layer("topk.p90_ms", ledger::Quantile(topk_ms, 0.9), "ms");
    run.Layer("serve.failed_frac",
              Ratio(static_cast<double>(failed),
                    static_cast<double>(run.samples.size())),
              "ratio");
    if (run.workload->transport == ledger::Transport::kInProcess) {
      run.Layer("serve.queue_wait_ms", Mean(queue_wait), "ms");
      run.Layer("serve.compute_ms", Mean(compute), "ms");
    }
  }

  // Human-readable report, then the record file, then the result line.
  const bool correct = run.failures.empty();
  std::printf("workload %s seed %llu: %zu ops in %.2fs (%zu full, %zu topk, "
              "%zu failed)\n",
              run.workload->name.c_str(),
              static_cast<unsigned long long>(run.seed), run.samples.size(),
              run.timed_wall, full_ms.size(), topk_ms.size(), failed);
  for (const auto& [name, m] : e2e) {
    std::printf("  %-28s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  if (run.trace) {
    for (const auto& [name, m] : run.layer) {
      std::printf("  %-28s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
    }
  }
  for (const std::string& note : run.notes) std::printf("%s\n", note.c_str());
  for (const std::string& f : run.failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }

  const std::map<std::string, Metric>& reported = run.trace ? run.layer : e2e;
  std::string metrics_json = "{";
  for (const auto& [name, m] : reported) {
    if (metrics_json.size() > 1) metrics_json += ",";
    metrics_json += ledger::JsonString(name) + ":{\"value\":" +
                    ledger::JsonNumber(m.value) +
                    ",\"unit\":" + ledger::JsonString(m.unit) + "}";
  }
  metrics_json += "}";

  const std::string record_path = flag("record", "");
  if (!record_path.empty()) {
    std::ofstream record(record_path);
    record << "{\"workload\":" << ledger::JsonString(run.workload->name)
           << ",\"seed\":" << run.seed << ",\"seconds\":"
           << ledger::JsonNumber(run.seconds) << ",\"trace\":" << run.trace
           << ",\"git_sha\":" << ledger::JsonString(flag("git-sha", "unknown"))
           << ",\"stream_hash\":"
           << ledger::JsonString(std::to_string(run.stream_hash));
    for (const auto& [key, value] : ledger::HostBuildInfo()) {
      record << "," << ledger::JsonString(key) << ":"
             << ledger::JsonString(value);
    }
    record << ",\"graph_checksums\":{";
    bool first = true;
    for (ledger::GraphId id : {ledger::GraphId::kA, ledger::GraphId::kB}) {
      char checksum[24];
      std::snprintf(checksum, sizeof(checksum), "%016llx",
                    static_cast<unsigned long long>(ledger::FileChecksum(
                        dir + "/" + ledger::GraphFileName(id))));
      record << (first ? "" : ",")
             << ledger::JsonString(ledger::GraphFileName(id)) << ":"
             << ledger::JsonString(checksum);
      first = false;
    }
    record << "},\"correct\":" << (correct ? "true" : "false")
           << ",\"metrics\":" << metrics_json << ",\"spans\":"
           << run.spans_json << "}\n";
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false", run.samples.size(), failed,
              metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: ledger_bench gen|run [--flags]\n");
    return 2;
  }
  const std::string mode = argv[1];
  const std::map<std::string, std::string> flags = ParseFlags(argc, argv);
  if (mode == "gen") {
    const auto dir = flags.find("dir");
    return Generate(dir == flags.end() ? ".bench_build/graphs" : dir->second);
  }
  if (mode == "run") return Run(flags);
  std::fprintf(stderr, "ledger_bench: unknown mode '%s'\n", mode.c_str());
  return 2;
}
