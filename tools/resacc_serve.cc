// resacc_serve — line-protocol RWR query server over stdin/stdout.
//
//   resacc_serve <graph> [options]
//
// kUsage below lists every option (docs/API.md describes them). Any
// other option is named on stderr and the server exits 2 before it
// starts serving.
//
// --tenants configures multi-tenant QoS (ServeOptions::tenant_weights):
// each named tenant gets its own bounded admission lane and a weighted
// fair share of the workers; requests name their tenant with a trailing
// `tenant=<name>` token. Unknown or absent tenants ride the
// implicit weight-1 default lane.
//
// The line protocol (requests, replies, optional tokens, limits) is
// defined once in src/resacc/serve/protocol.h.
//
// Mutations (docs/API.md "Dynamic graphs") are applied synchronously in
// the reader thread before later lines are parsed, so a query sent after
// a mutation always sees it. applied=0 means the mutation validated but
// was a no-op (duplicate add, missing remove); malformed or out-of-range
// mutations come back as err lines. --compact-threshold=R additionally
// folds the delta overlay into a fresh base on a background thread once
// it carries R dirty rows; `compact` forces a fold now.
// --snapshot-prefix=PATH persists every compacted generation as
// PATH.gen<G>.rsg with the generation stamped in the RESACC02 header.
//
// The service registers its metrics in MetricsRegistry::Global(), so a
// `metrics` scrape carries the serve series next to the solver phase
// histograms and walk-engine counters (docs/OBSERVABILITY.md catalogs
// them). --stats-interval=S additionally prints the `stats` key=value
// line to stderr every S seconds.
//
// The reader thread submits queries asynchronously (up to --window in
// flight) while a writer thread streams responses back in order, so a
// pipelining client keeps every worker busy through a plain pipe and a
// stop-and-wait client still gets each answer immediately.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "resacc/graph/dynamic/mutable_graph_view.h"
#include "resacc/graph/graph_io.h"
#include "resacc/graph/graph_snapshot.h"
#include "resacc/obs/metrics_registry.h"
#include "resacc/obs/stats_reporter.h"
#include "resacc/serve/protocol.h"
#include "resacc/serve/query_service.h"
#include "resacc/util/args.h"
#include "resacc/util/bounded_queue.h"
#include "resacc/util/timer.h"

using namespace resacc;

namespace {

constexpr const char* kUsage =
    "usage: resacc_serve <graph> [--undirected] [--workers=N] [--queue=N]\n"
    "         [--cache-mb=M] [--no-coalesce] [--deadline-ms=D]\n"
    "         [--allow-degraded] [--window=W]\n"
    "         [--alpha=A] [--epsilon=E] [--seed=S]\n"
    "         [--dangling=absorb|source] [--walk-threads=W]\n"
    "         [--hybrid] [--hybrid-ratio=R]\n"
    "         [--max-batch=B] [--batch-linger-us=U]\n"
    "         [--stats-interval=SECONDS] [--compact-threshold=R]\n"
    "         [--snapshot-prefix=PATH] [--invalidation=targeted|flush]\n"
    "         [--tenants=name:weight,...]\n";

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (args.positionals().empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  // Startup graph load: .rsg snapshots mmap in O(header) time
  // (graph_snapshot.h), .bin / text formats parse as before. Load time and
  // resident bytes land in the metrics registry so a `metrics` scrape — or
  // an operator diffing restarts — sees what startup cost.
  const std::string& path = args.positionals()[0];
  const bool snapshot =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".rsg") == 0;
  // Read in every mode, so passing it is never an unread option; a
  // snapshot's CSR is loaded as saved.
  const bool undirected = args.HasFlag("undirected");
  Timer load_timer;
  SnapshotLoadInfo load_info;
  const StatusOr<Graph> graph =
      snapshot ? LoadSnapshot(path, SnapshotLoadOptions{}, &load_info)
               : LoadGraphAuto(path, undirected);
  const double load_seconds = load_timer.ElapsedSeconds();
  if (!graph.ok()) {
    std::fprintf(stderr, "%s\n", graph.status().ToString().c_str());
    return 1;
  }
  MetricsRegistry::Global()
      .GetGauge("resacc_graph_load_seconds", "",
                "Wall-clock seconds loading the serving graph at startup")
      .Set(load_seconds);
  MetricsRegistry::Global()
      .GetGauge("resacc_graph_resident_bytes", "",
                "CSR bytes resident for the serving graph (heap or mapped)")
      .Set(static_cast<double>(graph.value().MemoryBytes()));
  Gauge& generation_gauge = MetricsRegistry::Global().GetGauge(
      "resacc_graph_generation", "",
      "Compaction generation of the serving graph's base CSR");
  generation_gauge.Set(static_cast<double>(load_info.generation));
  std::fprintf(stderr,
               "[serve] graph loaded in %.3fs (resident=%zu bytes, mmap=%d)\n",
               load_seconds, graph.value().MemoryBytes(),
               load_info.mmap_used ? 1 : 0);
  if (snapshot) {
    std::fprintf(stderr, "[serve] snapshot header: format=RESACC%02u "
                 "generation=%llu\n",
                 load_info.format_version,
                 static_cast<unsigned long long>(load_info.generation));
  }

  RwrConfig config = RwrConfig::ForGraphSize(graph.value().num_nodes());
  config.alpha = args.GetDouble("alpha", config.alpha);
  config.epsilon = args.GetDouble("epsilon", config.epsilon);
  config.seed = static_cast<std::uint64_t>(args.GetInt("seed", 0x5eed));
  // Same default as `resacc query`, so the two tools agree on sink graphs.
  config.dangling = args.GetString("dangling", "absorb") == "source"
                        ? DanglingPolicy::kBackToSource
                        : DanglingPolicy::kAbsorb;

  ServeOptions options;
  options.num_workers = static_cast<std::size_t>(args.GetInt("workers", 0));
  options.queue_capacity =
      static_cast<std::size_t>(args.GetInt("queue", 1024));
  options.cache_bytes =
      static_cast<std::size_t>(args.GetInt("cache-mb", 64)) * 1024 * 1024;
  options.coalesce = !args.HasFlag("no-coalesce");
  options.default_deadline_seconds =
      args.GetDouble("deadline-ms", 0.0) / 1e3;
  // --allow-degraded makes every query accept a deadline-truncated
  // partial result (tagged degraded=1 with its honest eps) instead of an
  // err line (docs/API.md).
  const bool allow_degraded = args.HasFlag("allow-degraded");
  // Walk-phase threads per worker solver. Default 1: the service already
  // runs one solver per worker, and scores never depend on this knob
  // (walk_engine.h), so raising it only trades worker throughput for
  // single-query latency — useful with --workers=1 on a big machine.
  options.solver.walk_threads =
      static_cast<std::size_t>(args.GetInt("walk-threads", 1));
  // --hybrid arms the local/dense selector (core/power_iter.h): hub
  // sources go to whole-graph power iteration when their local cost beats
  // --hybrid-ratio x the dense bound. The knobs are part of the result
  // cache's config hash, so cached entries never cross selection policies.
  options.solver.hybrid.enable = args.HasFlag("hybrid");
  options.solver.hybrid.cost_ratio = args.GetDouble("hybrid-ratio", 1.0);
  // Batched solving (docs/API.md "Batched solving"): a worker gathers up
  // to --max-batch queued queries — lingering --batch-linger-us for
  // stragglers — and solves them as one multi-source batch. Answers are
  // bit-identical either way; the knobs trade a bounded latency bump for
  // throughput under concurrent load.
  options.max_batch = static_cast<std::size_t>(args.GetInt("max-batch", 1));
  options.batch_linger_us =
      static_cast<std::uint64_t>(args.GetInt("batch-linger-us", 0));
  // One process, one service: share the process-wide registry so the
  // `metrics` verb sees serve, solver, and walk-engine series together.
  options.metrics_registry = &MetricsRegistry::Global();
  options.invalidation =
      args.GetString("invalidation", "targeted") == "flush"
          ? ServeOptions::InvalidationMode::kFlushAll
          : ServeOptions::InvalidationMode::kTargeted;
  // Multi-tenant QoS: --tenants=gold:4,bronze:1 maps each name to a fair
  // queue lane with that weight (see the header comment's protocol notes).
  const std::string tenants_flag = args.GetString("tenants", "");
  for (std::size_t pos = 0; pos < tenants_flag.size();) {
    std::size_t comma = tenants_flag.find(',', pos);
    if (comma == std::string::npos) comma = tenants_flag.size();
    const std::string item = tenants_flag.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    const std::string name =
        colon == std::string::npos ? item : item.substr(0, colon);
    const double weight =
        colon == std::string::npos
            ? 1.0
            : std::atof(item.c_str() + colon + 1);
    if (name.empty() || name == "default" || !(weight > 0.0)) {
      std::fprintf(stderr, "resacc_serve: bad --tenants item '%s'\n",
                   item.c_str());
      return 2;
    }
    options.tenant_weights.emplace_back(name, weight);
  }

  // The live-graph layer: mutations go through the view; the service is
  // re-pointed at a fresh epoch snapshot after every applied batch. Held
  // in a unique_ptr so the compactor thread can be joined (reset) before
  // the service — whose UpdateGraph the compaction callback calls — is
  // destroyed.
  MutableGraphOptions view_options;
  view_options.compact_threshold_rows =
      static_cast<std::size_t>(args.GetInt("compact-threshold", 0));
  view_options.snapshot_path_prefix = args.GetString("snapshot-prefix", "");
  view_options.initial_generation = load_info.generation;
  // Replies in flight; negative (the default) means two per worker.
  const std::int64_t window_flag = args.GetInt("window", -1);
  const double stats_interval = args.GetDouble("stats-interval", 0.0);

  // Every option has been read: one that was not is a typo or a flag
  // this server does not have, and silently ignoring it would serve with
  // settings the operator did not ask for.
  const std::vector<std::string> unread = args.UnusedOptions();
  if (!unread.empty()) {
    for (const std::string& name : unread) {
      std::fprintf(stderr, "resacc_serve: unknown option --%s\n",
                   name.c_str());
    }
    std::fputs(kUsage, stderr);
    return 2;
  }

  auto view = std::make_unique<MutableGraphView>(graph.value().ShallowView(),
                                                 view_options);
  const Graph serving_graph = view->Snapshot();

  QueryService service(serving_graph, config, options);
  view->set_compaction_callback(
      [&service, &generation_gauge, view_ptr = view.get()](
          const CompactionInfo& info) {
        // Same content, new physical base: epoch unchanged, empty delta.
        service.UpdateGraph(view_ptr->Snapshot(), GraphDelta{});
        generation_gauge.Set(static_cast<double>(info.generation));
        std::fprintf(stderr,
                     "[serve] compacted: gen=%llu folded=%zu ms=%.1f%s%s\n",
                     static_cast<unsigned long long>(info.generation),
                     info.folded_rows, info.seconds * 1e3,
                     info.snapshot_path.empty() ? "" : " -> ",
                     info.snapshot_path.c_str());
      });
  const std::size_t window = window_flag >= 0
                                 ? static_cast<std::size_t>(window_flag)
                                 : 2 * service.num_workers();

  std::fprintf(stderr, "[serve] ready: nodes=%u edges=%llu workers=%zu\n",
               graph.value().num_nodes(),
               static_cast<unsigned long long>(graph.value().num_edges()),
               service.num_workers());

  // Periodic one-line stats on stderr (stdout carries the protocol).
  std::unique_ptr<StatsReporter> reporter;
  if (stats_interval > 0.0) {
    reporter = std::make_unique<StatsReporter>(
        stats_interval,
        [&service] { return "[serve] stats " + service.Snapshot().ToLine(); },
        stderr);
  }

  // Every reply is a deferred computation that one writer thread runs in
  // submission order: clients correlate replies by position, and a
  // `stats` reply reflects every query answered before it.
  BoundedQueue<std::future<std::string>> output(window > 0 ? window : 1);
  std::thread writer([&output] {
    std::future<std::string> reply;
    while (output.Pop(reply)) {
      const std::string line = reply.get();
      std::fwrite(line.data(), 1, line.size(), stdout);
      std::fputc('\n', stdout);
      std::fflush(stdout);
    }
  });
  // Queues a reply; blocks once `window` are in flight.
  auto reply = [&output](auto make_line) {
    output.Push(std::async(std::launch::deferred, std::move(make_line)));
  };
  auto reply_line = [&reply](std::string line) {
    reply([line = std::move(line)] { return line; });
  };

  std::string line;
  bool quit = false;
  while (!quit) {
    const LineRead read = ReadProtocolLine(stdin, line, kMaxRequestBytes);
    if (read == LineRead::kEnd) break;
    if (read == LineRead::kTooLong) {
      reply_line(FormatErrorResponse("request line longer than " +
                                     std::to_string(kMaxRequestBytes) +
                                     " bytes"));
      continue;
    }
    const StatusOr<ProtocolRequest> parsed = ParseRequest(line);
    if (!parsed.ok()) {
      reply_line(FormatErrorResponse(parsed.status().message()));
      continue;
    }
    const ProtocolRequest& request = parsed.value();
    switch (request.verb) {
      case ProtocolVerb::kBlank:
        break;
      case ProtocolVerb::kQuery:
      case ProtocolVerb::kTopK: {
        // `query` is a full solve whose reply lists top_k pairs cut from
        // the vector; `topk` is the solver's top-k mode.
        const bool topk_mode = request.verb == ProtocolVerb::kTopK;
        QueryRequest query;
        query.source = request.source;
        query.top_k = topk_mode ? request.top_k : 0;
        query.deadline_seconds = request.deadline_ms / 1e3;
        query.allow_degraded = allow_degraded || request.degraded;
        query.tenant = request.tenant;
        reply([source = request.source, top_k = request.top_k, topk_mode,
               future = service.Submit(query)]() mutable {
          const QueryResponse response = future.get();
          return topk_mode ? FormatTopKResponse(source, response)
                           : FormatQueryResponse(source, top_k, response);
        });
        break;
      }
      case ProtocolVerb::kInfo: {
        const Graph live = view->Snapshot();
        const MutableGraphStats graph = view->stats();
        reply_line(FormatInfoResponse({.nodes = live.num_nodes(),
                                       .edges = live.num_edges(),
                                       .workers = service.num_workers(),
                                       .epoch = graph.epoch,
                                       .generation = graph.generation,
                                       .overlay_rows = graph.overlay_rows}));
        break;
      }
      case ProtocolVerb::kAddEdge:
      case ProtocolVerb::kRmEdge: {
        GraphDelta delta;
        const Status status =
            request.verb == ProtocolVerb::kRmEdge
                ? view->RemoveEdge(request.source, request.target, &delta)
                : view->AddEdge(request.source, request.target, &delta);
        if (!status.ok() && status.code() != StatusCode::kAlreadyExists &&
            status.code() != StatusCode::kNotFound) {
          reply_line(FormatErrorResponse(status.ToString()));
          break;
        }
        // A no-op mutation (duplicate add / missing remove) publishes no
        // epoch and needs no service update.
        if (status.ok()) service.UpdateGraph(view->Snapshot(), delta);
        reply_line(FormatMutationResponse(request.verb, request.source,
                                          request.target, status.ok(),
                                          view->epoch()));
        break;
      }
      case ProtocolVerb::kAddNode: {
        GraphDelta delta;
        const NodeId id = view->AddNode(&delta);
        service.UpdateGraph(view->Snapshot(), delta);
        reply_line(FormatAddNodeResponse(id, view->epoch()));
        break;
      }
      case ProtocolVerb::kCompact:
        // The compaction callback re-points the service and the gauge;
        // this verb just reports what the fold did.
        reply_line(FormatCompactResponse(view->Compact()));
        break;
      case ProtocolVerb::kStats:
        reply([&service] { return FormatStatsResponse(service.Snapshot()); });
        break;
      case ProtocolVerb::kMetrics:
        // Multi-line; the kMetricsEnd line tells the client it is done.
        reply([&service] {
          return service.metrics().RenderPrometheus() +
                 std::string(kMetricsEnd);
        });
        break;
      case ProtocolVerb::kQuit:
        reply_line(std::string(kQuitReply));
        quit = true;
        break;
    }
  }

  output.Close();
  writer.join();
  // Join the compactor before `service` (declared later, destroyed first)
  // goes away: its callback re-points the service.
  view.reset();
  return 0;
}
