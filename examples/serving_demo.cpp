// serving_demo — embedding the QueryService in an application.
//
// Loads (generates) a graph, starts an in-process serving layer, warms the
// result cache with the expected hot sources, then issues a mix of top-k
// queries from several client threads — the "friend suggestion service"
// shape: a few celebrity accounts dominate the query stream.

#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "resacc/graph/generators.h"
#include "resacc/serve/query_service.h"
#include "resacc/serve/workload.h"

using namespace resacc;

int main() {
  // A scale-free social-network stand-in.
  const Graph graph = ChungLuPowerLaw(20000, 160000, 2.2, /*seed=*/42);
  RwrConfig config = RwrConfig::ForGraphSize(graph.num_nodes());
  config.seed = 7;

  ServeOptions options;
  options.num_workers = 4;
  options.queue_capacity = 256;
  options.cache_bytes = static_cast<std::size_t>(32) << 20;
  options.coalesce = true;
  options.default_deadline_seconds = 2.0;  // shed queries stuck > 2s

  QueryService service(graph, config, options);
  std::printf("service up: %zu workers, %u nodes\n", service.num_workers(),
              graph.num_nodes());

  // Warm the cache for the known-hot sources before opening the doors:
  // the first real user of a hot source then gets a sub-millisecond hit.
  const std::vector<NodeId> hot = graph.NodesByOutDegreeDesc();
  std::vector<std::future<QueryResponse>> warmup;
  for (std::size_t i = 0; i < 8 && i < hot.size(); ++i) {
    warmup.push_back(service.Submit(QueryRequest{hot[i], 0, 0.0}));
  }
  for (auto& f : warmup) f.get();
  std::printf("cache warmed with %zu hot sources\n", warmup.size());

  // Mixed traffic: 4 clients, Zipfian over the whole graph, top-10.
  ZipfianSources zipf(graph.num_nodes(), 0.99, /*seed=*/3);
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&service, &zipf, c] {
      Rng rng(100 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < 32; ++i) {
        QueryRequest request;
        request.source = zipf.Next(rng);
        request.top_k = 10;
        const QueryResponse response = service.Query(request);
        if (!response.status.ok()) {
          std::fprintf(stderr, "client %d: %s\n", c,
                       response.status.ToString().c_str());
        } else if (i == 0) {
          std::printf(
              "client %d first answer: source=%u best=%u (%.3e) %s\n", c,
              request.source, response.topk->entries[0].node,
              response.topk->entries[0].estimate,
              response.cache_hit ? "[cache hit]" : "[computed]");
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  std::printf("\n%s\n", service.Snapshot().ToString().c_str());
  return 0;
}
