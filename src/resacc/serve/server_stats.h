#ifndef RESACC_SERVE_SERVER_STATS_H_
#define RESACC_SERVE_SERVER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "resacc/util/histogram.h"

namespace resacc {

// Point-in-time view of a QueryService, cheap enough to take per scrape.
// Counters are cumulative since service construction; `latency` is the
// submit-to-completion distribution of every finished request (cache hits
// included — that is the latency a client saw).
struct ServerStats {
  std::uint64_t submitted = 0;  // accepted into the service
  std::uint64_t completed = 0;  // responded OK (computed, cached, coalesced)
  std::uint64_t rejected = 0;   // backpressure: queue full at submit
  std::uint64_t expired = 0;    // deadline passed (queued or mid-compute)
  std::uint64_t coalesced = 0;  // attached to an identical in-flight query
  std::uint64_t computed = 0;   // solver executions (cache+coalescing saves
                                // show up as completed - computed)
  std::uint64_t degraded = 0;   // answered OK with an achieved-epsilon tag
                                // above the configured bound
  std::uint64_t cancelled = 0;  // resolved with kCancelled via Cancel()

  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_entries = 0;

  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;
  std::size_t num_workers = 0;

  double uptime_seconds = 0.0;
  // completed / uptime. The benches compute per-window QPS themselves;
  // this is the lifetime average for monitoring.
  double qps = 0.0;

  LatencyHistogram::Snapshot latency;
  // The split of `latency`: time a job spent queued before a worker
  // picked it up (every dequeued job, including ones that expired while
  // waiting — that wait is exactly the interesting number) vs. time
  // inside the solver (computed jobs only). Cache hits appear in
  // neither, so counts differ from `latency`'s.
  LatencyHistogram::Snapshot queue_wait;
  LatencyHistogram::Snapshot compute;

  // hits / (hits + misses); 0 when the cache is disabled or untouched.
  double CacheHitRate() const;

  // Multi-line human-readable rendering for the `stats` protocol verb and
  // the demo binaries.
  std::string ToString() const;

  // Single-line `key=value` rendering for log scraping and the `stats`
  // protocol reply.
  std::string ToLine() const;
};

}  // namespace resacc

#endif  // RESACC_SERVE_SERVER_STATS_H_
