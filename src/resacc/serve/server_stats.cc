#include "resacc/serve/server_stats.h"

#include <cstdio>

namespace resacc {

double ServerStats::CacheHitRate() const {
  const std::uint64_t lookups = cache_hits + cache_misses;
  return lookups == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(lookups);
}

std::string ServerStats::ToString() const {
  char buf[960];
  std::snprintf(
      buf, sizeof(buf),
      "requests: submitted=%llu completed=%llu rejected=%llu expired=%llu "
      "cancelled=%llu\n"
      "work:     computed=%llu coalesced=%llu degraded=%llu\n"
      "cache:    hits=%llu misses=%llu hit_rate=%.1f%% evictions=%llu "
      "entries=%zu bytes=%zu\n"
      "queue:    depth=%zu/%zu workers=%zu\n"
      "latency:  %s\n"
      "queue_wait: %s\n"
      "compute:  %s\n"
      "uptime:   %.2fs qps=%.1f",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(computed),
      static_cast<unsigned long long>(coalesced),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), CacheHitRate() * 100.0,
      static_cast<unsigned long long>(cache_evictions), cache_entries,
      cache_bytes, queue_depth, queue_capacity, num_workers,
      latency.ToString().c_str(), queue_wait.ToString().c_str(),
      compute.ToString().c_str(), uptime_seconds, qps);
  return buf;
}

std::string ServerStats::ToLine() const {
  char buf[768];
  std::snprintf(
      buf, sizeof(buf),
      "submitted=%llu completed=%llu rejected=%llu expired=%llu "
      "cancelled=%llu degraded=%llu "
      "computed=%llu coalesced=%llu cache_hits=%llu cache_misses=%llu "
      "hit_rate=%.4f queue_depth=%zu qps=%.2f p50_ms=%.3f p95_ms=%.3f "
      "p99_ms=%.3f queue_wait_p95_ms=%.3f compute_p95_ms=%.3f",
      static_cast<unsigned long long>(submitted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(rejected),
      static_cast<unsigned long long>(expired),
      static_cast<unsigned long long>(cancelled),
      static_cast<unsigned long long>(degraded),
      static_cast<unsigned long long>(computed),
      static_cast<unsigned long long>(coalesced),
      static_cast<unsigned long long>(cache_hits),
      static_cast<unsigned long long>(cache_misses), CacheHitRate(),
      queue_depth, qps, latency.p50 * 1e3, latency.p95 * 1e3,
      latency.p99 * 1e3, queue_wait.p95 * 1e3, compute.p95 * 1e3);
  return buf;
}

}  // namespace resacc
