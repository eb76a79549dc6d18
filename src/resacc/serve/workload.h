#ifndef RESACC_SERVE_WORKLOAD_H_
#define RESACC_SERVE_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "resacc/util/rng.h"
#include "resacc/util/types.h"

namespace resacc {

// Zipfian query-source sampler for serving workloads. Rank r (1-based) is
// drawn with probability proportional to 1 / r^theta — theta 0 is uniform,
// theta around 0.99 is the YCSB-style skew where a handful of hot sources
// dominate, which is what makes result caching and request coalescing pay
// off. Ranks are mapped to node ids through a seeded shuffle so the hot
// set is spread over the graph instead of clustering at low ids.
class ZipfianSources {
 public:
  ZipfianSources(NodeId num_nodes, double theta, std::uint64_t seed);

  // Draws one source using the caller's generator (deterministic given the
  // rng state, so workloads are replayable).
  NodeId Next(Rng& rng) const;

 private:
  std::vector<double> cdf_;        // cdf_[r] = P(rank <= r+1)
  std::vector<NodeId> permutation_;  // rank -> node id
};

}  // namespace resacc

#endif  // RESACC_SERVE_WORKLOAD_H_
