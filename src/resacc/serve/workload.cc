#include "resacc/serve/workload.h"

#include <algorithm>
#include <cmath>

#include "resacc/util/check.h"

namespace resacc {

ZipfianSources::ZipfianSources(NodeId num_nodes, double theta,
                               std::uint64_t seed) {
  RESACC_CHECK(num_nodes >= 1);
  RESACC_CHECK(theta >= 0.0);

  cdf_.resize(num_nodes);
  double total = 0.0;
  for (NodeId r = 0; r < num_nodes; ++r) {
    total += std::pow(static_cast<double>(r) + 1.0, -theta);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;

  permutation_.resize(num_nodes);
  for (NodeId v = 0; v < num_nodes; ++v) permutation_[v] = v;
  Rng rng(seed);
  // Fisher-Yates with the library Rng, so the rank->node mapping is stable
  // across standard-library implementations.
  for (NodeId i = num_nodes; i > 1; --i) {
    std::swap(permutation_[i - 1], permutation_[rng.NextBounded32(i)]);
  }
}

NodeId ZipfianSources::Next(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const std::size_t rank =
      it == cdf_.end() ? cdf_.size() - 1
                       : static_cast<std::size_t>(it - cdf_.begin());
  return permutation_[rank];
}

}  // namespace resacc
