#ifndef RESACC_CORE_RWR_CONFIG_H_
#define RESACC_CORE_RWR_CONFIG_H_

#include <cmath>
#include <cstdint>

#include "resacc/util/status.h"
#include "resacc/util/types.h"

namespace resacc {

// What a random walk (or its push-operation counterpart) does at a node with
// no out-neighbours. The paper assumes none exist; real graphs have sinks.
// Both policies conserve total probability mass; see DESIGN.md.
enum class DanglingPolicy {
  // Walk jumps back to the query source and continues (the convention of
  // the released FORA code). Forward pushes route (1-alpha) of a dangling
  // node's residue back to the source.
  kBackToSource,
  // Walk terminates at the sink; pushes convert the whole residue of a
  // dangling node into its reserve. Required by the backward-push
  // algorithms (BiPPR, TopPPR), whose traversal cannot depend on the
  // query source.
  kAbsorb,
};

// Query-level parameters of the approximate SSRWR problem (Definition 1)
// shared by every algorithm in the library.
struct RwrConfig {
  // Restart (termination) probability of the walk. Paper default 0.2.
  double alpha = 0.2;
  // Relative error bound for nodes above `delta`. Paper default 0.5.
  double epsilon = 0.5;
  // RWR-value threshold above which the guarantee applies. Paper: 1/n.
  double delta = 1e-6;
  // Failure probability. Paper: 1/n.
  double p_f = 1e-6;

  DanglingPolicy dangling = DanglingPolicy::kBackToSource;

  // Master seed for the randomized phases; forked per query.
  std::uint64_t seed = 0x5eedULL;

  // Returns delta = p_f = 1/n defaults applied, the paper's standard setup.
  static RwrConfig ForGraphSize(NodeId num_nodes) {
    RwrConfig config;
    config.delta = 1.0 / static_cast<double>(num_nodes);
    config.p_f = 1.0 / static_cast<double>(num_nodes);
    return config;
  }

  Status Validate() const {
    if (!(alpha > 0.0 && alpha < 1.0)) {
      return Status::InvalidArgument("alpha must be in (0,1)");
    }
    if (!(epsilon > 0.0)) {
      return Status::InvalidArgument("epsilon must be positive");
    }
    if (!(delta > 0.0 && delta <= 1.0)) {
      return Status::InvalidArgument("delta must be in (0,1]");
    }
    if (!(p_f > 0.0 && p_f < 1.0)) {
      return Status::InvalidArgument("p_f must be in (0,1)");
    }
    return Status::Ok();
  }

  // c = (2 eps / 3 + 2) * ln(2 / p_f) / (eps^2 * delta): the walk-count
  // coefficient of Theorem 3. The remedy phase runs n_r = r_sum * c walks.
  double WalkCountCoefficient() const {
    return (2.0 * epsilon / 3.0 + 2.0) * std::log(2.0 / p_f) /
           (epsilon * epsilon * delta);
  }

  // epsilon + uncorrected_mass / delta: the accuracy a result can still
  // claim when `uncorrected_mass` of probability was never converted. Each
  // unit adds at most that much absolute error to any score, which nodes
  // above delta turn into relative error (Theorem 3's residual term).
  double AchievedEpsilon(Score uncorrected_mass) const {
    return epsilon + uncorrected_mass / delta;
  }
};

}  // namespace resacc

#endif  // RESACC_CORE_RWR_CONFIG_H_
