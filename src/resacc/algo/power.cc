#include "resacc/algo/power.h"

#include "resacc/core/power_iter.h"
#include "resacc/core/push_state.h"
#include "resacc/util/check.h"

namespace resacc {

PowerIteration::PowerIteration(const Graph& graph, const RwrConfig& config,
                               double tolerance,
                               std::uint32_t max_iterations)
    : graph_(graph),
      config_(config),
      tolerance_(tolerance),
      max_iterations_(max_iterations),
      name_("Power") {
  RESACC_CHECK(config_.Validate().ok());
  RESACC_CHECK(tolerance_ > 0.0);
  // HybridOptions reads a zero cap as "derive one", not "no sweeps".
  RESACC_CHECK(max_iterations_ > 0);
}

std::vector<Score> PowerIteration::Query(NodeId source) {
  RESACC_CHECK(source < graph_.num_nodes());
  // The dense sweep from the unit impulse r(s) = 1 with no reserves: it
  // stops once the alive mass drops under the tolerance and folds that
  // leftover in, so the scores still sum to 1.
  PushState impulse(graph_.num_nodes());
  impulse.SetResidue(source, 1.0);
  HybridOptions options;
  options.tolerance = tolerance_;
  options.max_iterations = max_iterations_;
  std::vector<Score> scores(graph_.num_nodes(), 0.0);
  last_iterations_ =
      RunDensePowerIter(graph_, config_, source, impulse, scores, options)
          .iterations;
  return scores;
}

}  // namespace resacc
