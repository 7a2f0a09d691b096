#include "harness/experiment.hpp"

#include "harness/world.hpp"

namespace cbs::harness {

RunResult run_scenario(const Scenario& scenario) {
  ScenarioWorld world(scenario);
  world.run();
  return world.result();
}

std::vector<double> completion_by_seq(const RunResult& result) {
  std::vector<double> by_seq(result.outcomes.size());
  for (const auto& o : result.outcomes) {
    by_seq.at(o.seq_id - 1) = o.completed;
  }
  return by_seq;
}

}  // namespace cbs::harness
