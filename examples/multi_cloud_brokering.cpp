// Bursting to a pool of external providers (the paper's intro scenario and
// §VII meta-brokering): two EC sites with different pipes and instance
// speeds. The Order Preserving slackness rule still answers "when"; the
// belief answers "where" per job by comparing believed round trips.
#include <cstdio>

#include "harness/world.hpp"
#include "sla/metrics.hpp"

int main() {
  using namespace cbs;
  harness::Scenario scenario = harness::make_scenario(
      core::SchedulerKind::kOrderPreserving, workload::SizeBucket::kLargeBiased,
      /*seed=*/555);
  scenario.estimator = core::EstimatorKind::kOracle;

  scenario.bandwidth_prior_rate = 1.0e6;

  // Provider A: near-region, fat pipe, standard instances.
  core::EcSiteConfig provider_a = scenario.ec_sites[0];
  provider_a.name = "near-region";
  provider_a.machines = 2;
  provider_a.speed = 1.0;
  provider_a.uplink.base_rate = 1.6e6;
  provider_a.uplink.per_connection_cap = 400.0e3;
  provider_a.downlink = provider_a.uplink;
  provider_a.downlink.base_rate = 1.8e6;

  // Provider B: far-region, thin pipe, but faster (and scarcer) instances.
  core::EcSiteConfig provider_b = provider_a;
  provider_b.name = "far-region";
  provider_b.machines = 1;
  provider_b.speed = 1.6;
  provider_b.uplink.base_rate = 0.7e6;
  provider_b.uplink.per_connection_cap = 200.0e3;
  provider_b.downlink = provider_b.uplink;
  provider_b.downlink.base_rate = 0.8e6;

  scenario.ec_sites = {provider_a, provider_b};

  harness::ScenarioWorld world(scenario);
  world.run();
  const harness::RunResult result = world.result();
  const auto& outcomes = result.outcomes;
  std::printf("=== multi-cloud brokering (large bucket, %zu batches) ===\n\n",
              scenario.num_batches);
  std::printf("jobs: %zu   makespan: %.1fs   speedup: %.2f   burst: %.2f\n",
              outcomes.size(), sla::makespan(outcomes), sla::speedup(outcomes),
              sla::burst_ratio(outcomes));
  std::printf("\nper-provider placement:\n");
  const core::CloudBurstController& controller = world.controller();
  for (std::size_t s = 0; s < controller.site_count(); ++s) {
    const auto& site = controller.site(s);
    std::printf("  %-12s %3zu jobs   %.0f MB moved   instance busy %.0fs\n",
                site.cluster.name().c_str(), site.bursts,
                site.uplink.total_bytes_delivered() / 1e6,
                site.cluster.total_busy_time());
  }
  std::printf("\nthe near-region pipe is faster, so it carries most bursts;\n"
              "once its upload queue fills, the far-region's faster\n"
              "instances win the round-trip comparison for some jobs.\n");
  return 0;
}
