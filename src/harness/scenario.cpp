#include "harness/scenario.hpp"

#include <sstream>

namespace cbs::harness {

cbs::core::ControllerConfig Scenario::controller_config() const {
  cbs::core::ControllerConfig cfg =
      config_override.value_or(
          cbs::core::default_controller_config(high_network_variation));
  if (config_override && high_network_variation) {
    for (cbs::core::EcSiteConfig& site : cfg.ec_sites) {
      for (cbs::net::LinkConfig* link : {&site.uplink, &site.downlink}) {
        link->noise_rho = 0.95;
        link->noise_sigma = 0.25;
        link->noise_step = 120.0;
      }
    }
  }
  cfg.scheduler = scheduler;
  cfg.ticket_policy = ticket_policy;
  cfg.estimator = estimator;
  cfg.enable_rescheduler = enable_rescheduler;
  if (faults.enabled()) cfg.faults = faults;
  if (resilience.enabled()) cfg.resilience = resilience;
  cfg.log_threshold = log_threshold;
  cfg.log_sink = log_sink;
  return cfg;
}

Scenario make_scenario(cbs::core::SchedulerKind scheduler,
                       cbs::workload::SizeBucket bucket, std::uint64_t seed,
                       bool high_network_variation) {
  Scenario s;
  s.scheduler = scheduler;
  s.bucket = bucket;
  s.seed = seed;
  s.high_network_variation = high_network_variation;
  std::ostringstream name;
  name << cbs::core::to_string(scheduler) << "/"
       << cbs::workload::to_string(bucket);
  if (high_network_variation) name << "/high-var";
  s.name = name.str();
  return s;
}

}  // namespace cbs::harness
