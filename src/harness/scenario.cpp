#include "harness/scenario.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

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
  cfg.estimator = estimator;
  cfg.enable_rescheduler = enable_rescheduler;
  if (faults.enabled()) cfg.faults = faults;
  if (resilience.enabled()) cfg.resilience = resilience;
  cfg.log_threshold = log_threshold;
  cfg.log_sink = log_sink;
  return cfg;
}

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors;
  const auto reject = [&errors](const char* field, const char* rule,
                                double got) {
    std::ostringstream msg;
    msg << field << " must be " << rule << " (got " << got << ")";
    errors.push_back(msg.str());
  };
  if (num_batches == 0) reject("num_batches", "> 0", 0.0);
  // Written as !(x > 0) so that NaN is rejected too.
  if (!(mean_jobs_per_batch > 0.0)) {
    reject("mean_jobs_per_batch", "> 0", mean_jobs_per_batch);
  }
  if (!(batch_interval_seconds > 0.0)) {
    reject("batch_interval_seconds", "> 0", batch_interval_seconds);
  }
  if (!std::isfinite(truth.noise_sigma) || truth.noise_sigma < 0.0) {
    reject("truth.noise_sigma", "finite and >= 0", truth.noise_sigma);
  }
  if (!std::isfinite(oo_sampling_interval) || oo_sampling_interval <= 0.0) {
    reject("oo_sampling_interval", "finite and > 0", oo_sampling_interval);
  }
  const std::pair<const char*, double> fault_fields[] = {
      {"faults.ic_vm_mtbf", faults.ic_vm_mtbf},
      {"faults.ec_vm_mtbf", faults.ec_vm_mtbf},
      {"faults.vm_recovery_seconds", faults.vm_recovery_seconds},
      {"faults.retraction_deadline_factor", faults.retraction_deadline_factor},
  };
  for (const auto& [field, value] : fault_fields) {
    if (!std::isfinite(value) || value < 0.0) {
      reject(field, "finite and >= 0", value);
    }
  }
  return errors;
}

const Scenario& require_valid(const Scenario& scenario) {
  const std::vector<std::string> errors = scenario.validate();
  if (errors.empty()) return scenario;
  std::string msg = "invalid scenario: ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) msg += "; ";
    msg += errors[i];
  }
  throw std::invalid_argument(msg);
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
