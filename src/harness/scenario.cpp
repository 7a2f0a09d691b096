#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "sla/oo_metric.hpp"

namespace cbs::harness {

namespace {

/// The error list's reporter: "<field> must be <rule> (got <got>)".
auto rejecter(std::vector<std::string>& errors) {
  return [&errors](const char* field, const char* rule, double got) {
    std::ostringstream msg;
    msg << field << " must be " << rule << " (got " << got << ")";
    errors.push_back(msg.str());
  };
}

/// Throws std::invalid_argument listing `errors`, if there are any.
const Scenario& require_none(const Scenario& scenario,
                             const std::vector<std::string>& errors) {
  if (errors.empty()) return scenario;
  std::string msg = "invalid scenario: ";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    if (i > 0) msg += "; ";
    msg += errors[i];
  }
  throw std::invalid_argument(msg);
}

}  // namespace

std::vector<std::string> Scenario::validate() const {
  std::vector<std::string> errors;
  const auto reject = rejecter(errors);
  if (num_batches == 0) reject("num_batches", "> 0", 0.0);
  // Written as !(x > 0) so that NaN is rejected too.
  if (!(mean_jobs_per_batch > 0.0)) {
    reject("mean_jobs_per_batch", "> 0", mean_jobs_per_batch);
  } else if (std::isinf(mean_jobs_per_batch)) {
    reject("mean_jobs_per_batch", "finite", mean_jobs_per_batch);
  }
  if (!(batch_interval_seconds > 0.0)) {
    reject("batch_interval_seconds", "> 0", batch_interval_seconds);
  } else if (std::isinf(batch_interval_seconds)) {
    reject("batch_interval_seconds", "finite", batch_interval_seconds);
  }
  if (errors.empty()) {
    // The three fields are valid. A drawn batch holds at least one document,
    // and every job completes at or after its arrival, so the OO series runs
    // through the last arrival.
    const double documents =
        std::max(mean_jobs_per_batch, 1.0) * static_cast<double>(num_batches);
    const double last_arrival =
        static_cast<double>(num_batches - 1) * batch_interval_seconds;
    std::ostringstream rule;
    if (documents > static_cast<double>(kMaxDrawnDocuments)) {
      rule << "<= " << kMaxDrawnDocuments;
      reject("max(mean_jobs_per_batch, 1) * num_batches", rule.str().c_str(),
             documents);
    }
    if (std::isfinite(oo_sampling_interval) && oo_sampling_interval > 0.0 &&
        !cbs::sla::series_fits(last_arrival, oo_sampling_interval)) {
      rule.str("");
      rule << "short enough for an OO series of fewer than "
           << cbs::sla::kMaxSeriesSamples << " samples at oo_sampling_interval "
           << oo_sampling_interval;
      reject("(num_batches - 1) * batch_interval_seconds", rule.str().c_str(),
             last_arrival);
    }
  }
  for (std::string& e : validate_except_arrivals()) {
    errors.push_back(std::move(e));
  }
  return errors;
}

std::vector<std::string> Scenario::validate_except_arrivals() const {
  std::vector<std::string> errors;
  const auto reject = rejecter(errors);
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
  if (!std::isfinite(lookahead_horizon_seconds) ||
      lookahead_horizon_seconds <= 0.0) {
    reject("lookahead_horizon_seconds", "finite and > 0",
           lookahead_horizon_seconds);
  }
  if (lookahead_candidates < 1 || lookahead_candidates > kLookaheadCandidates) {
    reject("lookahead_candidates", "in [1, 3]", lookahead_candidates);
  }
  if (!std::isfinite(resilience.drain_threshold) ||
      resilience.drain_threshold < 0.0 || resilience.drain_threshold > 1.0) {
    reject("resilience.drain_threshold", "finite and in [0, 1]",
           resilience.drain_threshold);
  }
  if (!std::isfinite(resilience.drain_window_seconds) ||
      resilience.drain_window_seconds <= 0.0) {
    reject("resilience.drain_window_seconds", "finite and > 0",
           resilience.drain_window_seconds);
  }
  if (!std::isfinite(resilience.risk_weight) || resilience.risk_weight < 0.0) {
    reject("resilience.risk_weight", "finite and >= 0", resilience.risk_weight);
  }
  return errors;
}

const Scenario& require_valid(const Scenario& scenario) {
  return require_none(scenario, scenario.validate());
}

const Scenario& require_valid_except_arrivals(const Scenario& scenario) {
  return require_none(scenario, scenario.validate_except_arrivals());
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
