#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "sla/oo_metric.hpp"

namespace cbs::harness {

namespace {

/// The error list's reporter: "<field> must be <rule> (got <got>)".
auto rejecter(std::vector<std::string>& errors) {
  return [&errors](std::string_view field, std::string_view rule, double got) {
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
      reject("max(mean_jobs_per_batch, 1) * num_batches", rule.str(),
             documents);
    }
    // The run reaches at least the last arrival, and a lookahead decision
    // there rolls a horizon past it. One error names a last arrival out of
    // reach.
    const double horizon_end = last_arrival + lookahead_horizon_seconds;
    if (std::isfinite(oo_sampling_interval) && oo_sampling_interval > 0.0 &&
        !cbs::sla::series_fits(last_arrival, oo_sampling_interval)) {
      rule.str("");
      rule << "short enough for an OO series of fewer than "
           << cbs::sla::kMaxSeriesSamples << " samples at oo_sampling_interval "
           << oo_sampling_interval;
      reject("(num_batches - 1) * batch_interval_seconds", rule.str(),
             last_arrival);
    } else if (std::isfinite(lookahead_horizon_seconds) &&
               lookahead_horizon_seconds > 0.0 &&
               horizon_end > kMaxSimSeconds) {
      rule.str("");
      rule << "<= kMaxSimSeconds (" << kMaxSimSeconds << ")";
      reject(
          "(num_batches - 1) * batch_interval_seconds + "
          "lookahead_horizon_seconds",
          rule.str(), horizon_end);
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
  // Written as !(x > 0) and !(x >= 0) so that NaN is rejected too.
  const auto positive = [&](std::string_view field, double value) {
    if (!(value > 0.0) || std::isinf(value)) {
      reject(field, "finite and > 0", value);
    }
  };
  const auto non_negative = [&](std::string_view field, double value) {
    if (!(value >= 0.0) || std::isinf(value)) {
      reject(field, "finite and >= 0", value);
    }
  };
  non_negative("truth.noise_sigma", truth.noise_sigma);
  positive("oo_sampling_interval", oo_sampling_interval);
  non_negative("faults.ic_vm_mtbf", faults.ic_vm_mtbf);
  non_negative("faults.ec_vm_mtbf", faults.ec_vm_mtbf);
  non_negative("faults.vm_recovery_seconds", faults.vm_recovery_seconds);
  non_negative("faults.retraction_deadline_factor",
               faults.retraction_deadline_factor);
  positive("lookahead_horizon_seconds", lookahead_horizon_seconds);
  if (lookahead_candidates < 1 || lookahead_candidates > kLookaheadCandidates) {
    reject("lookahead_candidates", "in [1, 3]", lookahead_candidates);
  }
  if (!std::isfinite(resilience.drain_threshold) ||
      resilience.drain_threshold < 0.0 || resilience.drain_threshold > 1.0) {
    reject("resilience.drain_threshold", "finite and in [0, 1]",
           resilience.drain_threshold);
  }

  // The fields the controller's constructors (clusters, links, their noise
  // and the bandwidth estimators) assert on.
  non_negative("params.slack_safety_margin", params.slack_safety_margin);
  if (ic_machines == 0) reject("ic_machines", "> 0", 0.0);
  for (std::size_t i = 0; i < ec_sites.size(); ++i) {
    const cbs::core::EcSiteConfig& site = ec_sites[i];
    const std::string at = "ec_sites[" + std::to_string(i) + "].";
    if (site.machines == 0) reject(at + "machines", "> 0", 0.0);
    positive(at + "speed", site.speed);
    non_negative(at + "job_overhead_seconds", site.job_overhead_seconds);
    for (const auto& [direction, link] :
         {std::pair{"uplink.", &site.uplink},
          std::pair{"downlink.", &site.downlink}}) {
      const std::string field = at + direction;
      positive(field + "base_rate", link->base_rate);
      positive(field + "per_connection_cap", link->per_connection_cap);
      if (!(link->noise_rho >= 0.0 && link->noise_rho < 1.0)) {
        reject(field + "noise_rho", "in [0, 1)", link->noise_rho);
      }
      non_negative(field + "noise_sigma", link->noise_sigma);
      positive(field + "noise_step", link->noise_step);
      non_negative(field + "setup_latency", link->setup_latency);
    }
  }
  positive("bandwidth_prior_rate", bandwidth_prior_rate);
  // <= 0 turns probing off; NaN or inf would schedule a probe at no time.
  if (!std::isfinite(probe_interval)) {
    reject("probe_interval", "finite", probe_interval);
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
