#pragma once

#include <string>
#include <vector>

#include "sla/job_outcome.hpp"

namespace cbs::sla {

// Pay-as-you-go economics — the paper's motivating constraint (§I:
// dedicated processing/network resources are "cost-prohibitive";
// "remote computation can completely be scaled down during periods of low
// demand without incurring processing or more importantly, bandwidth
// costs"). Prices are abstract currency units mirroring 2010 EC2/S3-class
// list prices (m1.small-hour and per-GB transfer); §V.A bills one rate
// card, so the rates are constants.

/// Per provisioned EC machine-hour.
inline constexpr double kEcMachineHour = 0.10;
/// Per GB leaving the IC (uploads).
inline constexpr double kEgressPerGb = 0.15;
/// Per GB returning (downloads).
inline constexpr double kIngressPerGb = 0.10;
/// Per GB-month of staging storage (prorated).
inline constexpr double kStoreGbMonth = 0.15;
/// Amortized internal cost per machine-hour (owned hardware, power,
/// space). Only used for totals that compare against an all-IC build-out.
inline constexpr double kIcMachineHourAmortized = 0.04;

/// Itemized bill for one run.
struct CostReport {
  double ec_compute = 0.0;
  double egress = 0.0;
  double ingress = 0.0;
  double storage = 0.0;
  double ic_amortized = 0.0;

  [[nodiscard]] double cloud_total() const {
    return ec_compute + egress + ingress + storage;
  }
  [[nodiscard]] double grand_total() const {
    return cloud_total() + ic_amortized;
  }
  [[nodiscard]] std::string to_string() const;
};

/// Inputs measured by the controller during a run.
struct CostInputs {
  double ec_provisioned_machine_seconds = 0.0;
  double uplink_bytes = 0.0;
  double downlink_bytes = 0.0;
  /// Integral of staging occupancy over time (byte-seconds).
  double store_byte_seconds = 0.0;
  double ic_machine_seconds = 0.0;
};

/// The bill of `inputs` at the rate card above.
[[nodiscard]] CostReport compute_cost(const CostInputs& inputs);

/// Cloud cost per processed MB of output — the unit economics a capacity
/// planner compares against the amortized cost of buying more IC machines.
[[nodiscard]] double cloud_cost_per_output_mb(
    const CostReport& report, const std::vector<JobOutcome>& outcomes);

}  // namespace cbs::sla
