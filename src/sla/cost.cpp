#include "sla/cost.hpp"

#include <sstream>

namespace cbs::sla {

namespace {
constexpr double kSecondsPerHour = 3600.0;
constexpr double kBytesPerGb = 1.0e9;
constexpr double kSecondsPerMonth = 30.0 * 86400.0;
}  // namespace

CostReport compute_cost(const CostInputs& inputs) {
  CostReport r;
  r.ec_compute =
      inputs.ec_provisioned_machine_seconds / kSecondsPerHour * kEcMachineHour;
  r.egress = inputs.uplink_bytes / kBytesPerGb * kEgressPerGb;
  r.ingress = inputs.downlink_bytes / kBytesPerGb * kIngressPerGb;
  r.storage = inputs.store_byte_seconds / kBytesPerGb / kSecondsPerMonth *
              kStoreGbMonth;
  r.ic_amortized =
      inputs.ic_machine_seconds / kSecondsPerHour * kIcMachineHourAmortized;
  return r;
}

std::string CostReport::to_string() const {
  std::ostringstream oss;
  oss.precision(4);
  oss << "EC compute " << ec_compute << " + egress " << egress << " + ingress "
      << ingress << " + storage " << storage << " = cloud " << cloud_total()
      << " (IC amortized " << ic_amortized << ", grand " << grand_total()
      << ")";
  return oss.str();
}

double cloud_cost_per_output_mb(const CostReport& report,
                                const std::vector<JobOutcome>& outcomes) {
  double output_mb = 0.0;
  for (const JobOutcome& o : outcomes) output_mb += o.output_mb;
  return output_mb <= 0.0 ? 0.0 : report.cloud_total() / output_mb;
}

}  // namespace cbs::sla
