#include "sla/job_outcome.hpp"

#include <algorithm>
#include <sstream>

namespace cbs::sla {

std::string_view to_string(Placement p) noexcept {
  return p == Placement::kInternal ? "IC" : "EC";
}

std::string validate_outcomes(const std::vector<JobOutcome>& outcomes) {
  std::ostringstream err;
  std::vector<bool> seen(outcomes.size() + 1, false);
  for (const JobOutcome& o : outcomes) {
    if (o.seq_id == 0 || o.seq_id > outcomes.size()) {
      err << "seq_id " << o.seq_id << " outside 1.." << outcomes.size() << "; ";
      continue;
    }
    if (seen[o.seq_id]) err << "duplicate seq_id " << o.seq_id << "; ";
    seen[o.seq_id] = true;
    if (o.completed < o.arrival) {
      err << "job " << o.seq_id << " completed before arrival; ";
    }
    if (o.input_mb < 0.0 || o.output_mb < 0.0 || o.true_service_seconds < 0.0) {
      err << "job " << o.seq_id << " has negative size/service; ";
    }
  }
  for (std::size_t i = 1; i <= outcomes.size(); ++i) {
    if (!seen[i]) err << "missing seq_id " << i << "; ";
  }
  return err.str();
}

}  // namespace cbs::sla
