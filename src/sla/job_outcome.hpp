#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "simcore/time.hpp"

namespace cbs::sla {

/// Where a job was executed — the paper's decision variable d_i.
enum class Placement : std::uint8_t { kInternal, kExternal };

[[nodiscard]] std::string_view to_string(Placement p) noexcept;

/// The per-job record every SLA metric is computed from. `seq_id` is the
/// job's position in the FCFS queue (1-based, chunks get their own
/// positions when Algorithm 2 splices them in), which is the id all
/// ordering metrics use.
struct JobOutcome {
  std::uint64_t seq_id = 0;
  std::uint64_t doc_id = 0;
  std::size_t batch_index = 0;
  cbs::sim::SimTime arrival = 0.0;
  cbs::sim::SimTime completed = 0.0;  ///< result available in the result queue
  double input_mb = 0.0;
  double output_mb = 0.0;
  /// Realized standard-machine service seconds (ground truth).
  double true_service_seconds = 0.0;
  Placement placement = Placement::kInternal;

  [[nodiscard]] bool bursted() const noexcept {
    return placement == Placement::kExternal;
  }
};

/// Validates the structural invariants of a finished run: ids 1..n present
/// exactly once, timestamps ordered. Returns an empty string when valid, a
/// human-readable violation description otherwise. Tests and the harness
/// call this after every run.
[[nodiscard]] std::string validate_outcomes(const std::vector<JobOutcome>& outcomes);

}  // namespace cbs::sla
