#include "core/job.hpp"

namespace cbs::core {

std::string_view to_string(JobState state) noexcept {
  switch (state) {
    case JobState::kArrived: return "arrived";
    case JobState::kIcWaiting: return "ic-waiting";
    case JobState::kIcRunning: return "ic-running";
    case JobState::kUploadQueued: return "upload-queued";
    case JobState::kEcRunning: return "ec-running";
    case JobState::kDownloading: return "downloading";
    case JobState::kCompleted: return "completed";
  }
  return "?";
}

cbs::sla::JobOutcome Job::to_outcome() const {
  cbs::sla::JobOutcome o;
  o.seq_id = seq_id;
  o.doc_id = doc.doc_id;
  o.batch_index = batch_index;
  o.arrival = arrival;
  o.completed = completed_time;
  o.input_mb = doc.features.size_mb;
  o.output_mb = doc.output_size_mb;
  o.true_service_seconds = true_service_seconds;
  o.placement = placement;
  return o;
}

}  // namespace cbs::core
