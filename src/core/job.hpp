#pragma once

#include <cstdint>
#include <string_view>

#include "simcore/event_queue.hpp"
#include "simcore/time.hpp"
#include "sla/job_outcome.hpp"
#include "workload/document.hpp"

namespace cbs::core {

/// Lifecycle of a job inside the cloud-bursting pipeline (the asynchronous
/// queue network of Fig. 5: schedule → [upload → EC compute → download] or
/// [IC compute] → result queue).
enum class JobState : std::uint8_t {
  kArrived,       ///< in the central job queue, not yet scheduled
  kIcWaiting,     ///< assigned to IC, in the controller's feed queue
  kIcRunning,     ///< map/merge tasks executing on the internal cluster
  /// Assigned to EC, in an upload queue; a burst stays here through its
  /// upload (on_burst_deadline reads it as "upload not finished").
  kUploadQueued,
  kEcRunning,     ///< in the EC store / executing on the external cluster
  kDownloading,
  kCompleted,
};

[[nodiscard]] std::string_view to_string(JobState state) noexcept;

/// One schedulable job: a document plus pipeline bookkeeping. Created by
/// the controller when a batch arrives (after any Algorithm-2 chunking).
struct Job {
  std::uint64_t seq_id = 0;  ///< FCFS queue position, 1-based, global
  cbs::workload::Document doc;
  std::size_t batch_index = 0;
  cbs::sim::SimTime arrival = 0.0;
  cbs::sim::SimTime completed_time = 0.0;
  JobState state = JobState::kArrived;
  cbs::sla::Placement placement = cbs::sla::Placement::kInternal;
  bool service_drawn = false;  ///< true_service_seconds is set
  /// EC site of an external placement; 32 bits, so it shares the word of
  /// the three fields above and a job stays 160 bytes.
  std::uint32_t site = 0;
  /// Realized standard-machine service seconds: a ground-truth draw keyed
  /// on the document's identity, so IC and EC execute identical work. It is
  /// drawn when the job is first dispatched (service_drawn), not at
  /// scheduling time; it reads 0 until then.
  double true_service_seconds = 0.0;
  /// The scheduler's estimate at decision time (QRSM prediction).
  double estimated_service_seconds = 0.0;
  /// The pending burst-retraction deadline of a burst still in its upload
  /// phase; EventId{} when none is armed.
  cbs::sim::EventId burst_deadline{};

  [[nodiscard]] cbs::sla::JobOutcome to_outcome() const;
};

}  // namespace cbs::core
