#pragma once

#include <cstdint>
#include <optional>

#include "compute/cluster.hpp"
#include "util/flat_map.hpp"

namespace cbs::compute {

/// Work description of one document job, expressed the way the paper's
/// prototype runs them on Hadoop / Elastic MapReduce: one map task
/// followed by a merge task. A job occupies one machine at a time (the
/// paper's Fig. 2 semantics); parallelism comes from concurrent jobs.
struct MapReduceSpec {
  std::uint64_t job_id = 0;
  /// Map-phase compute on a speed-1 machine.
  double map_seconds = 0.0;
  /// Result-merge (and, on the EC, output-compression) cost.
  double merge_seconds = 0.0;
};

/// Runs MapReduce-shaped jobs on a Cluster: queues each job's map task in
/// the cluster's FCFS queue (so job order is preserved at task
/// granularity), then submits its merge task once the map has finished.
/// The runtime does not listen to the cluster: the cluster's owner hands
/// it every finished task through on_task_done().
class MapReduceRuntime {
 public:
  /// Cluster task kinds the runtime tags its submissions with.
  static constexpr std::uint32_t kMapTask = 1;
  static constexpr std::uint32_t kMergeTask = 2;

  explicit MapReduceRuntime(Cluster& cluster);
  MapReduceRuntime(const MapReduceRuntime&) = delete;
  MapReduceRuntime& operator=(const MapReduceRuntime&) = delete;

  /// Fork support: copies `src`'s in-flight bookkeeping into a runtime
  /// bound to `cluster` (the forked cluster). The runtime schedules no
  /// events of its own — its pending state is all cluster tasks, which the
  /// forked cluster carries.
  MapReduceRuntime(const MapReduceRuntime& src, Cluster& cluster);

  /// Submits a job; on_task_done() returns its id when its merge task
  /// finishes.
  void run(const MapReduceSpec& spec);

  /// Takes one finished task of the cluster: a finished map submits its
  /// job's merge. Returns the job id when `rec` is a job's merge, and
  /// nothing for a map or a task the runtime did not submit.
  std::optional<std::uint64_t> on_task_done(const TaskRecord& rec);

  [[nodiscard]] std::size_t jobs_in_flight() const noexcept { return in_flight_.size(); }

 private:
  Cluster& cluster_;
  // Each running job's merge seconds, by job id. Sorted-vector map: job ids
  // are monotonic, so inserts append; keeps the compute layer free of
  // hash-ordered containers like simcore/core.
  cbs::util::FlatMap<std::uint64_t, double> in_flight_;
};

}  // namespace cbs::compute
