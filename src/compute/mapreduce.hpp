#pragma once

#include <cstdint>
#include <functional>

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
class MapReduceRuntime {
 public:
  /// Called with the job id when a job's merge task finishes.
  using Callback = std::function<void(std::uint64_t job_id)>;

  /// Cluster task kinds the runtime tags its submissions with.
  static constexpr std::uint32_t kMapTask = 1;
  static constexpr std::uint32_t kMergeTask = 2;

  explicit MapReduceRuntime(Cluster& cluster);
  MapReduceRuntime(const MapReduceRuntime&) = delete;
  MapReduceRuntime& operator=(const MapReduceRuntime&) = delete;

  /// Fork support: copies `src`'s in-flight bookkeeping into a runtime
  /// bound to `cluster` (the forked cluster) and re-registers the
  /// cluster's task-complete hook. The runtime schedules no events of its
  /// own — its pending state is all cluster tasks, which the forked
  /// cluster carries.
  MapReduceRuntime(const MapReduceRuntime& src, Cluster& cluster);

  /// Submits a job; its completion is dispatched to the set_on_complete()
  /// hook when its merge task finishes.
  void run(const MapReduceSpec& spec);

  /// Registers the completion hook every job reports to.
  void set_on_complete(Callback hook) { on_complete_ = std::move(hook); }

  [[nodiscard]] std::size_t jobs_in_flight() const noexcept { return in_flight_.size(); }

 private:
  void on_cluster_task(const TaskRecord& rec);

  Cluster& cluster_;
  // cbs-lint: snapshot-complete-ok(owner re-wires set_on_complete post-fork)
  Callback on_complete_;
  // Each running job's merge seconds, by job id. Sorted-vector map: job ids
  // are monotonic, so inserts append; keeps the compute layer free of
  // hash-ordered containers like simcore/core.
  cbs::util::FlatMap<std::uint64_t, double> in_flight_;
};

}  // namespace cbs::compute
