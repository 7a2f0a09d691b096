#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "compute/cluster.hpp"
#include "simcore/simulation.hpp"
#include "util/flat_map.hpp"

namespace cbs::compute {

/// Work description of one embarrassingly parallel document job, expressed
/// the way the paper's prototype runs them on Hadoop / Elastic MapReduce:
/// `num_map_tasks` independent map tasks followed by a single merge task.
struct MapReduceSpec {
  std::uint64_t job_id = 0;
  /// Total map-phase compute on a speed-1 machine, split evenly over tasks.
  double total_map_seconds = 0.0;
  int num_map_tasks = 1;
  /// Result-merge (and, on the EC, output-compression) cost.
  double merge_seconds = 0.0;
};

/// Completion record for a MapReduce job run.
struct MapReduceRecord {
  std::uint64_t job_id = 0;
  cbs::sim::SimTime submitted = 0.0;
  cbs::sim::SimTime maps_done = 0.0;
  cbs::sim::SimTime completed = 0.0;  ///< merge finished
  int num_map_tasks = 0;
};

/// Runs MapReduce-shaped jobs on a Cluster: fans the map tasks into the
/// cluster's FCFS queue (so job order is preserved at task granularity,
/// while later jobs can fill machines an earlier narrow job leaves idle),
/// then submits the merge task once every map has finished.
class MapReduceRuntime {
 public:
  using Callback = std::function<void(const MapReduceRecord&)>;

  /// Cluster task kinds the runtime tags its submissions with.
  static constexpr std::uint32_t kMapTask = 1;
  static constexpr std::uint32_t kMergeTask = 2;

  MapReduceRuntime(cbs::sim::Simulation& sim, Cluster& cluster);
  MapReduceRuntime(const MapReduceRuntime&) = delete;
  MapReduceRuntime& operator=(const MapReduceRuntime&) = delete;

  /// Fork support: copies `src`'s in-flight bookkeeping into a runtime
  /// bound to `dst` and `cluster` (the forked cluster) and re-registers
  /// the cluster's task-complete hook. The runtime schedules no events of
  /// its own — its pending state is all cluster tasks, which the cluster's
  /// own rebuild_events() restores.
  MapReduceRuntime(cbs::sim::Simulation& dst, const MapReduceRuntime& src,
                   Cluster& cluster);

  /// Submits a job; its completion is dispatched to the set_on_complete()
  /// hook when its merge task finishes.
  void run(const MapReduceSpec& spec);

  /// Registers the completion hook every job reports to.
  void set_on_complete(Callback hook) { on_complete_ = std::move(hook); }

  [[nodiscard]] Cluster& cluster() noexcept { return cluster_; }
  [[nodiscard]] std::size_t jobs_in_flight() const noexcept { return in_flight_.size(); }

 private:
  struct InFlight {
    MapReduceSpec spec;
    cbs::sim::SimTime submitted = 0.0;
    cbs::sim::SimTime maps_done = 0.0;  ///< set when the last map finishes
    int maps_remaining = 0;
  };

  void on_cluster_task(const TaskRecord& rec);
  void on_map_done(std::uint64_t job_id);
  void finish_merge(std::uint64_t job_id, const TaskRecord& merge);

  cbs::sim::Simulation& sim_;
  Cluster& cluster_;
  // cbs-lint: snapshot-complete-ok(owner re-wires set_on_complete post-fork)
  Callback on_complete_;
  // Sorted-vector map: job ids are monotonic, so inserts append; keeps the
  // compute layer free of hash-ordered containers like simcore/core.
  cbs::util::FlatMap<std::uint64_t, InFlight> in_flight_;
};

}  // namespace cbs::compute
