#include "compute/mapreduce.hpp"

#include <cassert>

namespace cbs::compute {

MapReduceRuntime::MapReduceRuntime(Cluster& cluster) : cluster_(cluster) {
  cluster_.set_task_complete_hook(
      [this](const TaskRecord& rec) { on_cluster_task(rec); });
}

MapReduceRuntime::MapReduceRuntime(const MapReduceRuntime& src,
                                   Cluster& cluster)
    : cluster_(cluster), in_flight_(src.in_flight_) {
  cluster_.set_task_complete_hook(
      [this](const TaskRecord& rec) { on_cluster_task(rec); });
}

void MapReduceRuntime::run(const MapReduceSpec& spec) {
  assert(spec.map_seconds >= 0.0);
  assert(spec.merge_seconds >= 0.0);
  assert(!in_flight_.contains(spec.job_id) && "job_id already running");
  in_flight_.emplace(spec.job_id, spec.merge_seconds);
  cluster_.submit(spec.map_seconds, spec.job_id, kMapTask);
}

void MapReduceRuntime::on_cluster_task(const TaskRecord& rec) {
  switch (rec.kind) {
    case kMapTask: {
      const auto it = in_flight_.find(rec.group_id);
      assert(it != in_flight_.end());
      cluster_.submit(it->second, rec.group_id, kMergeTask);
      break;
    }
    case kMergeTask: {
      const bool erased = in_flight_.erase(rec.group_id) == 1;
      assert(erased);
      (void)erased;
      if (on_complete_) on_complete_(rec.group_id);
      break;
    }
    default:
      break;  // untagged task submitted directly to the cluster: not ours
  }
}

}  // namespace cbs::compute
