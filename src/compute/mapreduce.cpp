#include "compute/mapreduce.hpp"

#include <cassert>

namespace cbs::compute {

MapReduceRuntime::MapReduceRuntime(cbs::sim::Simulation& sim, Cluster& cluster)
    : sim_(sim), cluster_(cluster) {
  cluster_.set_task_complete_hook(
      [this](const TaskRecord& rec) { on_cluster_task(rec); });
}

MapReduceRuntime::MapReduceRuntime(cbs::sim::Simulation& dst,
                                   const MapReduceRuntime& src,
                                   Cluster& cluster)
    : sim_(dst),
      cluster_(cluster),
      in_flight_(src.in_flight_) {
  cluster_.set_task_complete_hook(
      [this](const TaskRecord& rec) { on_cluster_task(rec); });
}

void MapReduceRuntime::run(const MapReduceSpec& spec) {
  assert(spec.num_map_tasks >= 1);
  assert(spec.total_map_seconds >= 0.0);
  assert(spec.merge_seconds >= 0.0);
  assert(!in_flight_.contains(spec.job_id) && "job_id already running");

  InFlight job;
  job.spec = spec;
  job.submitted = sim_.now();
  job.maps_remaining = spec.num_map_tasks;
  in_flight_.emplace(spec.job_id, std::move(job));

  const double per_task =
      spec.total_map_seconds / static_cast<double>(spec.num_map_tasks);
  for (int t = 0; t < spec.num_map_tasks; ++t) {
    cluster_.submit(per_task, spec.job_id, kMapTask);
  }
}

void MapReduceRuntime::on_cluster_task(const TaskRecord& rec) {
  switch (rec.kind) {
    case kMapTask:
      on_map_done(rec.group_id);
      break;
    case kMergeTask:
      finish_merge(rec.group_id, rec);
      break;
    default:
      break;  // untagged task submitted directly to the cluster: not ours
  }
}

void MapReduceRuntime::on_map_done(std::uint64_t job_id) {
  auto it = in_flight_.find(job_id);
  assert(it != in_flight_.end());
  InFlight& job = it->second;
  assert(job.maps_remaining > 0);
  if (--job.maps_remaining == 0) {
    job.maps_done = sim_.now();
    cluster_.submit(job.spec.merge_seconds, job_id, kMergeTask);
  }
}

void MapReduceRuntime::finish_merge(std::uint64_t job_id,
                                    const TaskRecord& merge) {
  auto jt = in_flight_.find(job_id);
  assert(jt != in_flight_.end());
  MapReduceRecord rec;
  rec.job_id = job_id;
  rec.submitted = jt->second.submitted;
  rec.maps_done = jt->second.maps_done;
  rec.completed = merge.completed;
  rec.num_map_tasks = jt->second.spec.num_map_tasks;
  in_flight_.erase(jt);
  if (on_complete_) on_complete_(rec);
}

}  // namespace cbs::compute
