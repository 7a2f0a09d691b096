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
#ifndef NDEBUG
  for (const auto& [id, job] : in_flight_) {
    assert(job.hook_form && "closure-form jobs cannot cross a fork");
  }
#endif
  cluster_.set_task_complete_hook(
      [this](const TaskRecord& rec) { on_cluster_task(rec); });
}

void MapReduceRuntime::run(const MapReduceSpec& spec, Callback on_complete) {
  assert(spec.num_map_tasks >= 1);
  assert(spec.total_map_seconds >= 0.0);
  assert(spec.merge_seconds >= 0.0);
  assert(!in_flight_.contains(spec.job_id) && "job_id already running");

  InFlight job;
  job.spec = spec;
  job.submitted = sim_.now();
  job.maps_remaining = spec.num_map_tasks;
  job.on_complete = std::move(on_complete);
  in_flight_.emplace(spec.job_id, std::move(job));

  const double per_task =
      spec.total_map_seconds / static_cast<double>(spec.num_map_tasks);
  for (int t = 0; t < spec.num_map_tasks; ++t) {
    cluster_.submit(per_task, spec.job_id,
                    [this, id = spec.job_id](const TaskRecord&) { on_map_done(id); });
  }
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
  job.hook_form = true;
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
    start_merge(job_id);
  }
}

void MapReduceRuntime::start_merge(std::uint64_t job_id) {
  auto it = in_flight_.find(job_id);
  assert(it != in_flight_.end());
  InFlight& job = it->second;

  if (job.hook_form) {
    cluster_.submit(job.spec.merge_seconds, job_id, kMergeTask);
    return;
  }
  cluster_.submit(job.spec.merge_seconds, job_id,
                  [this, job_id](const TaskRecord& merge) {
                    finish_merge(job_id, merge);
                  });
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
  const bool hook_form = jt->second.hook_form;
  Callback cb = std::move(jt->second.on_complete);
  in_flight_.erase(jt);
  if (hook_form) {
    if (on_complete_) on_complete_(rec);
  } else if (cb) {
    cb(rec);
  }
}

}  // namespace cbs::compute
