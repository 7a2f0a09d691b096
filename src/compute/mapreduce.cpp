#include "compute/mapreduce.hpp"

#include <cassert>

namespace cbs::compute {

MapReduceRuntime::MapReduceRuntime(Cluster& cluster) : cluster_(cluster) {}

MapReduceRuntime::MapReduceRuntime(const MapReduceRuntime& src,
                                   Cluster& cluster)
    : cluster_(cluster), in_flight_(src.in_flight_) {}

void MapReduceRuntime::run(const MapReduceSpec& spec) {
  assert(spec.map_seconds >= 0.0);
  assert(spec.merge_seconds >= 0.0);
  assert(!in_flight_.contains(spec.job_id) && "job_id already running");
  in_flight_.emplace(spec.job_id, spec.merge_seconds);
  cluster_.submit(spec.map_seconds, spec.job_id, kMapTask);
}

std::optional<std::uint64_t> MapReduceRuntime::on_task_done(
    const TaskRecord& rec) {
  switch (rec.kind) {
    case kMapTask: {
      const auto it = in_flight_.find(rec.group_id);
      assert(it != in_flight_.end());
      cluster_.submit(it->second, rec.group_id, kMergeTask);
      return std::nullopt;
    }
    case kMergeTask: {
      const bool erased = in_flight_.erase(rec.group_id) == 1;
      assert(erased);
      (void)erased;
      return rec.group_id;
    }
    default:
      return std::nullopt;  // untagged task submitted directly: not ours
  }
}

}  // namespace cbs::compute
