#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "compute/cluster.hpp"
#include "compute/job_store.hpp"
#include "compute/mapreduce.hpp"
#include "simcore/closure_events.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace cbs::compute;
using cbs::sim::Simulation;

// ---- Cluster -------------------------------------------------------------

TEST(ClusterTest, SingleMachineRunsFcfs) {
  Simulation sim;
  Cluster cluster(sim, "c", 1);
  std::vector<std::pair<TaskId, double>> done;
  cluster.set_task_complete_hook([&](const TaskRecord& rec) {
    done.emplace_back(rec.task_id, rec.completed);
  });
  for (int i = 0; i < 3; ++i) cluster.submit(10.0, 0, 0);
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0].second, 10.0);
  EXPECT_DOUBLE_EQ(done[1].second, 20.0);
  EXPECT_DOUBLE_EQ(done[2].second, 30.0);
  EXPECT_LT(done[0].first, done[1].first);  // FCFS order preserved
}

TEST(ClusterTest, ParallelMachines) {
  Simulation sim;
  Cluster cluster(sim, "c", 4);
  int done = 0;
  cluster.set_task_complete_hook([&](const TaskRecord&) { ++done; });
  for (int i = 0; i < 4; ++i) cluster.submit(10.0, 0, 0);
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // all four ran concurrently
}

TEST(ClusterTest, SpeedScalesServiceTime) {
  Simulation sim;
  Cluster cluster(sim, "c", 1, 2.0);
  double completed = -1.0;
  cluster.set_task_complete_hook(
      [&](const TaskRecord& rec) { completed = rec.completed; });
  cluster.submit(10.0, 0, 0);
  sim.run();
  EXPECT_DOUBLE_EQ(completed, 5.0);
}

TEST(ClusterTest, RecordsContainTimestamps) {
  Simulation sim;
  Cluster cluster(sim, "c", 1);
  std::vector<TaskRecord> recs;
  cluster.set_task_complete_hook(
      [&recs](const TaskRecord& rec) { recs.push_back(rec); });
  cluster.submit(5.0, 7, 0);
  cluster.submit(5.0, 8, 0);
  sim.run();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_DOUBLE_EQ(recs[1].enqueued, 0.0);
  EXPECT_DOUBLE_EQ(recs[1].started, 5.0);
  EXPECT_DOUBLE_EQ(recs[1].completed, 10.0);
  EXPECT_EQ(recs[1].group_id, 8u);
  EXPECT_EQ(recs[0].machine, 0u);
}

TEST(ClusterTest, BusyTimeAndUtilization) {
  Simulation sim;
  Cluster cluster(sim, "c", 2);
  cluster.submit(10.0, 0, 0);
  cluster.submit(6.0, 0, 0);
  sim.run();
  EXPECT_DOUBLE_EQ(cluster.machine_busy_time(0), 10.0);
  EXPECT_DOUBLE_EQ(cluster.machine_busy_time(1), 6.0);
  EXPECT_DOUBLE_EQ(cluster.total_busy_time(), 16.0);
  EXPECT_DOUBLE_EQ(cluster.average_utilization(0.0, 10.0), 0.8);
}

TEST(ClusterTest, QueuedStandardSecondsTracksBacklog) {
  Simulation sim;
  Cluster cluster(sim, "c", 1);
  cluster.submit(5.0, 0, 0);  // starts immediately
  cluster.submit(7.0, 0, 0);  // queued
  cluster.submit(3.0, 0, 0);  // queued
  EXPECT_DOUBLE_EQ(cluster.queued_standard_seconds(), 10.0);
  EXPECT_EQ(cluster.queued_tasks(), 2u);
  EXPECT_EQ(cluster.running_tasks(), 1u);
  sim.run();
  EXPECT_DOUBLE_EQ(cluster.queued_standard_seconds(), 0.0);
  EXPECT_TRUE(cluster.idle());
}

TEST(ClusterTest, IdleHookFiresWhenDrained) {
  Simulation sim;
  Cluster cluster(sim, "c", 2);
  int idle_calls = 0;
  cluster.set_idle_hook([&](std::size_t) { ++idle_calls; });
  cluster.submit(5.0, 0, 0);
  cluster.submit(5.0, 0, 0);
  sim.run();
  EXPECT_EQ(idle_calls, 2);  // each machine frees into an empty queue
}

TEST(ClusterTest, TaskDoneHookFiresPerTask) {
  Simulation sim;
  Cluster cluster(sim, "c", 1);
  int hook_calls = 0;
  cluster.set_task_done_hook([&] { ++hook_calls; });
  for (int i = 0; i < 5; ++i) cluster.submit(1.0, 0, 0);
  sim.run();
  EXPECT_EQ(hook_calls, 5);
}

TEST(ClusterTest, CallbackCanSubmitMoreWork) {
  Simulation sim;
  Cluster cluster(sim, "c", 1);
  double second_done = -1.0;
  cluster.set_task_complete_hook([&](const TaskRecord& rec) {
    if (rec.kind == 1) {
      cluster.submit(3.0, 0, 2);
    } else {
      second_done = rec.completed;
    }
  });
  cluster.submit(2.0, 0, 1);
  sim.run();
  EXPECT_DOUBLE_EQ(second_done, 5.0);
}

TEST(ClusterTest, ZeroServiceTaskCompletesInstantly) {
  Simulation sim;
  Cluster cluster(sim, "c", 1);
  double completed = -1.0;
  cluster.set_task_complete_hook(
      [&](const TaskRecord& rec) { completed = rec.completed; });
  cluster.submit(0.0, 0, 0);
  sim.run();
  EXPECT_DOUBLE_EQ(completed, 0.0);
}

// ---- MapReduceRuntime ------------------------------------------------------

/// A MapReduceRuntime's completions as (job id, completion time) pairs.
struct Completions {
  std::vector<std::pair<std::uint64_t, double>> done;
  void record_on(MapReduceRuntime& mr, const Simulation& sim) {
    mr.set_on_complete([this, &sim](std::uint64_t job_id) {
      done.emplace_back(job_id, sim.now());
    });
  }
};

TEST(MapReduceTest, SingleTaskJob) {
  Simulation sim;
  Cluster cluster(sim, "c", 2);
  MapReduceRuntime mr(cluster);
  Completions c;
  c.record_on(mr, sim);
  mr.run({.job_id = 1, .map_seconds = 10.0, .merge_seconds = 2.0});
  sim.run_until(10.0);
  // The map is done; the merge runs.
  EXPECT_TRUE(c.done.empty());
  EXPECT_EQ(cluster.running_tasks(), 1u);
  EXPECT_EQ(mr.jobs_in_flight(), 1u);
  sim.run();
  ASSERT_EQ(c.done.size(), 1u);
  EXPECT_EQ(c.done[0].first, 1u);
  EXPECT_DOUBLE_EQ(c.done[0].second, 12.0);
}

TEST(MapReduceTest, ConcurrentJobsInterleave) {
  Simulation sim;
  Cluster cluster(sim, "c", 2);
  MapReduceRuntime mr(cluster);
  Completions c;
  c.record_on(mr, sim);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    mr.run({.job_id = id, .map_seconds = 4.0, .merge_seconds = 0.0});
  }
  sim.run();
  ASSERT_EQ(c.done.size(), 3u);
  // FCFS at task level preserves job completion order.
  EXPECT_EQ(c.done[0].first, 1u);
  EXPECT_EQ(c.done[1].first, 2u);
  EXPECT_EQ(c.done[2].first, 3u);
  EXPECT_DOUBLE_EQ(c.done[2].second, 8.0);
  EXPECT_EQ(mr.jobs_in_flight(), 0u);
}

TEST(MapReduceTest, ForkMidJobMatchesSource) {
  // Two jobs on one machine: mid-way through the first map, the fork
  // carries a running map, a queued map and two jobs waiting to merge.
  Simulation sim_a;
  Cluster cluster_a(sim_a, "c", 1);
  MapReduceRuntime mr_a(cluster_a);
  Completions a;
  a.record_on(mr_a, sim_a);
  mr_a.run({.job_id = 1, .map_seconds = 4.0, .merge_seconds = 1.0});
  mr_a.run({.job_id = 2, .map_seconds = 5.0, .merge_seconds = 1.0});
  sim_a.run_until(2.0);
  ASSERT_EQ(cluster_a.running_tasks(), 1u);
  ASSERT_EQ(cluster_a.queued_tasks(), 1u);

  Simulation sim_b(sim_a);
  Cluster cluster_b(sim_b, cluster_a);
  MapReduceRuntime mr_b(mr_a, cluster_b);
  Completions b;
  b.record_on(mr_b, sim_b);
  sim_b.verify_fork();

  sim_a.run();
  sim_b.run();
  ASSERT_EQ(a.done.size(), 2u);
  EXPECT_EQ(b.done, a.done);
  // Job 1's merge queues behind job 2's map (FCFS): 4 + 5 + 1, then + 1.
  EXPECT_DOUBLE_EQ(a.done[0].second, 10.0);
  EXPECT_DOUBLE_EQ(a.done[1].second, 11.0);
  EXPECT_EQ(mr_b.jobs_in_flight(), 0u);
}

// ---- JobStore --------------------------------------------------------------

constexpr auto kIn = JobStore::ObjectKind::kInput;
constexpr auto kOut = JobStore::ObjectKind::kOutput;

TEST(JobStoreTest, PutGetErase) {
  Simulation sim;
  JobStore store(sim);
  store.put(1, kIn, 100.0);
  EXPECT_DOUBLE_EQ(store.size_of(1, kIn), 100.0);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 100.0);
  EXPECT_DOUBLE_EQ(store.erase(1, kIn), 100.0);
  EXPECT_DOUBLE_EQ(store.size_of(1, kIn), 0.0);
  EXPECT_EQ(store.object_count(), 0u);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 0.0);
}

TEST(JobStoreTest, InputAndOutputOfAJobAreDistinctObjects) {
  Simulation sim;
  JobStore store(sim);
  store.put(7, kIn, 100.0);
  store.put(7, kOut, 30.0);
  store.put(8, kIn, 5.0);
  EXPECT_EQ(store.object_count(), 3u);
  EXPECT_DOUBLE_EQ(store.size_of(7, kIn), 100.0);
  EXPECT_DOUBLE_EQ(store.size_of(7, kOut), 30.0);
  EXPECT_DOUBLE_EQ(store.size_of(8, kOut), 0.0);
  EXPECT_DOUBLE_EQ(store.erase(7, kIn), 100.0);
  EXPECT_DOUBLE_EQ(store.size_of(7, kOut), 30.0);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 35.0);
}

TEST(JobStoreTest, OverwriteReplacesSize) {
  Simulation sim;
  JobStore store(sim);
  store.put(1, kIn, 100.0);
  store.put(1, kIn, 40.0);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 40.0);
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(JobStoreTest, PeakOccupancy) {
  Simulation sim;
  JobStore store(sim);
  store.put(1, kIn, 100.0);
  store.put(2, kIn, 50.0);
  store.erase(1, kIn);
  store.put(3, kIn, 20.0);
  EXPECT_DOUBLE_EQ(store.peak_occupancy_bytes(), 150.0);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 70.0);
}

TEST(JobStoreTest, EraseMissingIsNoOp) {
  Simulation sim;
  JobStore store(sim);
  EXPECT_DOUBLE_EQ(store.erase(99, kOut), 0.0);
  EXPECT_DOUBLE_EQ(store.size_of(99, kOut), 0.0);
}

// ---- Cluster crash/recover (fault injection) -----------------------------

TEST(ClusterCrashTest, CrashRequeuesAndReexecutesRunningTask) {
  Simulation sim;
  cbs::sim::ClosureEvents events(sim);
  Cluster cluster(sim, "c", 1);
  std::size_t completions = 0;  // every task completion, not just this task's
  cluster.set_task_done_hook([&completions] { ++completions; });
  std::vector<double> done;
  cluster.set_task_complete_hook(
      [&](const TaskRecord& rec) { done.push_back(rec.completed); });
  cluster.submit(10.0, 0, 0);
  events.at(4.0, [&] { cluster.crash_machine(0); });
  events.at(6.0, [&] { cluster.recover_machine(0); });
  sim.run();
  // 4 s of work destroyed; full re-execution starts at recovery: 6 + 10.
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0], 16.0);
  EXPECT_EQ(cluster.crashes(), 1u);
  EXPECT_EQ(cluster.reexecutions(), 1u);
  EXPECT_DOUBLE_EQ(cluster.wasted_standard_seconds(), 4.0);
  EXPECT_EQ(completions, 1u);  // completes exactly once
}

TEST(ClusterCrashTest, ReclaimedTaskKeepsFcfsPosition) {
  Simulation sim;
  cbs::sim::ClosureEvents events(sim);
  Cluster cluster(sim, "c", 1);
  std::vector<TaskId> order;
  cluster.set_task_complete_hook(
      [&](const TaskRecord& rec) { order.push_back(rec.task_id); });
  const TaskId first = cluster.submit(10.0, 0, 0);
  const TaskId second = cluster.submit(10.0, 0, 0);
  events.at(5.0, [&] { cluster.crash_machine(0); });
  events.at(7.0, [&] { cluster.recover_machine(0); });
  sim.run();
  // The crashed head task goes back to the *front* of the queue, so it
  // still finishes before the task behind it.
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], first);
  EXPECT_EQ(order[1], second);
}

TEST(ClusterCrashTest, DownMachineIsNotDispatchedUntilRecovery) {
  Simulation sim;
  cbs::sim::ClosureEvents events(sim);
  Cluster cluster(sim, "c", 2);
  events.at(0.0, [&] { cluster.crash_machine(0); });
  std::vector<std::size_t> machines;
  cluster.set_task_complete_hook(
      [&](const TaskRecord& rec) { machines.push_back(rec.machine); });
  events.at(1.0, [&] {
    cluster.submit(5.0, 0, 0);
    cluster.submit(5.0, 0, 0);
  });
  events.at(2.0, [&] { cluster.recover_machine(0); });
  sim.run();
  ASSERT_EQ(machines.size(), 2u);
  EXPECT_EQ(cluster.down_machines(), 0u);
  // First task had only machine 1 available; the second started on the
  // recovered machine 0 at t = 2 rather than queueing behind machine 1.
  EXPECT_EQ(machines[0], 1u);
  EXPECT_EQ(machines[1], 0u);
}

TEST(ClusterCrashTest, CrashOnIdleMachineJustTakesItDown) {
  Simulation sim;
  Cluster cluster(sim, "c", 2);
  EXPECT_TRUE(cluster.crash_machine(1));
  EXPECT_EQ(cluster.down_machines(), 1u);
  EXPECT_EQ(cluster.reexecutions(), 0u);
  EXPECT_FALSE(cluster.crash_machine(1));  // already down
  EXPECT_TRUE(cluster.recover_machine(1));
  EXPECT_FALSE(cluster.recover_machine(1));  // already up
  EXPECT_EQ(cluster.down_machines(), 0u);
}

// ---- JobStore retry/backoff (S3 best-effort semantics) -------------------

/// What a put_async continuation reported, and when.
struct PutResult {
  bool called = false;
  std::uint64_t tag = 0;
  bool ok = false;
  double bytes = 0.0;
  double at = -1.0;
};

int record_into(JobStore& store, Simulation& sim, PutResult& out) {
  return store.register_continuation(
      [&out, &sim](std::uint64_t tag, bool ok, double bytes) {
        out = {true, tag, ok, bytes, sim.now()};
      });
}

TEST(JobStoreRetryTest, HealthyPutCompletesSynchronously) {
  Simulation sim;
  JobStore store(sim);
  PutResult put;
  const int slot = record_into(store, sim, put);
  store.put_async(1, kIn, 100.0, slot, 42);
  // No event needed: the continuation already ran.
  EXPECT_TRUE(put.ok);
  EXPECT_EQ(put.tag, 42u);
  EXPECT_DOUBLE_EQ(put.bytes, 100.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 100.0);
  EXPECT_EQ(store.failed_attempts(), 0u);
}

TEST(JobStoreRetryTest, PutRetriesThroughOutage) {
  Simulation sim;
  cbs::sim::ClosureEvents events(sim);
  JobStore::Config cfg;
  cfg.retry_backoff = 2.0;
  cfg.backoff_multiplier = 2.0;
  JobStore store(sim, cfg);
  store.set_available(false);
  PutResult put;
  store.put_async(1, kIn, 50.0, record_into(store, sim, put), 1);
  // Attempts at 0, 2, 6 (backoff 2 then 4); the store comes back at 5, so
  // the third attempt lands the object.
  events.at(5.0, [&] { store.set_available(true); });
  sim.run();
  EXPECT_TRUE(put.ok);
  EXPECT_DOUBLE_EQ(put.at, 6.0);
  EXPECT_EQ(store.failed_attempts(), 2u);
  EXPECT_EQ(store.abandoned_ops(), 0u);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 50.0);
}

TEST(JobStoreRetryTest, ZeroCapacityPutIsAbandoned) {
  Simulation sim;
  JobStore::Config cfg;
  cfg.capacity_bytes = 0.0;
  cfg.max_attempts = 3;
  JobStore store(sim, cfg);
  PutResult put;
  store.put_async(1, kIn, 1.0, record_into(store, sim, put), 1);
  sim.run();
  EXPECT_TRUE(put.called);
  EXPECT_FALSE(put.ok);
  EXPECT_EQ(store.failed_attempts(), 3u);
  EXPECT_EQ(store.abandoned_ops(), 1u);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 0.0);
}

TEST(JobStoreRetryTest, OverwriteWithinCapacitySucceeds) {
  Simulation sim;
  JobStore::Config cfg;
  cfg.capacity_bytes = 100.0;
  JobStore store(sim, cfg);
  store.put(1, kIn, 80.0);
  PutResult put;
  // 80 -> 90 needs only 10 fresh bytes; the overwrite frees the old object.
  store.put_async(1, kIn, 90.0, record_into(store, sim, put), 1);
  EXPECT_TRUE(put.ok);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 90.0);
}

TEST(JobStoreRetryTest, BackoffIsCapped) {
  Simulation sim;
  JobStore::Config cfg;
  cfg.retry_backoff = 2.0;
  cfg.backoff_multiplier = 10.0;
  cfg.max_backoff = 5.0;
  cfg.max_attempts = 4;
  JobStore store(sim, cfg);
  store.set_available(false);
  PutResult put;
  store.put_async(1, kIn, 1.0, record_into(store, sim, put), 1);
  sim.run();
  // Attempts at 0, 2, 7 (20 capped to 5), 12: gives up on the fourth.
  EXPECT_FALSE(put.ok);
  EXPECT_DOUBLE_EQ(put.at, 12.0);
  EXPECT_EQ(store.abandoned_ops(), 1u);
}

TEST(JobStoreTest, RunningStateTracksTransitions) {
  // The store keeps running values, not a history: current and peak
  // occupancy, and the byte-seconds integral billing reads.
  Simulation sim;
  cbs::sim::ClosureEvents events(sim);
  JobStore store(sim);
  events.at(5.0, [&] {
    store.put(1, kIn, 10.0);
    EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 10.0);
  });
  events.at(9.0, [&] { store.erase(1, kIn); });
  sim.run();
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(store.peak_occupancy_bytes(), 10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 9.0);
  EXPECT_DOUBLE_EQ(store.occupancy_byte_seconds(), 40.0);
}

}  // namespace
