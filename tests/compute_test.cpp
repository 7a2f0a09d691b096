#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "closure_events.hpp"
#include "compute/cluster.hpp"
#include "compute/job_store.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"

namespace {

using namespace cbs::compute;
using cbs::sim::Simulation;
using cbs::testing::RecordingOwner;

// ---- Cluster -------------------------------------------------------------

TEST(ClusterTest, SingleMachineRunsFcfs) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
  for (int i = 0; i < 3; ++i) cluster.submit(10.0, 0, 0);
  sim.run();
  const std::vector<TaskRecord>& done = owner.tasks;
  ASSERT_EQ(done.size(), 3u);
  EXPECT_DOUBLE_EQ(done[0].completed, 10.0);
  EXPECT_DOUBLE_EQ(done[1].completed, 20.0);
  EXPECT_DOUBLE_EQ(done[2].completed, 30.0);
  EXPECT_LT(done[0].task_id, done[1].task_id);  // FCFS order preserved
}

TEST(ClusterTest, ParallelMachines) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 4);
  for (int i = 0; i < 4; ++i) cluster.submit(10.0, 0, 0);
  sim.run();
  EXPECT_EQ(owner.tasks.size(), 4u);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // all four ran concurrently
}

TEST(ClusterTest, SpeedScalesServiceTime) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1, 2.0);
  cluster.submit(10.0, 0, 0);
  sim.run();
  ASSERT_EQ(owner.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(owner.tasks[0].completed, 5.0);
}

TEST(ClusterTest, RecordsContainTimestamps) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
  cluster.submit(5.0, 7, 0);
  cluster.submit(5.0, 8, 0);
  sim.run();
  const std::vector<TaskRecord>& recs = owner.tasks;
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_DOUBLE_EQ(recs[1].enqueued, 0.0);
  EXPECT_DOUBLE_EQ(recs[1].started, 5.0);
  EXPECT_DOUBLE_EQ(recs[1].completed, 10.0);
  EXPECT_EQ(recs[1].group_id, 8u);
  EXPECT_EQ(recs[0].machine, 0u);
}

TEST(ClusterTest, BusyTimeAndUtilization) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 2);
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
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
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
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 2);
  cluster.submit(5.0, 0, 0);
  cluster.submit(5.0, 0, 0);
  sim.run();
  // Each machine frees into an empty queue.
  EXPECT_EQ(owner.idle_machines, (std::vector<std::size_t>{0, 1}));
}

TEST(ClusterTest, TaskDoneHookFiresPerTask) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
  for (int i = 0; i < 5; ++i) cluster.submit(1.0, 0, 0);
  sim.run();
  EXPECT_EQ(owner.tasks.size(), 5u);
  // Only the last task leaves the machine idle.
  EXPECT_EQ(owner.idle_machines.size(), 1u);
}

/// Submits a kind-2 task whenever a kind-1 task finishes.
struct ChainingOwner : RecordingOwner {
  using RecordingOwner::RecordingOwner;
  Cluster* cluster = nullptr;
  void on_task_done(std::size_t index, const TaskRecord& rec) override {
    RecordingOwner::on_task_done(index, rec);
    if (rec.kind == 1) cluster->submit(3.0, 0, 2);
  }
};

TEST(ClusterTest, CallbackCanSubmitMoreWork) {
  Simulation sim;
  ChainingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
  owner.cluster = &cluster;
  cluster.submit(2.0, 0, 1);
  sim.run();
  ASSERT_EQ(owner.tasks.size(), 2u);
  EXPECT_DOUBLE_EQ(owner.tasks[1].completed, 5.0);
}

TEST(ClusterTest, ZeroServiceTaskCompletesInstantly) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
  cluster.submit(0.0, 0, 0);
  sim.run();
  ASSERT_EQ(owner.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(owner.tasks[0].completed, 0.0);
}

// ---- JobStore --------------------------------------------------------------

constexpr auto kIn = JobStore::ObjectKind::kInput;
constexpr auto kOut = JobStore::ObjectKind::kOutput;

TEST(JobStoreTest, PutGetErase) {
  Simulation sim;
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
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
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
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
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
  store.put(1, kIn, 100.0);
  store.put(1, kIn, 40.0);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 40.0);
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(JobStoreTest, PeakOccupancy) {
  Simulation sim;
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
  store.put(1, kIn, 100.0);
  store.put(2, kIn, 50.0);
  store.erase(1, kIn);
  store.put(3, kIn, 20.0);
  EXPECT_DOUBLE_EQ(store.peak_occupancy_bytes(), 150.0);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 70.0);
}

TEST(JobStoreTest, EraseMissingIsNoOp) {
  Simulation sim;
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
  EXPECT_DOUBLE_EQ(store.erase(99, kOut), 0.0);
  EXPECT_DOUBLE_EQ(store.size_of(99, kOut), 0.0);
}

// ---- Cluster crash/recover (fault injection) -----------------------------

TEST(ClusterCrashTest, CrashRequeuesAndReexecutesRunningTask) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
  cluster.submit(10.0, 0, 0);
  events.at(4.0, [&] { cluster.crash_machine(0); });
  events.at(6.0, [&] { cluster.recover_machine(0); });
  sim.run();
  // 4 s of work destroyed; full re-execution starts at recovery: 6 + 10.
  // The task completes exactly once.
  ASSERT_EQ(owner.tasks.size(), 1u);
  EXPECT_DOUBLE_EQ(owner.tasks[0].completed, 16.0);
  EXPECT_EQ(cluster.crashes(), 1u);
  EXPECT_EQ(cluster.reexecutions(), 1u);
  EXPECT_DOUBLE_EQ(cluster.wasted_standard_seconds(), 4.0);
}

TEST(ClusterCrashTest, ReclaimedTaskKeepsFcfsPosition) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 1);
  const TaskId first = cluster.submit(10.0, 0, 0);
  const TaskId second = cluster.submit(10.0, 0, 0);
  events.at(5.0, [&] { cluster.crash_machine(0); });
  events.at(7.0, [&] { cluster.recover_machine(0); });
  sim.run();
  // The crashed head task goes back to the *front* of the queue, so it
  // still finishes before the task behind it.
  ASSERT_EQ(owner.tasks.size(), 2u);
  EXPECT_EQ(owner.tasks[0].task_id, first);
  EXPECT_EQ(owner.tasks[1].task_id, second);
}

TEST(ClusterCrashTest, DownMachineIsNotDispatchedUntilRecovery) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 2);
  events.at(0.0, [&] { cluster.crash_machine(0); });
  events.at(1.0, [&] {
    cluster.submit(5.0, 0, 0);
    cluster.submit(5.0, 0, 0);
  });
  events.at(2.0, [&] { cluster.recover_machine(0); });
  sim.run();
  ASSERT_EQ(owner.tasks.size(), 2u);
  EXPECT_EQ(cluster.down_machines(), 0u);
  // First task had only machine 1 available; the second started on the
  // recovered machine 0 at t = 2 rather than queueing behind machine 1.
  EXPECT_EQ(owner.tasks[0].machine, 1u);
  EXPECT_EQ(owner.tasks[1].machine, 0u);
}

TEST(ClusterCrashTest, CrashOnIdleMachineJustTakesItDown) {
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 2);
  EXPECT_TRUE(cluster.crash_machine(1));
  EXPECT_EQ(cluster.down_machines(), 1u);
  EXPECT_EQ(cluster.reexecutions(), 0u);
  EXPECT_FALSE(cluster.crash_machine(1));  // already down
  EXPECT_TRUE(cluster.recover_machine(1));
  EXPECT_FALSE(cluster.recover_machine(1));  // already up
  EXPECT_EQ(cluster.down_machines(), 0u);
}

// ---- Cluster drain (pre-emptive resilience) --------------------------------

TEST(ClusterDrainTest, DrainCheckpointsTheRunningTaskAndRequeuesItsRest) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 2, 2.0);
  const TaskId a = cluster.submit(20.0, 1, 0);  // machine 0, done at 10 s
  const TaskId b = cluster.submit(40.0, 2, 0);  // machine 1, done at 20 s
  const TaskId c = cluster.submit(10.0, 3, 0);  // queued behind both
  events.at(2.5, [&] {
    ASSERT_TRUE(cluster.drain_machine(0));
    // (2.5 − 0) s × speed 2 = 5 standard seconds banked; the other 15
    // re-queue at the head, ahead of c. No healthy machine is free, so the
    // drained one takes them back at once.
    EXPECT_EQ(cluster.drain_preemptions(), 1u);
    EXPECT_DOUBLE_EQ(cluster.checkpointed_standard_seconds(), 5.0);
    EXPECT_EQ(cluster.running_tasks(), 2u);
    EXPECT_EQ(cluster.queued_tasks(), 1u);
    EXPECT_DOUBLE_EQ(cluster.queued_standard_seconds(), 10.0);
    EXPECT_FALSE(cluster.drain_machine(0));  // already drained
  });
  sim.run();

  ASSERT_EQ(owner.tasks.size(), 3u);
  // The remainder runs 15 / 2 = 7.5 s from 2.5 s; c follows it on machine
  // 0 at 10 s, so the remainder kept a's place at the head of the queue.
  EXPECT_EQ(owner.tasks[0].task_id, a);
  EXPECT_EQ(owner.tasks[0].machine, 0u);
  EXPECT_DOUBLE_EQ(owner.tasks[0].started, 2.5);
  EXPECT_DOUBLE_EQ(owner.tasks[0].completed, 10.0);
  EXPECT_DOUBLE_EQ(owner.tasks[0].standard_service, 15.0);
  EXPECT_EQ(owner.tasks[1].task_id, c);
  EXPECT_DOUBLE_EQ(owner.tasks[1].completed, 15.0);
  EXPECT_EQ(owner.tasks[2].task_id, b);
  EXPECT_DOUBLE_EQ(owner.tasks[2].completed, 20.0);

  // A drain wastes nothing: no re-execution, and machine 0 was busy for
  // all 15 s of the 20 standard seconds it served.
  EXPECT_EQ(cluster.drains(), 1u);
  EXPECT_EQ(cluster.drain_preemptions(), 1u);
  EXPECT_EQ(cluster.reexecutions(), 0u);
  EXPECT_DOUBLE_EQ(cluster.wasted_standard_seconds(), 0.0);
  EXPECT_DOUBLE_EQ(cluster.machine_busy_time(0), 15.0);
  EXPECT_TRUE(cluster.machine_drained(0));
}

TEST(ClusterElasticTest, ReusedSlotBootsAsAFreshMachine) {
  // add_machine() reuses a retired slot for a new instance: a slot retired
  // while drained or while down comes back neither, and the old instance's
  // late recovery finds nothing to recover.
  Simulation sim;
  RecordingOwner owner(sim);
  Cluster cluster(sim, owner, 0, "c", 3);
  ASSERT_TRUE(cluster.drain_machine(2));
  ASSERT_TRUE(cluster.crash_machine(1));
  ASSERT_TRUE(cluster.remove_machine());  // the idle, drained machine 2
  ASSERT_TRUE(cluster.remove_machine());  // the down machine 1
  ASSERT_TRUE(cluster.machine_retired(1));
  ASSERT_TRUE(cluster.machine_retired(2));
  ASSERT_EQ(cluster.machine_count(), 1u);

  EXPECT_EQ(cluster.add_machine(), 1u);
  EXPECT_EQ(cluster.add_machine(), 2u);
  EXPECT_EQ(cluster.machine_count(), 3u);
  EXPECT_EQ(cluster.down_machines(), 0u);
  EXPECT_FALSE(cluster.machine_drained(1));
  EXPECT_FALSE(cluster.machine_drained(2));
  EXPECT_FALSE(cluster.recover_machine(1));

  // All three machines take a task at once.
  for (int i = 0; i < 3; ++i) cluster.submit(10.0, 0, 0);
  sim.run();
  ASSERT_EQ(owner.tasks.size(), 3u);
  for (const TaskRecord& rec : owner.tasks) {
    EXPECT_DOUBLE_EQ(rec.completed, 10.0);
  }
}

// ---- JobStore retry/backoff (S3 best-effort semantics) -------------------

TEST(JobStoreRetryTest, HealthyPutCompletesSynchronously) {
  Simulation sim;
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
  store.put_async(42, kIn, 100.0);
  // No event needed: the owner already heard of it.
  ASSERT_EQ(owner.puts.size(), 1u);
  EXPECT_TRUE(owner.puts[0].ok);
  EXPECT_EQ(owner.puts[0].seq, 42u);
  EXPECT_EQ(owner.puts[0].kind, kIn);
  EXPECT_DOUBLE_EQ(store.size_of(42, kIn), 100.0);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 100.0);
  EXPECT_EQ(store.failed_attempts(), 0u);
}

TEST(JobStoreRetryTest, PutRetriesThroughOutage) {
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
  store.set_available(false);
  store.put_async(1, kIn, 50.0);
  // Attempts at 0, 2, 6 (backoff 2 then 4); the store comes back at 5, so
  // the third attempt lands the object.
  events.at(5.0, [&] { store.set_available(true); });
  sim.run();
  ASSERT_EQ(owner.puts.size(), 1u);
  EXPECT_TRUE(owner.puts[0].ok);
  EXPECT_DOUBLE_EQ(owner.puts[0].at, 6.0);
  EXPECT_EQ(store.failed_attempts(), 2u);
  EXPECT_EQ(store.abandoned_ops(), 0u);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 50.0);
}

TEST(JobStoreRetryTest, GivesUpAfterSixAttempts) {
  Simulation sim;
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
  store.set_available(false);
  store.put_async(1, kIn, 1.0);
  sim.run();
  // Attempts at 0, 2, 6, 14, 30 and 62 (waits of 2, 4, 8, 16 and 32 s):
  // gives up on the sixth.
  ASSERT_EQ(owner.puts.size(), 1u);
  EXPECT_FALSE(owner.puts[0].ok);
  EXPECT_DOUBLE_EQ(owner.puts[0].at, 62.0);
  EXPECT_EQ(store.failed_attempts(), 6u);
  EXPECT_EQ(store.abandoned_ops(), 1u);
  EXPECT_DOUBLE_EQ(store.occupancy_bytes(), 0.0);
}

TEST(JobStoreTest, RunningStateTracksTransitions) {
  // The store keeps running values, not a history: current and peak
  // occupancy, and the byte-seconds integral billing reads.
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  JobStore store(sim, owner, 0);
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
