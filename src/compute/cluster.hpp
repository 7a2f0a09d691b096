#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cbs::compute {

using TaskId = std::uint64_t;

/// Everything known about a finished compute task.
struct TaskRecord {
  TaskId task_id = 0;
  std::uint64_t group_id = 0;  ///< caller-defined grouping (e.g. job id)
  std::uint32_t kind = 0;      ///< caller-defined task kind (0 = untagged)
  cbs::sim::SimTime enqueued = 0.0;
  cbs::sim::SimTime started = 0.0;
  cbs::sim::SimTime completed = 0.0;
  std::size_t machine = 0;
  double standard_service = 0.0;  ///< service time on a speed-1 machine
};

/// What a Cluster reports to. `cluster` is the index the owner gave the
/// cluster at construction.
class ClusterOwner {
 public:
  /// A task finished. The freed machine has already pulled the next queued
  /// task, so the owner never sees a machine idle across this call.
  virtual void on_task_done(std::size_t cluster, const TaskRecord& rec) = 0;
  /// After on_task_done(): `machine` is still free and the queue is empty —
  /// the trigger point of the §IV.D rescheduling strategies.
  virtual void on_machine_idle(std::size_t cluster, std::size_t machine) = 0;

 protected:
  ~ClusterOwner() = default;
};

/// A Cluster's value state: everything but its engine, target id and
/// owner, so a fork copies it whole (DESIGN.md §12.2).
struct ClusterState {
  struct Machine {
    bool busy = false;
    bool retired = false;        ///< released; never dispatched again
    bool retire_when_free = false;
    bool down = false;           ///< crashed; awaiting recover_machine()
    bool drained = false;        ///< pre-emptively held out of dispatch
    double busy_accum = 0.0;
    cbs::sim::SimTime busy_since = 0.0;
  };

  struct Pending {
    TaskId task_id;
    std::uint64_t group_id;
    std::uint32_t kind;
    cbs::sim::SimTime enqueued;
    double standard_service;
  };

  /// The task executing on one machine; its completion event carries only
  /// the machine index, so a crash can cancel the event and reclaim the
  /// task.
  struct Running {
    Pending task;
    cbs::sim::SimTime started = 0.0;
    cbs::sim::EventId completion{};
  };

  std::size_t index_ = 0;
  std::string name_;
  double speed_ = 1.0;
  std::vector<Machine> machines_;
  std::vector<std::optional<Running>> running_tasks_;  ///< parallel to machines_
  std::size_t active_machines_ = 0;
  std::size_t down_ = 0;
  std::uint64_t crashes_ = 0;
  std::uint64_t reexecutions_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t undrains_ = 0;
  std::uint64_t drain_preemptions_ = 0;
  std::uint64_t idle_crashes_absorbed_ = 0;
  double wasted_standard_seconds_ = 0.0;
  double checkpointed_standard_seconds_ = 0.0;
  // Provisioned machine-seconds accounting.
  double provision_accum_ = 0.0;
  cbs::sim::SimTime provision_since_ = 0.0;
  std::size_t provision_level_ = 0;
  std::deque<Pending> queue_;
  std::size_t running_ = 0;
  double queued_standard_seconds_ = 0.0;
  TaskId next_id_ = 1;
};

/// A pool of identical machines with one global FCFS task queue — the
/// execution substrate for both the internal (Hadoop on printer
/// controllers) and external (EMR) clouds. Tasks are dispatched to the
/// lowest-indexed free machine; each machine runs one task at a time at
/// `speed` times the standard rate.
class Cluster : private ClusterState, private cbs::sim::EventTarget {
 public:
  /// A cluster that reports to `owner` under `index`.
  Cluster(cbs::sim::Simulation& sim, ClusterOwner& owner, std::size_t index,
          std::string name, std::size_t machines, double speed = 1.0);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Fork support: copies `src`'s ClusterState whole into a cluster bound
  /// to `dst`, the copy of `src`'s engine, that reports to `owner`.
  Cluster(cbs::sim::Simulation& dst, ClusterOwner& owner, const Cluster& src);

  /// Enqueues a task needing `standard_service_seconds` of speed-1
  /// compute. Its completion is reported to the owner with `group_id` and
  /// `kind` in the record, so a queued or running task is plain data and
  /// crosses a fork as is.
  TaskId submit(double standard_service_seconds, std::uint64_t group_id,
                std::uint32_t kind);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  /// Machines currently provisioned (retired ones excluded).
  [[nodiscard]] std::size_t machine_count() const noexcept { return active_machines_; }
  /// All machine slots ever provisioned, including retired ones (for
  /// per-machine busy-time iteration).
  [[nodiscard]] std::size_t machine_slots() const noexcept { return machines_.size(); }
  [[nodiscard]] double speed() const noexcept { return speed_; }
  [[nodiscard]] std::size_t queued_tasks() const noexcept { return queue_.size(); }
  [[nodiscard]] std::size_t running_tasks() const noexcept { return running_; }
  [[nodiscard]] bool idle() const noexcept { return queue_.empty() && running_ == 0; }

  /// True (speed-1) service seconds sitting in the queue, not yet started.
  /// Ground truth — used by metrics and tests, never by schedulers.
  [[nodiscard]] double queued_standard_seconds() const noexcept {
    return queued_standard_seconds_;
  }

  /// Busy time of one machine up to now.
  [[nodiscard]] double machine_busy_time(std::size_t machine) const;
  /// Sum of busy time over all machines.
  [[nodiscard]] double total_busy_time() const;
  /// Average utilization over [t0, t1] per the paper's Eq. 9.
  [[nodiscard]] double average_utilization(cbs::sim::SimTime t0,
                                           cbs::sim::SimTime t1) const;

  // ---- Elasticity (pay-as-you-go instances) --------------------------

  /// Provisions one more machine (an EC instance spin-up). It becomes
  /// eligible for dispatch immediately; model boot delay by scheduling the
  /// call at now + boot_time. A reused retired slot boots as a fresh
  /// machine: neither drained nor down (a pending recovery of the old
  /// instance then finds nothing to recover). Returns its machine index.
  std::size_t add_machine();

  /// Retires one machine: an idle machine is released immediately,
  /// otherwise the busiest-index idle-soon machine finishes its current
  /// task and is released then (lazy drain). Returns false when the
  /// cluster is already at one machine (never scales to zero).
  bool remove_machine();

  /// Integral of provisioned machine count over time — the correct
  /// utilization denominator for an elastic cluster (machine-seconds paid
  /// for). For a static cluster this equals machine_count() * now.
  [[nodiscard]] double provisioned_machine_seconds() const;

  // ---- Fault injection (crash/recover, driven by sim::FaultPlan) -----

  /// Crashes one machine: its running task (if any) is lost mid-flight and
  /// re-queued at the *front* of the FCFS queue — the work is re-executed
  /// from scratch and the partial compute is counted as wasted. The machine
  /// stays down (never dispatched) until recover_machine(). A machine that
  /// was draining toward retirement is retired on the spot. Returns false
  /// for an unknown, retired or already-down machine.
  bool crash_machine(std::size_t machine);

  /// Brings a crashed machine back; it immediately pulls queued work.
  /// Returns false unless the machine is currently down.
  bool recover_machine(std::size_t machine);

  // ---- Proactive drains (pre-emptive resilience policy) ---------------

  /// Drains one machine: dispatch avoids it while any healthy machine is
  /// free (a *soft* exclusion — under full backlog it still accepts work
  /// rather than stall the queue, so a drain trades placement preference,
  /// never capacity). It stays provisioned (still billed, still counted in
  /// machine_count()). A task running on it is checkpoint-restarted: its
  /// completed fraction is preserved and only the remaining service
  /// re-queues at the *front* of the FCFS queue — unlike a crash, no
  /// compute is wasted. Refused (returns false) for a retired or
  /// already-drained machine.
  bool drain_machine(std::size_t machine);

  /// Lifts a drain; the machine immediately pulls queued work. Returns
  /// false unless the machine is currently drained.
  bool undrain_machine(std::size_t machine);

  [[nodiscard]] bool machine_drained(std::size_t machine) const;
  [[nodiscard]] bool machine_retired(std::size_t machine) const;
  /// Cumulative drain / undrain decisions applied.
  [[nodiscard]] std::uint64_t drains() const noexcept { return drains_; }
  [[nodiscard]] std::uint64_t undrains() const noexcept { return undrains_; }
  /// Running tasks checkpoint-restarted by a pre-emptive drain.
  [[nodiscard]] std::uint64_t drain_preemptions() const noexcept {
    return drain_preemptions_;
  }
  /// Standard (speed-1) seconds of partial work preserved by checkpoint
  /// restarts — compute a crash would have wasted.
  [[nodiscard]] double checkpointed_standard_seconds() const noexcept {
    return checkpointed_standard_seconds_;
  }
  /// Crashes that landed on a drained, idle machine — the proactive
  /// policy's dividend: those crashes destroyed no work at all.
  [[nodiscard]] std::uint64_t idle_crashes_absorbed() const noexcept {
    return idle_crashes_absorbed_;
  }

  /// Machines currently down (crashed, not yet recovered).
  [[nodiscard]] std::size_t down_machines() const noexcept { return down_; }
  /// Crash events applied so far.
  [[nodiscard]] std::uint64_t crashes() const noexcept { return crashes_; }
  /// Tasks that lost a machine mid-run and were re-queued for a full
  /// re-execution.
  [[nodiscard]] std::uint64_t reexecutions() const noexcept {
    return reexecutions_;
  }
  /// Standard (speed-1) service seconds of partial work destroyed by
  /// crashes — the wasted-compute bill of the fault model.
  [[nodiscard]] double wasted_standard_seconds() const noexcept {
    return wasted_standard_seconds_;
  }

 private:
  /// The completion of the task running on machine `machine`.
  void on_event(std::uint32_t kind, std::uint64_t machine) override;
  void dispatch();
  void finish(std::size_t machine);
  /// Takes the task off busy machine `machine` before it completes: cancels
  /// its completion, closes the busy interval and returns what ran.
  Running preempt(std::size_t machine);
  /// Retires `machine` for good: one fewer active machine from now on.
  void retire(Machine& machine);

  void note_provision_change(std::size_t new_count);

  cbs::sim::Simulation& sim_;
  cbs::sim::TargetId target_;
  ClusterOwner& owner_;
};

}  // namespace cbs::compute
