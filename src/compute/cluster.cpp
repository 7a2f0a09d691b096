#include "compute/cluster.hpp"

#include <cassert>
#include <utility>

namespace cbs::compute {

using cbs::sim::SimTime;

Cluster::Cluster(cbs::sim::Simulation& sim, ClusterOwner& owner,
                 std::size_t index, std::string name, std::size_t machines,
                 double speed)
    : sim_(sim), target_(sim.register_target(*this)), owner_(owner) {
  assert(machines > 0);
  assert(speed > 0.0);
  index_ = index;
  name_ = std::move(name);
  speed_ = speed;
  machines_.resize(machines);
  running_tasks_.resize(machines);
  active_machines_ = machines;
  provision_level_ = machines;
  provision_since_ = sim.now();
}

Cluster::Cluster(cbs::sim::Simulation& dst, ClusterOwner& owner,
                 const Cluster& src)
    : ClusterState(src),
      sim_(dst),
      target_(dst.register_target(*this, src.target_)),
      owner_(owner) {}

void Cluster::on_event(std::uint32_t /*kind*/, std::uint64_t machine) {
  finish(machine);
}

void Cluster::note_provision_change(std::size_t new_count) {
  provision_accum_ +=
      static_cast<double>(provision_level_) * (sim_.now() - provision_since_);
  provision_since_ = sim_.now();
  provision_level_ = new_count;
}

double Cluster::provisioned_machine_seconds() const {
  return provision_accum_ +
         static_cast<double>(provision_level_) * (sim_.now() - provision_since_);
}

std::size_t Cluster::add_machine() {
  // Reuse a retired slot if one exists (keeps busy-time bookkeeping dense);
  // otherwise grow.
  std::size_t idx = machines_.size();
  for (std::size_t m = 0; m < machines_.size(); ++m) {
    if (machines_[m].retired) {
      idx = m;
      break;
    }
  }
  if (idx == machines_.size()) {
    machines_.emplace_back();
    running_tasks_.emplace_back();
  } else {
    Machine& machine = machines_[idx];
    if (machine.down) --down_;
    machine.retired = false;
    machine.retire_when_free = false;
    machine.down = false;
    machine.drained = false;
  }
  ++active_machines_;
  note_provision_change(active_machines_);
  dispatch();
  return idx;
}

bool Cluster::remove_machine() {
  if (active_machines_ <= 1) return false;
  // Prefer an idle machine (released immediately); otherwise mark the
  // highest-index busy machine to retire when its current task finishes.
  for (std::size_t m = machines_.size(); m-- > 0;) {
    Machine& machine = machines_[m];
    if (machine.retired || machine.retire_when_free) continue;
    if (!machine.busy) {
      retire(machine);
      return true;
    }
  }
  for (std::size_t m = machines_.size(); m-- > 0;) {
    Machine& machine = machines_[m];
    if (machine.retired || machine.retire_when_free) continue;
    machine.retire_when_free = true;
    return true;
  }
  return false;
}

TaskId Cluster::submit(double standard_service_seconds, std::uint64_t group_id,
                       std::uint32_t kind) {
  assert(standard_service_seconds >= 0.0);
  const TaskId id = next_id_++;
  queue_.push_back(
      Pending{id, group_id, kind, sim_.now(), standard_service_seconds});
  queued_standard_seconds_ += standard_service_seconds;
  dispatch();
  return id;
}

void Cluster::dispatch() {
  while (!queue_.empty()) {
    // Lowest-indexed free, non-retired, non-crashed machine. Drained
    // machines are a soft exclusion: they are skipped while any healthy
    // machine is free (work migrates away from predicted failures) but
    // still accept work rather than stall the queue — a drain trades
    // placement preference, never capacity.
    std::size_t free = machines_.size();
    std::size_t drained_free = machines_.size();
    for (std::size_t m = 0; m < machines_.size(); ++m) {
      if (machines_[m].busy || machines_[m].retired ||
          machines_[m].retire_when_free || machines_[m].down) {
        continue;
      }
      if (!machines_[m].drained) {
        free = m;
        break;
      }
      if (drained_free == machines_.size()) drained_free = m;
    }
    if (free == machines_.size()) free = drained_free;
    if (free == machines_.size()) return;

    Pending task = std::move(queue_.front());
    queue_.pop_front();
    queued_standard_seconds_ -= task.standard_service;

    Machine& machine = machines_[free];
    machine.busy = true;
    machine.busy_since = sim_.now();
    ++running_;

    const double duration = task.standard_service / speed_;
    // The task is parked on the machine (the event names only the
    // machine) so a crash can cancel the completion and reclaim it.
    Running run{std::move(task), sim_.now(), {}};
    run.completion = sim_.schedule_in(duration, {target_, 0, free});
    running_tasks_[free] = std::move(run);
  }
}

void Cluster::finish(std::size_t machine_idx) {
  assert(running_tasks_[machine_idx].has_value());
  Pending task = std::move(running_tasks_[machine_idx]->task);
  const SimTime started = running_tasks_[machine_idx]->started;
  running_tasks_[machine_idx].reset();

  Machine& machine = machines_[machine_idx];
  machine.busy = false;
  machine.busy_accum += sim_.now() - machine.busy_since;
  --running_;
  if (machine.retire_when_free) retire(machine);

  TaskRecord rec;
  rec.task_id = task.task_id;
  rec.group_id = task.group_id;
  rec.kind = task.kind;
  rec.enqueued = task.enqueued;
  rec.started = started;
  rec.completed = sim_.now();
  rec.machine = machine_idx;
  rec.standard_service = task.standard_service;

  // Pull the next task before reporting, so the machine never sits idle
  // across an owner call that might enqueue more work.
  dispatch();
  owner_.on_task_done(index_, rec);
  if (queue_.empty() && !machines_[machine_idx].busy) {
    owner_.on_machine_idle(index_, machine_idx);
  }
}

bool Cluster::crash_machine(std::size_t machine_idx) {
  if (machine_idx >= machines_.size()) return false;
  Machine& machine = machines_[machine_idx];
  if (machine.retired || machine.down) return false;
  ++crashes_;
  // A crash on a pre-emptively drained, idle machine destroys nothing —
  // exactly the outcome the proactive policy drains for.
  if (machine.drained && !machine.busy) ++idle_crashes_absorbed_;
  if (machine.busy) {
    Running run = preempt(machine_idx);
    // Cycles burned so far are both paid for (busy time) and wasted (the
    // re-execution starts from scratch).
    const double lost_wall = sim_.now() - run.started;
    wasted_standard_seconds_ += lost_wall * speed_;
    ++reexecutions_;
    // Head of the queue: the lost task keeps its FCFS position.
    queued_standard_seconds_ += run.task.standard_service;
    queue_.push_front(std::move(run.task));
  }
  if (machine.retire_when_free) {
    // The machine was draining toward retirement anyway — retire it now
    // instead of parking it in the down state.
    retire(machine);
  } else {
    machine.down = true;
    ++down_;
  }
  // The reclaimed task may fit on another free machine right away.
  dispatch();
  return true;
}

Cluster::Running Cluster::preempt(std::size_t machine_idx) {
  Running run = std::move(*running_tasks_[machine_idx]);
  running_tasks_[machine_idx].reset();
  sim_.cancel(run.completion);
  Machine& machine = machines_[machine_idx];
  machine.busy = false;
  machine.busy_accum += sim_.now() - machine.busy_since;
  --running_;
  return run;
}

void Cluster::retire(Machine& machine) {
  machine.retire_when_free = false;
  machine.retired = true;
  --active_machines_;
  note_provision_change(active_machines_);
}

bool Cluster::recover_machine(std::size_t machine_idx) {
  if (machine_idx >= machines_.size()) return false;
  Machine& machine = machines_[machine_idx];
  if (!machine.down) return false;
  machine.down = false;
  assert(down_ > 0);
  --down_;
  dispatch();
  return true;
}

bool Cluster::drain_machine(std::size_t machine_idx) {
  if (machine_idx >= machines_.size()) return false;
  Machine& machine = machines_[machine_idx];
  if (machine.retired || machine.retire_when_free || machine.drained) {
    return false;
  }
  machine.drained = true;
  ++drains_;
  if (machine.busy) {
    // Checkpoint-restart: cancel the completion, bank the finished
    // fraction and re-queue only the remainder at its FCFS position.
    Running run = preempt(machine_idx);
    const double done_standard = (sim_.now() - run.started) * speed_;
    ++drain_preemptions_;
    Pending& task = run.task;
    const double remaining =
        std::max(0.0, task.standard_service - done_standard);
    checkpointed_standard_seconds_ += task.standard_service - remaining;
    task.standard_service = remaining;
    queued_standard_seconds_ += remaining;
    queue_.push_front(std::move(task));
    dispatch();
  }
  return true;
}

bool Cluster::undrain_machine(std::size_t machine_idx) {
  if (machine_idx >= machines_.size()) return false;
  Machine& machine = machines_[machine_idx];
  if (!machine.drained) return false;
  machine.drained = false;
  ++undrains_;
  dispatch();
  return true;
}

bool Cluster::machine_drained(std::size_t machine) const {
  assert(machine < machines_.size());
  return machines_[machine].drained;
}

bool Cluster::machine_retired(std::size_t machine) const {
  assert(machine < machines_.size());
  return machines_[machine].retired;
}

double Cluster::machine_busy_time(std::size_t machine) const {
  assert(machine < machines_.size());
  const Machine& m = machines_[machine];
  return m.busy_accum + (m.busy ? sim_.now() - m.busy_since : 0.0);
}

double Cluster::total_busy_time() const {
  double total = 0.0;
  for (std::size_t m = 0; m < machines_.size(); ++m) total += machine_busy_time(m);
  return total;
}

double Cluster::average_utilization(SimTime t0, SimTime t1) const {
  assert(t1 > t0);
  // Eq. 9: u_M = ru_M / (|M| * C). Busy time accumulated before t0 is not
  // subtracted because runs always start metering at t0 = 0 in practice;
  // the assert documents the assumption.
  assert(t0 == 0.0 && "utilization metering assumes run starts at t=0");
  return total_busy_time() /
         (static_cast<double>(machine_count()) * (t1 - t0));
}

}  // namespace cbs::compute
