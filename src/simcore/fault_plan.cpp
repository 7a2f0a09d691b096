#include "simcore/fault_plan.hpp"

#include <cassert>
#include <cmath>
#include <string>
#include <utility>

namespace cbs::sim {

FaultPlan::FaultPlan(Simulation& sim, FaultOwner& owner, FaultConfig config,
                     RngStream rng)
    : FaultPlanState(std::move(config), rng),
      sim_(sim),
      target_(sim.register_target(*this)),
      owner_(owner) {
  assert(config_.ic_vm_mtbf >= 0.0);
  assert(config_.ec_vm_mtbf >= 0.0);
  assert(config_.vm_recovery_seconds >= 0.0);
  assert(config_.retraction_deadline_factor >= 0.0);
}

FaultPlan::FaultPlan(Simulation& dst, FaultOwner& owner, const FaultPlan& src)
    : FaultPlanState(src),
      sim_(dst),
      target_(dst.register_target(*this, src.target_)),
      owner_(owner) {}

void FaultPlan::on_event(std::uint32_t kind, std::uint64_t index) {
  switch (kind) {
    case kCrash: fire(index); return;
    case kRecover: recover(index); return;
    case kOutageEdge: fire_outage(index); return;
  }
  assert(false && "unknown FaultPlan event");
}

void FaultPlan::drive_vm_crashes(std::string_view name, std::size_t machines,
                                 double mtbf, std::size_t cluster) {
  if (mtbf <= 0.0 || machines == 0) return;
  const RngStream cluster_rng = rng_.substream(name);
  for (std::size_t m = 0; m < machines; ++m) {
    processes_.push_back(CrashProcess{cluster_rng.substream(m), mtbf, m,
                                      cluster, false, false});
    arm(processes_.size() - 1);
  }
}

void FaultPlan::arm(std::size_t i) {
  CrashProcess& process = processes_[i];
  if (process.armed) return;
  process.armed = true;
  // Exponential inter-crash time: -mtbf * ln(1 - U), U in [0, 1).
  const double delay =
      -process.mtbf * std::log1p(-process.rng.next_double());
  sim_.schedule_in(delay, {target_, kCrash, i});
}

void FaultPlan::fire(std::size_t i) {
  CrashProcess& process = processes_[i];
  process.armed = false;
  // Pause while the system is idle so the event queue can drain; the
  // controller re-arms via ensure_armed() when work arrives.
  if (!owner_.faults_active()) return;
  ++crashes_injected_;
  process.recovering = true;
  owner_.on_vm_crash(process.cluster, process.machine);
  sim_.schedule_in(config_.vm_recovery_seconds, {target_, kRecover, i});
}

void FaultPlan::recover(std::size_t i) {
  CrashProcess& process = processes_[i];
  process.recovering = false;
  owner_.on_vm_recover(process.cluster, process.machine);
  // Next failure is drawn from the recovery instant, so MTBF measures
  // time *between* crashes of one machine, not uptime alone.
  if (owner_.faults_active()) arm(i);
}

void FaultPlan::ensure_armed() {
  for (std::size_t i = 0; i < processes_.size(); ++i) {
    // A recovering machine re-arms from its own recovery event.
    if (!processes_[i].armed && !processes_[i].recovering) arm(i);
  }
}

void FaultPlan::drive_outages() {
  assert(!outages_driven_ && "drive_outages() may be called at most once");
  outages_driven_ = true;
  for (const OutageWindow& window : config_.outage_windows) {
    if (window.duration <= 0.0) continue;
    for (const bool begin : {true, false}) {
      sim_.schedule_at(begin ? window.start : window.end(),
                       {target_, kOutageEdge, outage_edges_.size()});
      outage_edges_.push_back(OutageEdge{window, begin});
    }
  }
}

void FaultPlan::fire_outage(std::size_t k) {
  const OutageEdge& edge = outage_edges_[k];
  if (edge.begin) {
    if (outage_depth_++ == 0) {
      ++outages_started_;
      owner_.on_outage_begin(edge.window);
    }
  } else {
    assert(outage_depth_ > 0);
    if (--outage_depth_ == 0) owner_.on_outage_end();
  }
}

}  // namespace cbs::sim
