#pragma once

#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cbs::sim {

/// One absolute fault interval [start, start + duration).
struct OutageWindow {
  SimTime start = 0.0;
  SimDuration duration = 0.0;

  [[nodiscard]] SimTime end() const noexcept { return start + duration; }
  [[nodiscard]] bool contains(SimTime t) const noexcept {
    return t >= start && t < end();
  }
};

/// Declarative fault-model knobs. Everything defaults to "off", and a
/// default-constructed config is guaranteed zero-cost: no FaultPlan is
/// built, no extra events are scheduled, and every run is byte-identical
/// to a build without the fault layer.
struct FaultConfig {
  /// Per-VM mean time between crashes (exponential draws, seconds of sim
  /// time); 0 disables crashes on that cluster. A crashed VM loses its
  /// running task (the task is re-queued at its FCFS position and fully
  /// re-executed) and rejoins after `vm_recovery_seconds`.
  double ic_vm_mtbf = 0.0;
  double ec_vm_mtbf = 0.0;
  SimDuration vm_recovery_seconds = 120.0;

  /// Whole-EC outage windows: both inter-cloud links become unreachable
  /// (in-flight transfers are aborted, losing their progress) and the EC
  /// job store rejects requests. Overlapping windows are merged by the
  /// plan's depth counter.
  std::vector<OutageWindow> outage_windows;

  /// Bandwidth-probe blackout windows: the controller skips its periodic
  /// 1 MB probes, so the EWMA bandwidth predictor goes stale.
  std::vector<OutageWindow> probe_blackout;

  /// Controller recovery policy: a bursted job must complete its upload
  /// within `factor` times its estimated EC round trip, else the burst is
  /// retracted (EC attempt cancelled, job re-admitted to the IC queue at
  /// its FCFS position). 0 disables retraction.
  double retraction_deadline_factor = 0.0;

  /// True when any fault *injection* is configured (crashes, outages or
  /// probe blackouts).
  [[nodiscard]] bool any_faults() const noexcept {
    return ic_vm_mtbf > 0.0 || ec_vm_mtbf > 0.0 || !outage_windows.empty() ||
           !probe_blackout.empty();
  }
  /// True when the fault layer must be wired at all (faults or recovery
  /// policy).
  [[nodiscard]] bool enabled() const noexcept {
    return any_faults() || retraction_deadline_factor > 0.0;
  }
  [[nodiscard]] bool in_probe_blackout(SimTime t) const noexcept {
    for (const auto& w : probe_blackout) {
      if (w.contains(t)) return true;
    }
    return false;
  }
};

/// What a FaultPlan reports its fault events to.
class FaultOwner {
 public:
  /// Gate for the crash processes: while it reads false they pause, so a
  /// drained simulation can terminate.
  [[nodiscard]] virtual bool faults_active() const = 0;
  /// `machine` of the cluster the owner drove under index `cluster`
  /// crashes; its recovery follows `vm_recovery_seconds` later.
  virtual void on_vm_crash(std::size_t cluster, std::size_t machine) = 0;
  virtual void on_vm_recover(std::size_t cluster, std::size_t machine) = 0;
  /// The outage depth went 0 -> 1 (`window` is the one that opened it).
  virtual void on_outage_begin(const OutageWindow& window) = 0;
  /// The outage depth returned to 0.
  virtual void on_outage_end() = 0;

 protected:
  ~FaultOwner() = default;
};

/// A FaultPlan's value state: everything but its engine, target id and
/// owner, so a fork copies it whole (DESIGN.md §12.2).
struct FaultPlanState {
  FaultPlanState(FaultConfig config, RngStream rng)
      : config_(std::move(config)), rng_(rng) {}

  struct CrashProcess {
    RngStream rng;
    double mtbf;
    std::size_t machine;
    std::size_t cluster;  ///< the owner's index of the machine's cluster
    bool armed;           ///< a crash event is pending
    bool recovering;      ///< crashed; the recovery event is pending
  };

  /// One scheduled outage edge (begin or end of a configured window).
  struct OutageEdge {
    OutageWindow window;
    bool begin;
  };

  FaultConfig config_;
  RngStream rng_;
  std::vector<CrashProcess> processes_;
  std::vector<OutageEdge> outage_edges_;
  bool outages_driven_ = false;
  int outage_depth_ = 0;
  std::uint64_t crashes_injected_ = 0;
  std::uint64_t outages_started_ = 0;
};

/// Deterministic, seed-driven fault-event generator.
///
/// The plan owns independent RNG substreams per (cluster, machine), so a
/// machine's crash trace depends only on (seed, cluster name, machine
/// index) — never on what the rest of the simulation does. Crash processes
/// pause while the owner's faults_active() is false, which lets a drained
/// simulation terminate; call `ensure_armed()` when new work arrives to
/// resume them. Events carry only a process or edge index and every report
/// goes to the owner fixed at construction, so a fork copies the plan's
/// value state and nothing else.
class FaultPlan : private FaultPlanState, private EventTarget {
 public:
  FaultPlan(Simulation& sim, FaultOwner& owner, FaultConfig config,
            RngStream rng);
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Fork support: copies `src`'s FaultPlanState whole (RNG positions,
  /// per-process armed/recovering flags, outage schedule and depth) into a
  /// plan bound to `dst`, the copy of `src`'s engine, that reports to
  /// `owner`.
  FaultPlan(Simulation& dst, FaultOwner& owner, const FaultPlan& src);

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }

  /// Starts one crash/recover process per machine of a cluster, reported
  /// to the owner under `cluster`. Machines provisioned after this call
  /// (elastic scale-up) are not fault-driven.
  void drive_vm_crashes(std::string_view name, std::size_t machines,
                        double mtbf, std::size_t cluster);

  /// Schedules the config's outage windows. Overlaps are merged: the owner
  /// hears the begin when the outage depth goes 0 -> 1 and the end when it
  /// returns to 0. May be called at most once per plan.
  void drive_outages();

  /// Resumes crash processes that paused while the gate was false.
  void ensure_armed();

  [[nodiscard]] std::uint64_t crashes_injected() const noexcept {
    return crashes_injected_;
  }
  [[nodiscard]] std::uint64_t outages_started() const noexcept {
    return outages_started_;
  }

 private:
  enum : std::uint32_t { kCrash, kRecover, kOutageEdge };

  void on_event(std::uint32_t kind, std::uint64_t index) override;

  void arm(std::size_t i);
  void fire(std::size_t i);
  void recover(std::size_t i);
  void fire_outage(std::size_t k);

  Simulation& sim_;
  TargetId target_;
  FaultOwner& owner_;
};

}  // namespace cbs::sim
