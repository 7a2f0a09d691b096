#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "simcore/callback.hpp"
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

/// Deterministic, seed-driven fault-event generator.
///
/// The plan owns independent RNG substreams per (cluster, machine), so a
/// machine's crash trace depends only on (seed, cluster name, machine
/// index) — never on what the rest of the simulation does. Crash processes
/// pause while the `active` gate (typically "jobs outstanding") is false,
/// which lets a drained simulation terminate; call `ensure_armed()` when
/// new work arrives to resume them.
///
/// Hooks are `UniqueFunction`s (move-only): one crash/recover pair is
/// stored per `drive_vm_crashes` call and shared by every machine of that
/// cluster, rather than copied into each per-machine process the way a
/// `std::function` design would. Events carry only a process or edge
/// index, which is what makes the plan forkable: a clone copies the value
/// state and the owner re-registers the hooks.
class FaultPlan : private EventTarget {
 public:
  using MachineHook = UniqueFunction<void(std::size_t)>;
  using OutageBeginHook = UniqueFunction<void(const OutageWindow&)>;
  using OutageEndHook = UniqueFunction<void()>;
  using ActiveGate = UniqueFunction<bool()>;

  FaultPlan(Simulation& sim, FaultConfig config, RngStream rng);
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  /// Fork support: copies `src`'s value state (RNG positions, per-process
  /// armed/recovering flags, outage schedule and depth) into a plan bound
  /// to `dst`, the copy of `src`'s engine. Hooks and the active gate are
  /// NOT copied — the owner must re-register them via
  /// rebind_cluster_hooks()/rebind_outage_hooks()/set_active().
  FaultPlan(Simulation& dst, const FaultPlan& src);

  /// Re-registers the hook pair of the `cluster_idx`-th drive_vm_crashes()
  /// call (registration order) on a forked plan.
  void rebind_cluster_hooks(std::size_t cluster_idx, MachineHook on_crash,
                            MachineHook on_recover);

  /// Re-registers the outage hooks on a forked plan.
  void rebind_outage_hooks(OutageBeginHook on_begin, OutageEndHook on_end);

  [[nodiscard]] const FaultConfig& config() const noexcept { return config_; }

  /// Starts one crash/recover process per machine of a cluster. `on_crash`
  /// fires as a simulation event; `on_recover` follows
  /// `config().vm_recovery_seconds` later. Machines provisioned after this
  /// call (elastic scale-up) are not fault-driven.
  void drive_vm_crashes(std::string_view cluster, std::size_t machines,
                        double mtbf, MachineHook on_crash,
                        MachineHook on_recover);

  /// Schedules the config's outage windows. Overlaps are merged: `on_begin`
  /// fires when the outage depth goes 0 -> 1, `on_end` when it returns to 0.
  /// May be called at most once per plan.
  void drive_outages(OutageBeginHook on_begin, OutageEndHook on_end);

  /// Gate for crash processes; when absent, processes never pause.
  void set_active(ActiveGate active) { active_ = std::move(active); }

  /// Resumes crash processes that paused while the gate was false.
  void ensure_armed();

  [[nodiscard]] std::uint64_t crashes_injected() const noexcept {
    return crashes_injected_;
  }
  [[nodiscard]] std::uint64_t outages_started() const noexcept {
    return outages_started_;
  }

 private:
  /// One crash/recover hook pair per drive_vm_crashes() call, shared by
  /// every machine of that cluster (addressed by index, so forks can
  /// re-register hooks without touching process state).
  struct ClusterHooks {
    MachineHook on_crash;
    MachineHook on_recover;
  };

  struct CrashProcess {
    RngStream rng;
    double mtbf;
    std::size_t machine;
    std::size_t cluster;  ///< index into hooks_
    bool armed;           ///< a crash event is pending
    bool recovering;      ///< crashed; the recovery event is pending
  };

  /// One scheduled outage edge (begin or end of a configured window).
  struct OutageEdge {
    OutageWindow window;
    bool begin;
  };

  enum : std::uint32_t { kCrash, kRecover, kOutageEdge };

  void on_event(std::uint32_t kind, std::uint64_t index) override;

  void arm(std::size_t i);
  void fire(std::size_t i);
  void recover(std::size_t i);
  void fire_outage(std::size_t k);
  [[nodiscard]] bool is_active() { return !active_ || active_(); }

  Simulation& sim_;
  TargetId target_;
  FaultConfig config_;
  RngStream rng_;
  // cbs-lint: snapshot-complete-ok(owner re-wires the gate post-fork)
  ActiveGate active_;
  std::vector<ClusterHooks> hooks_;
  std::vector<CrashProcess> processes_;
  std::vector<OutageEdge> outage_edges_;
  // cbs-lint: snapshot-complete-ok(owner re-wires outage hooks post-fork)
  OutageBeginHook outage_begin_;
  // cbs-lint: snapshot-complete-ok(owner re-wires outage hooks post-fork)
  OutageEndHook outage_end_;
  bool outages_driven_ = false;
  int outage_depth_ = 0;
  std::uint64_t crashes_injected_ = 0;
  std::uint64_t outages_started_ = 0;
};

}  // namespace cbs::sim
