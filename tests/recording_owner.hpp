#pragma once
// The owner tests give a Link, Cluster, JobStore or FaultPlan they drive on
// their own: it implements every component's owner interface and records
// each report in the order it arrives. A test that must react to a report
// (submit a follow-up task, crash a machine) derives
// from it and overrides that one report.

#include <cstdint>
#include <vector>

#include "compute/cluster.hpp"
#include "compute/job_store.hpp"
#include "net/link.hpp"
#include "simcore/fault_plan.hpp"
#include "simcore/simulation.hpp"
#include "simcore/time.hpp"

namespace cbs::testing {

class RecordingOwner : public net::LinkOwner,
                       public compute::ClusterOwner,
                       public compute::StoreOwner,
                       public sim::FaultOwner {
 public:
  struct Transfer {
    std::size_t link = 0;
    std::uint32_t kind = 0;
    std::uint64_t tag = 0;
    net::TransferRecord rec;
  };
  struct Put {
    std::uint64_t seq = 0;
    compute::JobStore::ObjectKind kind = compute::JobStore::ObjectKind::kInput;
    bool ok = false;
    sim::SimTime at = 0.0;
  };
  struct MachineReport {
    std::size_t cluster = 0;
    std::size_t machine = 0;
    sim::SimTime at = 0.0;

    bool operator==(const MachineReport&) const = default;
  };

  explicit RecordingOwner(const sim::Simulation& sim) : sim_(sim) {}

  void on_transfer_done(std::size_t link, std::uint32_t kind,
                        std::uint64_t tag,
                        const net::TransferRecord& rec) override {
    transfers.push_back(Transfer{link, kind, tag, rec});
  }
  void on_task_done(std::size_t /*cluster*/,
                    const compute::TaskRecord& rec) override {
    tasks.push_back(rec);
  }
  void on_machine_idle(std::size_t /*cluster*/, std::size_t machine) override {
    idle_machines.push_back(machine);
  }
  void on_put_done(std::size_t /*store*/, std::uint64_t seq,
                   compute::JobStore::ObjectKind kind, bool ok) override {
    puts.push_back(Put{seq, kind, ok, sim_.now()});
  }
  [[nodiscard]] bool faults_active() const override {
    return sim_.now() < active_until;
  }
  void on_vm_crash(std::size_t cluster, std::size_t machine) override {
    crashes.push_back(MachineReport{cluster, machine, sim_.now()});
  }
  void on_vm_recover(std::size_t cluster, std::size_t machine) override {
    recoveries.push_back(MachineReport{cluster, machine, sim_.now()});
  }
  void on_outage_begin(const sim::OutageWindow& /*window*/) override {
    outage_begins.push_back(sim_.now());
  }
  void on_outage_end() override { outage_ends.push_back(sim_.now()); }

  /// The finished transfers' records, in completion order.
  [[nodiscard]] std::vector<net::TransferRecord> transfer_records() const {
    std::vector<net::TransferRecord> out;
    out.reserve(transfers.size());
    for (const Transfer& t : transfers) out.push_back(t.rec);
    return out;
  }

  std::vector<Transfer> transfers;
  std::vector<compute::TaskRecord> tasks;
  std::vector<std::size_t> idle_machines;
  std::vector<Put> puts;
  std::vector<MachineReport> crashes;
  std::vector<MachineReport> recoveries;
  std::vector<sim::SimTime> outage_begins;
  std::vector<sim::SimTime> outage_ends;
  /// faults_active() reads true before this time; a fault test sets it to
  /// bound the otherwise endless crash/recover loop.
  sim::SimTime active_until = sim::kTimeInfinity;

 protected:
  const sim::Simulation& sim_;
};

}  // namespace cbs::testing
