#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "compute/cluster.hpp"
#include "compute/job_store.hpp"
#include "core/belief_state.hpp"
#include "core/config.hpp"
#include "core/job.hpp"
#include "core/scheduler.hpp"
#include "core/upload_queues.hpp"
#include "util/chunked_log.hpp"
#include "util/seq_queue.hpp"
#include "util/seq_table.hpp"
#include "models/estimator.hpp"
#include "models/hazard.hpp"
#include "net/bandwidth_estimator.hpp"
#include "net/link.hpp"
#include "net/thread_tuner.hpp"
#include "simcore/fault_plan.hpp"
#include "simcore/logging.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "sla/cost.hpp"
#include "sla/job_outcome.hpp"
#include "workload/arrival.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::core {

/// A CloudBurstController's value state: everything but its engine, log,
/// target id and the components that report to it (IC cluster, sites,
/// fault plan), so a fork copies it whole (DESIGN.md §12.2).
struct ControllerState {
  /// Validates `config` (throws std::invalid_argument when
  /// `config.ec_sites` is empty) and builds the belief's service model.
  ControllerState(ControllerConfig config,
                  cbs::workload::GroundTruthModel truth);

  /// One pipeline-stage transition of one job.
  struct StageEvent {
    std::uint64_t seq_id = 0;
    JobState state = JobState::kArrived;
    cbs::sim::SimTime time = 0.0;
  };

  /// Immutable once validated, so a fork shares it.
  std::shared_ptr<const ControllerConfig> config_;
  /// The true service law: the clusters' realized services and the
  /// chunker's output sizes come from it.
  cbs::workload::GroundTruthModel truth_;
  /// Owns the service and bandwidth models.
  BeliefState belief_;
  /// The policies' per-run state.
  SchedulerState scheduler_state_;

  /// Outstanding jobs only: finish_job() erases a job once its outcome is
  /// recorded, so a fork copies live state, not the run's history. Jobs do
  /// not finish in seq order, so the table finds, adds and erases in O(1).
  cbs::util::SeqTable<Job> jobs_;
  /// The IC feed queue in FCFS (seq) order; a re-admitted job rejoins it
  /// at its place. Jobs wait here, not on the cluster, so the §IV.D
  /// rescheduler can still move them.
  cbs::util::SeqQueue ic_wait_;
  cbs::util::ChunkedLog<cbs::sla::JobOutcome> outcomes_;
  std::uint64_t next_seq_ = 1;
  /// Chunk ids, disjoint from inputs.
  std::uint64_t next_doc_id_ = cbs::workload::kFirstChunkId;
  bool probe_scheduled_ = false;
  std::size_t pull_backs_ = 0;
  std::size_t push_outs_ = 0;
  cbs::util::ChunkedLog<StageEvent> stage_log_;
  bool elastic_check_scheduled_ = false;
  std::size_t scale_ups_ = 0;
  std::size_t scale_downs_ = 0;

  // ---- fault layer ----
  std::size_t retractions_ = 0;
  std::size_t service_draws_ = 0;
  std::size_t probe_blackout_skips_ = 0;

  /// The IC's per-VM hazard estimator (each EC site's is Site::hazard);
  /// absent unless the predictor is configured.
  std::optional<models::VmHazardEstimator> ic_hazard_;
};

/// The cloud-bursting controller: the pipelined, event-based architecture
/// of the paper's Fig. 5, wiring together
///
///   job queue → scheduler → { IC MapReduce }  or
///                           { upload queue(s) → EC store → EC MapReduce →
///                             compress/merge → download queue } → results
///
/// with one bracketed EC pipeline per configured external site. Every stage
/// is asynchronous; the controller reacts to completion events. It owns the
/// autonomic loop: QRSM observations after every job, EWMA bandwidth
/// updates after every transfer, periodic 1 MB probes, and thread-count
/// tuning. The models it feeds belong to its BeliefState; the ground truth
/// the simulated clusters run on belongs to the controller itself. The
/// scheduler decides whether a job bursts; the belief sends a burst to the
/// site with the earliest believed completion.
///
/// A job's MapReduce work is two cluster tasks on one machine at a time
/// (the paper's Fig. 2 semantics): a map task of its realized service, and
/// once the map has finished, a merge task (result merge and, on the EC,
/// output compression plus the site's per-job overhead). Both queue in the
/// cluster's FCFS order, so a job's merge queues behind the maps already
/// waiting.
///
/// The controller is the owner every component it builds reports to: the IC
/// cluster, each site's cluster, links and store, and the fault plan. It
/// tells them apart by the index each got at construction — kIcCluster for
/// the IC cluster, i for everything of site i — and a transfer by the
/// report kind it was submitted with.
class CloudBurstController : private ControllerState,
                             private cbs::sim::EventTarget,
                             private net::LinkOwner,
                             private compute::ClusterOwner,
                             private compute::StoreOwner,
                             private sim::FaultOwner {
 public:
  /// One external site: the EC half of Fig. 5 with its own pipe, thread
  /// tuners, transfer queues, staging store and (when the hazard predictor
  /// is on) per-VM hazard estimator; its bandwidth models are the belief's
  /// site i. Sites are independent substrates; ControllerConfig::ec_sites[i]
  /// configures site i.
  struct Site {
    /// Site `index`, whose components report to `owner` under `index`.
    Site(cbs::sim::Simulation& sim, CloudBurstController& owner,
         const ControllerConfig& config, std::size_t index,
         cbs::sim::RngStream rng);
    /// Fork support: value-clones the whole substrate bound to `dst`,
    /// reporting to `owner`.
    Site(cbs::sim::Simulation& dst, CloudBurstController& owner,
         const Site& src);
    Site(const Site&) = delete;
    Site& operator=(const Site&) = delete;

    compute::Cluster cluster;
    net::Link uplink;
    net::Link downlink;
    compute::JobStore store;
    net::ThreadTuner up_tuner;
    net::ThreadTuner down_tuner;
    TransferQueueSet upload_queues;
    TransferQueueSet download_queue;
    /// Per-VM hazard estimator; absent when the predictor is off. Pure
    /// value state, so forks copy it.
    std::optional<models::VmHazardEstimator> hazard;
    std::size_t bursts = 0;         ///< jobs placed on this site so far
    std::size_t pending_boots = 0;  ///< elastic instances spinning up
  };

  /// A controller whose clusters run on `truth`, the true service law.
  /// Throws std::invalid_argument when `config.ec_sites` is empty.
  CloudBurstController(cbs::sim::Simulation& sim, ControllerConfig config,
                       cbs::workload::GroundTruthModel truth,
                       cbs::sim::RngStream rng);
  CloudBurstController(const CloudBurstController&) = delete;
  CloudBurstController& operator=(const CloudBurstController&) = delete;

  /// Fork support: copies `src`'s ControllerState whole, its truth and
  /// belief included, into a controller bound to `dst`, the copy of
  /// `src`'s engine. The IC cluster, the sites and the fault plan are
  /// value-cloned, registered on `dst` in the source's order and report
  /// to this controller, so the copied pending events reach the clones.
  CloudBurstController(cbs::sim::Simulation& dst,
                       const CloudBurstController& src);

  /// Seeds the QRSM with a labeled factory corpus (§III.A.1: "initial best
  /// estimate model based on a standard set of production data"). No-op for
  /// the oracle estimator.
  void pretrain(const std::vector<cbs::workload::Document>& docs,
                const std::vector<double>& observed_runtimes);

  /// Admits one arriving batch under policy `kind` — the configured
  /// scheduler, or the candidate a lookahead decision or rollout picked.
  /// The belief's bandwidth view follows `kind` for the admission (Greedy
  /// conditions on the transient reading) and is restored before
  /// returning. Throws std::invalid_argument when `kind` needs more upload
  /// classes than the sites were built with (upload_classes()), or is
  /// kLookahead.
  void on_batch(const cbs::workload::Batch& batch, SchedulerKind kind);
  /// Admits a batch under the configured scheduler.
  void on_batch(const cbs::workload::Batch& batch) {
    on_batch(batch, config_->scheduler);
  }

  /// Turns this controller's log off for good. A lookahead rollout calls
  /// it so a hypothetical future never reaches the run's log.
  void mute_log() { log_.set_threshold(sim::LogLevel::kOff); }

  // ---- results & introspection -------------------------------------

  /// Finished jobs in completion order. Forks share the sealed history.
  [[nodiscard]] const cbs::util::ChunkedLog<cbs::sla::JobOutcome>& outcomes()
      const noexcept {
    return outcomes_;
  }
  /// Jobs admitted and not yet finished: the job table's entries, since a
  /// job is erased once its outcome is recorded.
  [[nodiscard]] std::size_t outstanding_jobs() const noexcept {
    return jobs_.size();
  }
  [[nodiscard]] const compute::Cluster& ic_cluster() const noexcept { return ic_cluster_; }
  [[nodiscard]] std::size_t site_count() const noexcept { return sites_.size(); }
  [[nodiscard]] const Site& site(std::size_t index) const { return *sites_.at(index); }
  // Site 0 — the paper's single EC.
  [[nodiscard]] const compute::Cluster& ec_cluster() const noexcept {
    return sites_.front()->cluster;
  }
  [[nodiscard]] const net::Link& uplink() const noexcept {
    return sites_.front()->uplink;
  }
  [[nodiscard]] const net::Link& downlink() const noexcept {
    return sites_.front()->downlink;
  }
  [[nodiscard]] const compute::JobStore& store() const noexcept {
    return sites_.front()->store;
  }
  [[nodiscard]] const net::BandwidthEstimator& uplink_estimator() const {
    return belief_.uplink(0);
  }
  [[nodiscard]] const net::BandwidthEstimator& downlink_estimator() const {
    return belief_.downlink(0);
  }
  [[nodiscard]] const models::ProcessingTimeEstimator& service_estimator()
      const noexcept {
    return belief_.service_model();
  }
  [[nodiscard]] const ControllerConfig& config() const noexcept { return *config_; }
  /// Number of §IV.D rescheduler interventions that occurred.
  [[nodiscard]] std::size_t pull_backs() const noexcept { return pull_backs_; }
  [[nodiscard]] std::size_t push_outs() const noexcept { return push_outs_; }
  /// Elastic-EC activity (scale-ups / scale-downs performed).
  [[nodiscard]] std::size_t scale_ups() const noexcept { return scale_ups_; }
  [[nodiscard]] std::size_t scale_downs() const noexcept { return scale_downs_; }
  /// Bursts retracted by the recovery policy (deadline blown, EC outage
  /// observed, or staging abandoned): the job was re-admitted to the IC
  /// queue at its FCFS position and re-executed internally.
  [[nodiscard]] std::size_t retractions() const noexcept { return retractions_; }
  /// Realized services drawn so far: one per job dispatched at least once
  /// (spec_for()).
  [[nodiscard]] std::size_t service_draws() const noexcept {
    return service_draws_;
  }
  /// Periodic probes skipped because of a probe-blackout window.
  [[nodiscard]] std::size_t probe_blackout_skips() const noexcept {
    return probe_blackout_skips_;
  }
  /// The IC's per-VM hazard estimator, or nullptr when the predictor is
  /// off (each EC site's is Site::hazard).
  [[nodiscard]] const models::VmHazardEstimator* ic_hazard() const noexcept {
    return ic_hazard_ ? &*ic_hazard_ : nullptr;
  }
  /// Mean predicted probability that a usable (non-drained) EC machine
  /// fails within the drain window, averaged over the sites; 0 when the
  /// predictor is off. The lookahead scoring consumes it; burst pricing
  /// reads each site's own risk.
  [[nodiscard]] double ec_failure_risk() const;
  /// Outstanding jobs the belief currently places on the EC.
  [[nodiscard]] std::size_t outstanding_ec_jobs() const noexcept {
    return belief_.outstanding_ec_jobs();
  }
  /// The fault generator, or nullptr when faults are disabled.
  // cbs-lint: snapshot-ok(observer return of the owned unique_ptr, never stored)
  [[nodiscard]] const cbs::sim::FaultPlan* fault_plan() const noexcept {
    return fault_plan_.get();
  }
  /// Billing inputs accumulated so far (provisioned EC machine-seconds,
  /// bytes moved each way, staging byte-seconds — summed over the sites —
  /// and IC machine-seconds).
  [[nodiscard]] sla::CostInputs cost_inputs() const;

  /// One pipeline-stage transition of one job (recorded when
  /// ControllerConfig::record_stage_log is set).
  using ControllerState::StageEvent;
  [[nodiscard]] const cbs::util::ChunkedLog<StageEvent>& stage_log()
      const noexcept {
    return stage_log_;
  }

 private:
  enum : std::uint32_t { kProbe, kBurstDeadline, kElasticCheck, kBootDone };
  /// Kinds of the cluster tasks of a job (Cluster::submit).
  enum : std::uint32_t { kMapTask = 1, kMergeTask };
  /// Report kinds of a site's transfers (Link::submit).
  enum : std::uint32_t {
    kUploadJob,
    kUploadProbe,
    kDownloadJob,
    kDownloadProbe,
  };
  /// The IC cluster's index; site i's components report under i.
  static constexpr std::size_t kIcCluster = SIZE_MAX;

  void on_event(std::uint32_t kind, std::uint64_t arg) override;
  // ---- reports of the owned components ----
  void on_transfer_done(std::size_t site, std::uint32_t kind,
                        std::uint64_t seq,
                        const net::TransferRecord& rec) override;
  void on_task_done(std::size_t cluster,
                    const compute::TaskRecord& rec) override;
  void on_machine_idle(std::size_t cluster, std::size_t machine) override;
  void on_put_done(std::size_t site, std::uint64_t seq,
                   compute::JobStore::ObjectKind kind, bool ok) override;
  [[nodiscard]] bool faults_active() const override {
    return outstanding_jobs() > 0;
  }
  void on_vm_crash(std::size_t cluster, std::size_t machine) override;
  void on_vm_recover(std::size_t cluster, std::size_t machine) override;
  void on_outage_begin(const sim::OutageWindow& window) override;
  void on_outage_end() override;

  [[nodiscard]] compute::Cluster& cluster_at(std::size_t cluster);
  /// The hazard estimator of `cluster`; nullptr when the predictor is off.
  [[nodiscard]] models::VmHazardEstimator* hazard_at(std::size_t cluster);
  void dispatch_ic();
  void run_on_ic(std::uint64_t seq);
  void on_ic_done(std::uint64_t seq);
  void enqueue_upload(Job& job, int upload_class);
  /// A finished upload, download or probe updates the bandwidth belief
  /// and the thread tuner of its direction.
  void observe_transfer(net::BandwidthEstimator& estimator,
                        net::ThreadTuner& tuner,
                        const net::TransferRecord& rec);
  void on_upload_done(std::size_t site, std::uint64_t seq,
                      const net::TransferRecord& rec);
  void start_ec_processing(std::uint64_t seq);
  void on_ec_proc_done(std::size_t site, std::uint64_t seq);
  /// An elastic instance of site `index` finished booting.
  void on_boot_done(std::size_t index);
  /// Arms the upload-phase deadline of burst `seq`, priced with the
  /// service estimate `service` its placement was decided on.
  void arm_burst_deadline(std::uint64_t seq, double service);
  void disarm_burst_deadline(Job& job);
  void on_burst_deadline(std::uint64_t seq);
  /// Counts and logs a burst retraction, then re-admits the job.
  void retract_burst(std::uint64_t seq, double pending_upload_bytes,
                     const char* why);
  /// Moves burst `seq` back to the IC: disarms its deadline, moves its
  /// believed work (`pending_upload_bytes` of upload) from its site to the
  /// IC, queues it at its FCFS position and feeds the IC. Retraction and
  /// pull-back both come through here.
  void readmit_to_ic(std::uint64_t seq, double pending_upload_bytes);
  void on_download_done(std::size_t site, std::uint64_t seq,
                        const net::TransferRecord& rec);
  void finish_job(Job& job);
  void set_state(Job& job, JobState state);
  void ensure_probing();
  void probe();
  void ensure_elastic_check();
  void elastic_check();
  void scale_site(std::size_t index);
  [[nodiscard]] bool any_upload_idle() const;
  void maybe_pull_back();
  void maybe_push_out();
  // ---- proactive resilience (hazard prediction + drains) ----
  /// Re-evaluates drains and each site's believed risk factor; no-op when
  /// the predictor is off. Runs at every crash, recovery and batch arrival
  /// — existing deterministic event points, so no new events are created
  /// and nothing extra crosses a fork.
  void update_resilience();
  void update_cluster_drains(compute::Cluster& cluster,
                             models::VmHazardEstimator& hazard);
  [[nodiscard]] double site_failure_risk(std::size_t site) const;
  /// Submits the map task of `job` to `cluster`: its realized service,
  /// drawn at the job's first dispatch.
  void submit_map(compute::Cluster& cluster, Job& job);
  /// The merge task's seconds for `job` on `cluster`.
  [[nodiscard]] double merge_seconds(std::size_t cluster, const Job& job) const;
  [[nodiscard]] Job& job_at(std::uint64_t seq) { return jobs_.at(seq); }

  cbs::sim::Simulation& sim_;
  sim::Logger log_;
  cbs::sim::TargetId target_;
  compute::Cluster ic_cluster_;
  /// One per ControllerConfig::ec_sites entry; heap-held so the references
  /// between a site's members stay valid.
  std::vector<std::unique_ptr<Site>> sites_;
  /// The fault generator; absent and cost-free unless configured.
  std::unique_ptr<cbs::sim::FaultPlan> fault_plan_;
};

}  // namespace cbs::core
