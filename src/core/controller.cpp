#include "core/controller.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "models/per_class_qrsm.hpp"

namespace cbs::core {

using cbs::sim::SimTime;
using cbs::sla::Placement;
using StoredObject = cbs::compute::JobStore::ObjectKind;

namespace {

/// Elastic EC: the period of the scaling check, the spin-up delay of a new
/// instance (an EC2 boot; capacity arrives late), the believed EC queue
/// wait above which a site grows, the fraction of idle instances (with an
/// empty queue) above which it shrinks, and the fewest it shrinks to.
constexpr cbs::sim::SimDuration kElasticCheckInterval = 60.0;
constexpr cbs::sim::SimDuration kBootDelay = 45.0;
constexpr double kGrowWaitThresholdSeconds = 90.0;
constexpr double kShrinkIdleFraction = 0.5;
constexpr std::size_t kElasticMinMachines = 1;

/// Merge/compress cost per MB of output on the executing cluster.
constexpr double kMergeSecondsPerOutputMb = 0.05;
/// Bytes of one bandwidth probe (§III.A.2), each way.
constexpr double kProbeBytes = 1.0e6;

std::unique_ptr<models::ProcessingTimeEstimator> make_estimator(
    EstimatorKind kind, const cbs::workload::GroundTruthModel& truth) {
  switch (kind) {
    case EstimatorKind::kQrsm:
      return std::make_unique<models::QrsmEstimator>();
    case EstimatorKind::kOracle:
      return std::make_unique<models::OracleEstimator>(truth);
    case EstimatorKind::kPerClassQrsm:
      return std::make_unique<models::PerClassQrsmEstimator>();
  }
  assert(false && "unknown estimator kind");
  return nullptr;
}

/// RNG stream names of a site's links and crash processes: the plain name
/// for site 0 (the paper's single EC), "#i" appended for site i > 0, so
/// adding a site never perturbs the draws of the sites before it.
std::string site_stream(std::string_view base, std::size_t site) {
  std::string name(base);
  if (site > 0) {
    name += '#';
    name += std::to_string(site);
  }
  return name;
}

/// A fork's copy of the job table with at least the source's room to grow
/// (and never less than a batch's worth), so the rollout's first admission
/// does not reallocate and move the whole inherited backlog.
std::vector<Job> copy_with_room(const std::vector<Job>& src) {
  constexpr std::size_t kMinRoom = 64;
  std::vector<Job> copy;
  copy.reserve(std::max(src.capacity(), src.size() + kMinRoom));
  copy.assign(src.begin(), src.end());
  return copy;
}

ControllerConfig validated(ControllerConfig config) {
  if (config.ec_sites.empty()) {
    throw std::invalid_argument(
        "ControllerConfig::ec_sites is empty: the controller needs at least "
        "one external site");
  }
  return config;
}

}  // namespace

CloudBurstController::Site::Site(cbs::sim::Simulation& sim,
                                 CloudBurstController& owner,
                                 const ControllerConfig& config,
                                 std::size_t index, cbs::sim::RngStream rng)
    : cluster(sim, owner, index, config.ec_sites[index].name,
              config.ec_sites[index].machines, config.ec_sites[index].speed),
      uplink(sim, owner, index, config.ec_sites[index].uplink,
             rng.substream(site_stream("uplink", index))),
      downlink(sim, owner, index, config.ec_sites[index].downlink,
               rng.substream(site_stream("downlink", index))),
      store(sim, owner, index),
      up_tuner(config.thread_tuner),
      down_tuner(config.thread_tuner),
      upload_queues(sim, uplink, up_tuner, kUploadJob,
                    upload_classes(config.scheduler)),
      download_queue(sim, downlink, down_tuner, kDownloadJob, 1) {
  if (config.resilience.enabled()) {
    hazard = std::make_unique<models::VmHazardEstimator>(
        config.resilience.hazard, config.ec_sites[index].machines, sim.now());
  }
}

CloudBurstController::Site::Site(cbs::sim::Simulation& dst,
                                 CloudBurstController& owner, const Site& src)
    : cluster(dst, owner, src.cluster),
      uplink(dst, owner, src.uplink),
      downlink(dst, owner, src.downlink),
      store(dst, owner, src.store),
      up_tuner(src.up_tuner),
      down_tuner(src.down_tuner),
      upload_queues(dst, src.upload_queues, uplink, up_tuner),
      download_queue(dst, src.download_queue, downlink, down_tuner),
      hazard(src.hazard ? std::make_unique<models::VmHazardEstimator>(*src.hazard)
                        : nullptr),
      bursts(src.bursts),
      pending_boots(src.pending_boots) {}

CloudBurstController::CloudBurstController(
    cbs::sim::Simulation& sim, ControllerConfig config,
    cbs::workload::GroundTruthModel truth, cbs::sim::RngStream rng)
    : sim_(sim),
      config_(std::make_shared<const ControllerConfig>(
          validated(std::move(config)))),
      truth_(std::move(truth)),
      log_("controller", config_->log_threshold),
      target_(sim.register_target(*this)),
      ic_cluster_(sim, *this, kIcCluster, "ic", config_->ic_machines),
      belief_(make_estimator(config_->estimator, truth_),
              config_->ic_machines) {
  if (config_->log_sink) log_.set_sink(config_->log_sink);
  for (std::size_t i = 0; i < config_->ec_sites.size(); ++i) {
    sites_.push_back(std::make_unique<Site>(sim, *this, *config_, i, rng));
    belief_.add_ec_site(config_->ec_sites[i], config_->bandwidth_estimator);
  }
  belief_.set_bandwidth_view(bandwidth_view_for(config_->scheduler));
  if (config_->faults.enabled()) {
    fault_plan_ = std::make_unique<sim::FaultPlan>(
        sim_, static_cast<sim::FaultOwner&>(*this), config_->faults,
        rng.substream("faults"));
    fault_plan_->drive_vm_crashes("ic", config_->ic_machines,
                                  config_->faults.ic_vm_mtbf, kIcCluster);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      fault_plan_->drive_vm_crashes(site_stream("ec", i),
                                    config_->ec_sites[i].machines,
                                    config_->faults.ec_vm_mtbf, i);
    }
    fault_plan_->drive_outages();
  }
  if (config_->resilience.enabled()) {
    ic_hazard_ = std::make_unique<models::VmHazardEstimator>(
        config_->resilience.hazard, config_->ic_machines, sim_.now());
  }
}

CloudBurstController::CloudBurstController(cbs::sim::Simulation& dst,
                                           const CloudBurstController& src)
    : sim_(dst),
      config_(src.config_),
      truth_(src.truth_),
      log_("controller", config_->log_threshold),
      target_(dst.register_target(*this, src.target_)),
      ic_cluster_(dst, *this, src.ic_cluster_),
      belief_(src.belief_),
      scheduler_state_(src.scheduler_state_),
      jobs_(copy_with_room(src.jobs_)),
      job_slot_(src.job_slot_),
      first_job_seq_(src.first_job_seq_),
      ic_wait_(src.ic_wait_),
      outcomes_(src.outcomes_),
      next_seq_(src.next_seq_),
      next_doc_id_(src.next_doc_id_),
      outstanding_(src.outstanding_),
      probe_scheduled_(src.probe_scheduled_),
      pull_backs_(src.pull_backs_),
      push_outs_(src.push_outs_),
      stage_log_(src.stage_log_),
      elastic_check_scheduled_(src.elastic_check_scheduled_),
      scale_ups_(src.scale_ups_),
      scale_downs_(src.scale_downs_),
      burst_deadlines_(src.burst_deadlines_),
      retractions_(src.retractions_),
      service_draws_(src.service_draws_),
      probe_blackout_skips_(src.probe_blackout_skips_) {
  if (config_->log_sink) log_.set_sink(config_->log_sink);
  for (const auto& site : src.sites_) {
    sites_.push_back(std::make_unique<Site>(dst, *this, *site));
  }
  if (src.fault_plan_) {
    fault_plan_ = std::make_unique<sim::FaultPlan>(
        dst, static_cast<sim::FaultOwner&>(*this), *src.fault_plan_);
  }
  if (src.ic_hazard_) {
    ic_hazard_ = std::make_unique<models::VmHazardEstimator>(*src.ic_hazard_);
  }
}

void CloudBurstController::on_event(std::uint32_t kind, std::uint64_t arg) {
  switch (kind) {
    case kProbe: probe(); return;
    case kBurstDeadline: on_burst_deadline(arg); return;
    case kElasticCheck: elastic_check(); return;
    case kBootDone: on_boot_done(arg); return;
  }
  assert(false && "unknown controller event");
}

// ---- reports of the owned components --------------------------------

void CloudBurstController::on_transfer_done(std::size_t site_index,
                                            std::uint32_t kind,
                                            std::uint64_t seq,
                                            const net::TransferRecord& rec) {
  Site& site = *sites_[site_index];
  switch (kind) {
    case kUploadJob:
      site.upload_queues.on_transfer_done(seq);
      on_upload_done(site_index, seq, rec);
      return;
    case kUploadProbe:
      observe_transfer(belief_.uplink(site_index), site.up_tuner, rec);
      return;
    case kDownloadJob:
      site.download_queue.on_transfer_done(seq);
      on_download_done(site_index, seq, rec);
      return;
    case kDownloadProbe:
      observe_transfer(belief_.downlink(site_index), site.down_tuner, rec);
      return;
  }
  assert(false && "unknown transfer kind");
}

void CloudBurstController::on_task_done(std::size_t cluster,
                                        const compute::TaskRecord& rec) {
  assert(rec.kind == kMapTask || rec.kind == kMergeTask);
  const std::uint64_t seq = rec.group_id;
  if (rec.kind == kMapTask) {
    // The job's merge queues behind whatever is waiting on its cluster.
    cluster_at(cluster).submit(merge_seconds(cluster, job_at(seq)), seq,
                               kMergeTask);
  } else if (cluster == kIcCluster) {
    on_ic_done(seq);
  } else {
    on_ec_proc_done(cluster, seq);
  }
  // Keep the feed-ahead window topped up after every IC task.
  if (cluster == kIcCluster) dispatch_ic();
}

void CloudBurstController::on_machine_idle(std::size_t cluster,
                                           std::size_t /*machine*/) {
  if (cluster == kIcCluster && config_->enable_rescheduler) maybe_pull_back();
}

void CloudBurstController::on_put_done(std::size_t site, std::uint64_t seq,
                                       StoredObject kind, bool ok) {
  if (!ok) {
    // Staging failed for good: a lost input wasted the upload, a lost
    // output the external execution. Either way the job re-runs internally.
    retract_burst(seq, 0.0,
                  kind == StoredObject::kInput ? "input staging abandoned"
                                               : "output staging abandoned");
    return;
  }
  if (kind == StoredObject::kInput) {
    start_ec_processing(seq);
    return;
  }
  Job& job = job_at(seq);
  set_state(job, JobState::kDownloading);
  sites_[site]->download_queue.enqueue(seq, job.doc.output_bytes(), 0);
}

compute::Cluster& CloudBurstController::cluster_at(std::size_t cluster) {
  return cluster == kIcCluster ? ic_cluster_ : sites_[cluster]->cluster;
}

models::VmHazardEstimator* CloudBurstController::hazard_at(
    std::size_t cluster) {
  return cluster == kIcCluster ? ic_hazard_.get()
                               : sites_[cluster]->hazard.get();
}

void CloudBurstController::pretrain(
    const std::vector<cbs::workload::Document>& docs,
    const std::vector<double>& observed_runtimes) {
  assert(docs.size() == observed_runtimes.size());
  models::ProcessingTimeEstimator& model = belief_.service_model();
  if (auto* per_class = dynamic_cast<models::PerClassQrsmEstimator*>(&model)) {
    per_class->pretrain(docs, observed_runtimes);
    return;
  }
  auto* qrsm = dynamic_cast<models::QrsmEstimator*>(&model);
  if (qrsm == nullptr) return;  // oracle needs no training
  std::vector<cbs::workload::DocumentFeatures> features;
  features.reserve(docs.size());
  for (const auto& d : docs) features.push_back(d.features);
  qrsm->model().fit(features, observed_runtimes);
}

Job& CloudBurstController::job_at(std::uint64_t seq) {
  assert(seq >= first_job_seq_ && seq - first_job_seq_ < job_slot_.size());
  const std::uint32_t slot = job_slot_[seq - first_job_seq_];
  assert(slot != kNoJob);
  return jobs_[slot];
}

Job& CloudBurstController::add_job(std::uint64_t seq) {
  if (job_slot_.empty()) first_job_seq_ = seq;
  for (; seq < first_job_seq_; --first_job_seq_) job_slot_.push_front(kNoJob);
  while (seq - first_job_seq_ >= job_slot_.size()) job_slot_.push_back(kNoJob);
  std::uint32_t& slot = job_slot_[seq - first_job_seq_];
  assert(slot == kNoJob);
  slot = static_cast<std::uint32_t>(jobs_.size());
  Job& job = jobs_.emplace_back();
  job.seq_id = seq;
  return job;
}

void CloudBurstController::on_batch(const cbs::workload::Batch& batch,
                                    SchedulerKind kind) {
  if (kind == SchedulerKind::kLookahead) {
    throw std::invalid_argument(
        "CloudBurstController: lookahead places no batch; admit under the "
        "policy it picked");
  }
  if (upload_classes(kind) > sites_.front()->upload_queues.num_classes()) {
    std::string msg = "CloudBurstController: cannot admit under ";
    msg += to_string(kind);
    msg += ": it needs ";
    msg += std::to_string(upload_classes(kind));
    msg += " upload classes per site and the sites have ";
    msg += std::to_string(sites_.front()->upload_queues.num_classes());
    throw std::invalid_argument(msg);
  }
  // The whole admission, push-outs included, sees the network the way
  // `kind` reads it; the run's own view is restored before returning.
  const BandwidthView saved_view = belief_.bandwidth_view();
  belief_.set_bandwidth_view(bandwidth_view_for(kind));
  // Refresh the hazard picture before pricing this batch: drains, the
  // believed EC capacity and the risk factor all feed the decisions below.
  update_resilience();
  ScheduleContext ctx{
      .now = sim_.now(),
      .belief = belief_,
      .params = config_->params,
      .truth = truth_,
      .next_seq = &next_seq_,
      .next_doc_id = &next_doc_id_,
      .ic_machines = config_->ic_machines,
      .upload_class_backlog_bytes = {},
      .download_backlog_bytes = {},
  };
  // Each walks every site's whole queue, so only the kinds that read them
  // pay for them.
  if (reads_upload_class_backlog(kind)) {
    ctx.upload_class_backlog_bytes =
        sites_.front()->upload_queues.backlog_bytes_per_class();
    for (std::size_t i = 1; i < sites_.size(); ++i) {
      const std::vector<double> more =
          sites_[i]->upload_queues.backlog_bytes_per_class();
      for (std::size_t k = 0; k < more.size(); ++k) {
        ctx.upload_class_backlog_bytes[k] += more[k];
      }
    }
  }
  if (reads_download_backlog(kind)) {
    ctx.download_backlog_bytes.reserve(sites_.size());
    for (const auto& site : sites_) {
      ctx.download_backlog_bytes.push_back(
          site->download_queue.total_backlog_bytes());
    }
  }

  for (const ScheduleDecision& d :
       schedule_batch(kind, batch.documents, ctx, scheduler_state_)) {
    Job& placed = add_job(d.seq_id);
    placed.doc = d.doc;
    placed.batch_index = batch.batch_index;
    placed.arrival = sim_.now();
    placed.scheduled_time = sim_.now();
    placed.placement = d.placement;
    placed.estimated_service_seconds = d.estimated_service_seconds;
    ++outstanding_;

    if (d.placement == Placement::kInternal) {
      set_state(placed, JobState::kIcWaiting);
      ic_wait_.push_back(d.seq_id);
    } else {
      placed.site = d.ec_estimate.site;
      set_state(placed, JobState::kUploadQueued);
      enqueue_upload(placed, d.upload_class);
      arm_burst_deadline(d.seq_id, d.estimated_service_seconds);
    }
  }
  dispatch_ic();
  ensure_probing();
  ensure_elastic_check();
  if (fault_plan_) fault_plan_->ensure_armed();
  if (config_->enable_rescheduler && any_upload_idle()) {
    maybe_push_out();
  }
  belief_.set_bandwidth_view(saved_view);
}

void CloudBurstController::enqueue_upload(Job& job, int upload_class) {
  Site& site = *sites_[job.site];
  ++site.bursts;
  site.upload_queues.enqueue(job.seq_id, job.doc.input_bytes(), upload_class);
}

bool CloudBurstController::any_upload_idle() const {
  return std::any_of(sites_.begin(), sites_.end(), [](const auto& site) {
    return site->upload_queues.idle();
  });
}

void CloudBurstController::submit_map(compute::Cluster& cluster, Job& job) {
  // Realized service is a deterministic function of the document's
  // identity, so the job is identical work wherever (and under whichever
  // scheduler) it runs, and whenever it is drawn. Only the simulated
  // clusters consume it, so it is drawn at the first dispatch: a rollout
  // never draws for the backlog it leaves queued past its horizon.
  if (!job.service_drawn) {
    job.true_service_seconds = truth_.realized_seconds(job.doc);
    job.service_drawn = true;
    ++service_draws_;
  }
  cluster.submit(job.true_service_seconds, job.seq_id, kMapTask);
}

double CloudBurstController::merge_seconds(std::size_t cluster,
                                           const Job& job) const {
  double seconds = kMergeSecondsPerOutputMb * job.doc.output_size_mb;
  if (cluster != kIcCluster) {
    // EMR job setup/staging occupies the executing instance; book it on the
    // merge task (speed-scaled so it costs the configured wall seconds).
    const EcSiteConfig& cfg = config_->ec_sites[cluster];
    seconds += cfg.job_overhead_seconds * cfg.speed;
  }
  return seconds;
}

void CloudBurstController::dispatch_ic() {
  // Feed-ahead window: keep about one machine's worth of tasks queued, so
  // machines never starve while preserving the controller's ability to
  // reschedule jobs that have not started (the §IV.D strategies).
  while (!ic_wait_.empty() &&
         ic_cluster_.queued_tasks() < config_->ic_machines) {
    const std::uint64_t seq = ic_wait_.front();
    ic_wait_.pop_front();
    run_on_ic(seq);
  }
  if (config_->enable_rescheduler && ic_wait_.empty() && ic_cluster_.idle()) {
    maybe_pull_back();
  }
}

void CloudBurstController::set_state(Job& job, JobState state) {
  job.state = state;
  if (config_->record_stage_log) {
    stage_log_.push_back(StageEvent{job.seq_id, state, sim_.now()});
  }
}

void CloudBurstController::run_on_ic(std::uint64_t seq) {
  Job& job = job_at(seq);
  set_state(job, JobState::kIcRunning);
  submit_map(ic_cluster_, job);
}

void CloudBurstController::on_ic_done(std::uint64_t seq) {
  Job& job = job_at(seq);
  belief_.on_ic_complete(seq);
  belief_.service_model().observe(job.doc, job.true_service_seconds);
  finish_job(job);
  dispatch_ic();
  // Each internal completion is a fresh look at the §IV.D condition: "when
  // the EC upload queue is idle and IC has jobs waiting to execute".
  if (config_->enable_rescheduler && any_upload_idle() && outstanding_ > 0) {
    maybe_push_out();
  }
}

void CloudBurstController::observe_transfer(net::BandwidthEstimator& estimator,
                                            net::ThreadTuner& tuner,
                                            const net::TransferRecord& rec) {
  estimator.observe(sim_.now(), rec.transfer_rate());
  tuner.report(sim_.now(), rec.threads, rec.transfer_rate());
}

void CloudBurstController::on_upload_done(std::size_t site_index,
                                          std::uint64_t seq,
                                          const net::TransferRecord& rec) {
  Site& site = *sites_[site_index];
  disarm_burst_deadline(seq);  // past the retractable phase
  observe_transfer(belief_.uplink(site_index), site.up_tuner, rec);
  belief_.on_upload_complete(rec.bytes, site_index);

  // Stage the input. With the store healthy this completes synchronously;
  // during an outage it retries with backoff, and a permanent failure
  // falls back to internal execution (the upload was wasted).
  site.store.put_async(seq, StoredObject::kInput, rec.bytes);

  if (config_->enable_rescheduler && site.upload_queues.idle()) {
    maybe_push_out();
  }
}

void CloudBurstController::start_ec_processing(std::uint64_t seq) {
  Job& job = job_at(seq);
  set_state(job, JobState::kEcRunning);
  submit_map(sites_[job.site]->cluster, job);
}

void CloudBurstController::on_ec_proc_done(std::size_t site_index,
                                           std::uint64_t seq) {
  Site& site = *sites_[site_index];
  Job& job = job_at(seq);
  // The merge task already covered compression cost; swap input for the
  // compressed output in the store and ship it home.
  site.store.erase(seq, StoredObject::kInput);
  site.store.put_async(seq, StoredObject::kOutput, job.doc.output_bytes());
}

void CloudBurstController::on_download_done(std::size_t site_index,
                                            std::uint64_t seq,
                                            const net::TransferRecord& rec) {
  Site& site = *sites_[site_index];
  observe_transfer(belief_.downlink(site_index), site.down_tuner, rec);

  Job& job = job_at(seq);
  site.store.erase(seq, StoredObject::kOutput);
  belief_.on_ec_complete(seq, site_index);
  belief_.service_model().observe(job.doc, job.true_service_seconds);
  finish_job(job);
}

void CloudBurstController::finish_job(Job& job) {
  set_state(job, JobState::kCompleted);
  job.completed_time = sim_.now();
  outcomes_.push_back(job.to_outcome());
  assert(outstanding_ > 0);
  --outstanding_;
  log_.debug(sim_.now(), "job ", job.seq_id, " done on ",
             cbs::sla::to_string(job.placement));
  // The outcome is the job's whole record from here on; `job` dangles.
  // The last job in the table moves into its slot.
  std::uint32_t& entry = job_slot_[job.seq_id - first_job_seq_];
  const std::uint32_t slot = entry;
  assert(&jobs_[slot] == &job);
  entry = kNoJob;
  if (slot + 1 != jobs_.size()) {
    jobs_[slot] = jobs_.back();
    job_slot_[jobs_[slot].seq_id - first_job_seq_] = slot;
  }
  jobs_.pop_back();
  while (!job_slot_.empty() && job_slot_.front() == kNoJob) {
    job_slot_.pop_front();
    ++first_job_seq_;
  }
}

sla::CostInputs CloudBurstController::cost_inputs() const {
  sla::CostInputs in;
  for (const auto& site : sites_) {
    in.ec_provisioned_machine_seconds +=
        site->cluster.provisioned_machine_seconds();
    in.uplink_bytes += site->uplink.total_bytes_delivered();
    in.downlink_bytes += site->downlink.total_bytes_delivered();
    in.store_byte_seconds += site->store.occupancy_byte_seconds();
  }
  in.ic_machine_seconds = ic_cluster_.provisioned_machine_seconds();
  return in;
}

// ---- autonomic probing (§III.A.2) -----------------------------------

void CloudBurstController::ensure_probing() {
  if (probe_scheduled_ || config_->probe_interval <= 0.0) return;
  probe_scheduled_ = true;
  sim_.schedule_in(config_->probe_interval, {target_, kProbe, 0});
}

void CloudBurstController::probe() {
  probe_scheduled_ = false;
  if (outstanding_ == 0) return;  // run over; stop generating events
  if (config_->faults.in_probe_blackout(sim_.now())) {
    // Probe infrastructure is down: skip the measurement but keep the
    // cadence, so the EWMA model simply goes stale for the window.
    ++probe_blackout_skips_;
    ensure_probing();
    return;
  }

  for (const auto& site : sites_) {
    const int up_threads = site->up_tuner.suggest(sim_.now());
    site->uplink.submit(kProbeBytes, up_threads, kUploadProbe, 0);
    const int down_threads = site->down_tuner.suggest(sim_.now());
    site->downlink.submit(kProbeBytes, down_threads, kDownloadProbe, 0);
  }
  ensure_probing();
}

// ---- fault recovery: burst retraction (deadline / outage / staging) -----

void CloudBurstController::arm_burst_deadline(std::uint64_t seq,
                                              double service) {
  if (config_->faults.retraction_deadline_factor <= 0.0) return;
  Job& job = job_at(seq);
  // Allow `factor` times the believed unloaded round trip for the upload
  // phase; past that, the burst is doing worse than the estimate that
  // justified it and an internal re-execution is the safer bet.
  const double round_trip =
      belief_.ec_round_trip_no_load(job.doc, service, sim_.now(), job.site);
  double delay =
      config_->faults.retraction_deadline_factor * std::max(round_trip, 1.0);
  // Hazard-aware retraction: when the predictor sees EC failure risk, give
  // the burst proportionally less patience before pulling it home — the
  // expected cost of waiting out a predicted outage rises with the risk.
  if (sites_[job.site]->hazard) delay /= (1.0 + belief_.ec_risk_factor(job.site));
  burst_deadlines_[seq] =
      sim_.schedule_in(delay, {target_, kBurstDeadline, seq});
}

void CloudBurstController::disarm_burst_deadline(std::uint64_t seq) {
  auto it = burst_deadlines_.find(seq);
  if (it == burst_deadlines_.end()) return;
  sim_.cancel(it->second);
  burst_deadlines_.erase(it);
}

void CloudBurstController::on_burst_deadline(std::uint64_t seq) {
  burst_deadlines_.erase(seq);
  Job& job = job_at(seq);
  // Only the upload phase is retractable: once the input is staged the
  // remaining EC work is believed cheaper than starting over internally.
  if (job.state != JobState::kUploadQueued) return;
  TransferQueueSet& uploads = sites_[job.site]->upload_queues;
  const bool cancelled = uploads.try_cancel(seq) || uploads.try_cancel_active(seq);
  assert(cancelled);
  (void)cancelled;
  retract_burst(seq, job.doc.input_bytes(), "round-trip deadline exceeded");
}

void CloudBurstController::retract_burst(std::uint64_t seq,
                                         double pending_upload_bytes,
                                         const char* why) {
  ++retractions_;
  log_.info(sim_.now(), "burst retraction of job ", seq, ": ", why);
  readmit_to_ic(seq, pending_upload_bytes);
}

void CloudBurstController::readmit_to_ic(std::uint64_t seq,
                                         double pending_upload_bytes) {
  disarm_burst_deadline(seq);
  Job& job = job_at(seq);
  belief_.retract_ec(seq, pending_upload_bytes, job.site);
  belief_.commit_ic(seq, job.estimated_service_seconds);
  job.placement = Placement::kInternal;
  set_state(job, JobState::kIcWaiting);
  // Re-admission preserves FCFS: the job re-enters the IC feed queue at
  // its sequence position, not at the tail.
  ic_wait_.insert(std::lower_bound(ic_wait_.begin(), ic_wait_.end(), seq),
                  seq);
  dispatch_ic();
}

void CloudBurstController::on_outage_begin(
    const sim::OutageWindow& /*window*/) {
  // An outage cuts the internal cloud off from every site: the configured
  // windows model the enterprise's own uplink going down.
  log_.warn(sim_.now(), "EC outage begins: links down, store unavailable");
  for (const auto& site : sites_) {
    site->uplink.set_outage(true);
    site->downlink.set_outage(true);
    site->store.set_available(false);
  }
  // The outage is observable (connection resets): pull every upload that
  // has not started back to the IC instead of letting it queue into a
  // dead pipe. In-flight transfers keep their slot and resume — or hit
  // their retraction deadline — on their own.
  for (const auto& site : sites_) {
    for (const std::uint64_t seq : site->upload_queues.queued_tags()) {
      if (!site->upload_queues.try_cancel(seq)) continue;
      retract_burst(seq, job_at(seq).doc.input_bytes(), "EC outage observed");
    }
  }
}

void CloudBurstController::on_outage_end() {
  log_.info(sim_.now(), "EC outage ends");
  for (const auto& site : sites_) {
    site->uplink.set_outage(false);
    site->downlink.set_outage(false);
    site->store.set_available(true);
  }
}

// ---- proactive failure resilience (hazard prediction, DESIGN.md §13) ----

void CloudBurstController::on_vm_crash(std::size_t cluster,
                                       std::size_t machine) {
  compute::Cluster& crashed = cluster_at(cluster);
  models::VmHazardEstimator* hazard = hazard_at(cluster);
  if (hazard != nullptr) {
    // Feed the estimator *before* applying the crash so the gap sample
    // ends exactly at the crash instant (elastic EC may have grown the
    // cluster since construction), then re-evaluate the proactive policy.
    hazard->ensure_machines(crashed.machine_slots(), sim_.now());
    hazard->on_failure(machine, sim_.now());
  }
  crashed.crash_machine(machine);
  if (hazard != nullptr) update_resilience();
}

void CloudBurstController::on_vm_recover(std::size_t cluster,
                                         std::size_t machine) {
  cluster_at(cluster).recover_machine(machine);
  if (hazard_at(cluster) != nullptr) update_resilience();
}

void CloudBurstController::update_resilience() {
  if (!ic_hazard_) return;
  const sim::SimTime now = sim_.now();
  // Expire stale crash predictions first so precision/recall bookkeeping
  // never credits a drain that simply outlived its window.
  ic_hazard_->settle(now);
  for (const auto& site : sites_) site->hazard->settle(now);
  update_cluster_drains(ic_cluster_, *ic_hazard_);
  for (const auto& site : sites_) {
    update_cluster_drains(site->cluster, *site->hazard);
  }
  // Fold each site's predicted outage risk into every believed estimate on
  // that site via a single lever: ft_ec and friends inflate their
  // processing term by (1 + risk_weight * mean failure probability). Drains
  // are soft (they re-route dispatch, not remove capacity), so the believed
  // machine count is left alone.
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    belief_.set_ec_risk_factor(
        i, config_->resilience.risk_weight * site_failure_risk(i));
  }
}

void CloudBurstController::update_cluster_drains(
    compute::Cluster& cluster, models::VmHazardEstimator& hazard) {
  const sim::SimTime now = sim_.now();
  const sim::SimDuration window = config_->resilience.drain_window_seconds;
  hazard.ensure_machines(cluster.machine_slots(), now);
  for (std::size_t m = 0; m < cluster.machine_slots(); ++m) {
    if (cluster.machine_retired(m)) continue;
    const double p = hazard.failure_probability(m, now, window);
    if (p >= config_->resilience.drain_threshold) {
      if (cluster.machine_drained(m) || cluster.drain_machine(m)) {
        // Flag (or keep flagging) the machine as predicted-to-crash; the
        // estimator scores the prediction when the crash lands or the
        // window expires.
        hazard.note_prediction(m, now, window);
      }
    } else if (cluster.machine_drained(m)) {
      cluster.undrain_machine(m);
    }
  }
}

double CloudBurstController::site_failure_risk(std::size_t site) const {
  const models::VmHazardEstimator* hazard = sites_[site]->hazard.get();
  if (hazard == nullptr) return 0.0;
  return models::mean_failure_probability(
      *hazard, sim_.now(), config_->resilience.drain_window_seconds);
}

double CloudBurstController::ec_failure_risk() const {
  double total = 0.0;
  for (std::size_t i = 0; i < sites_.size(); ++i) total += site_failure_risk(i);
  return total / static_cast<double>(sites_.size());
}

// ---- elastic EC scaling (§V.B.4 future work, behind a flag) -------------

void CloudBurstController::ensure_elastic_check() {
  if (!config_->elastic_ec.enabled || elastic_check_scheduled_) return;
  elastic_check_scheduled_ = true;
  sim_.schedule_in(kElasticCheckInterval, {target_, kElasticCheck, 0});
}

void CloudBurstController::elastic_check() {
  elastic_check_scheduled_ = false;
  if (outstanding_ == 0) return;  // run over; let the simulation drain
  for (std::size_t i = 0; i < sites_.size(); ++i) scale_site(i);
  ensure_elastic_check();
}

void CloudBurstController::scale_site(std::size_t index) {
  const ElasticEcConfig& e = config_->elastic_ec;
  Site& site = *sites_[index];
  compute::Cluster& cluster = site.cluster;

  const std::size_t provisioned = cluster.machine_count() + site.pending_boots;
  // Believed wait of a newly arriving EC job behind the current queue.
  const double wait_seconds =
      cluster.queued_standard_seconds() /
      (static_cast<double>(std::max<std::size_t>(provisioned, 1)) *
       config_->ec_sites[index].speed);

  if (wait_seconds > kGrowWaitThresholdSeconds &&
      provisioned < e.max_machines) {
    ++site.pending_boots;
    ++scale_ups_;
    log_.info(sim_.now(), "elastic EC: scaling ", cluster.name(), " up to ",
              provisioned + 1);
    sim_.schedule_in(kBootDelay, {target_, kBootDone, index});
  } else if (provisioned > kElasticMinMachines && site.pending_boots == 0) {
    const auto idle =
        static_cast<double>(cluster.machine_count() - cluster.running_tasks());
    if (cluster.queued_tasks() == 0 &&
        idle > kShrinkIdleFraction *
                   static_cast<double>(cluster.machine_count())) {
      if (cluster.remove_machine()) {
        ++scale_downs_;
        belief_.set_ec_machines(index, cluster.machine_count());
        log_.info(sim_.now(), "elastic EC: scaling ", cluster.name(),
                  " down to ", cluster.machine_count());
      }
    }
  }
}

void CloudBurstController::on_boot_done(std::size_t index) {
  Site& site = *sites_[index];
  --site.pending_boots;
  site.cluster.add_machine();
  belief_.set_ec_machines(index, site.cluster.machine_count());
}

// ---- §IV.D rescheduling strategies (paper future work, behind a flag) --

void CloudBurstController::maybe_pull_back() {
  // An internal machine is idle with nothing waiting: reclaim the earliest
  // still-queued upload whose believed external completion is further away
  // than an internal re-execution.
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    TransferQueueSet& uploads = sites_[i]->upload_queues;
    for (const std::uint64_t seq : uploads.queued_tags()) {
      Job& job = job_at(seq);
      const double reexec_seconds =
          job.estimated_service_seconds /
          static_cast<double>(config_->ic_machines);
      const double remaining_ec = belief_.ec_round_trip_no_load(
          job.doc, belief_.estimate_service(job.doc), sim_.now(), i);
      if (remaining_ec <= reexec_seconds) continue;
      if (!uploads.try_cancel(seq)) continue;

      ++pull_backs_;
      log_.info(sim_.now(), "pull-back of job ", seq, " to IC");
      readmit_to_ic(seq, job.doc.input_bytes());
      return;
    }
  }
}

void CloudBurstController::maybe_push_out() {
  // An upload pipe is idle while internal jobs wait: scan the IC wait
  // queue from the tail for a job whose round trip fits the current slack.
  for (auto it = ic_wait_.rbegin(); it != ic_wait_.rend(); ++it) {
    const std::uint64_t seq = *it;
    Job& job = job_at(seq);
    // The cushion must exclude the candidate's own believed IC work, so
    // retract first and re-commit if the move is rejected.
    belief_.retract_ic(seq);
    const double service = belief_.estimate_service(job.doc);
    const std::optional<EcEstimate> ec = belief_.ft_ec_within(
        job.doc, service, sim_.now(), belief_.slack(sim_.now()),
        config_->params.slack_safety_margin);
    if (!ec) {
      belief_.commit_ic(seq, job.estimated_service_seconds);
      continue;
    }
    ic_wait_.erase(std::next(it).base());
    belief_.commit_ec(seq, job.doc, service, *ec);
    job.placement = Placement::kExternal;
    job.site = ec->site;
    set_state(job, JobState::kUploadQueued);
    enqueue_upload(job, 0);
    arm_burst_deadline(seq, service);
    ++push_outs_;
    log_.info(sim_.now(), "push-out of job ", seq, " to EC");
    return;
  }
}

}  // namespace cbs::core
