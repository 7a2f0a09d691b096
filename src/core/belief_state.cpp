#include "core/belief_state.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sla/slack.hpp"

namespace cbs::core {

using cbs::sim::SimTime;

BeliefState::BeliefState(
    std::unique_ptr<cbs::models::ProcessingTimeEstimator> service_model,
    std::size_t ic_machines)
    : service_model_(std::move(service_model)), ic_machines_(ic_machines) {
  assert(service_model_ != nullptr);
  assert(ic_machines > 0);
}

BeliefState::BeliefState(const BeliefState& src)
    : service_model_(src.service_model_->clone()),
      ic_machines_(src.ic_machines_),
      sites_(src.sites_),
      ic_jobs_(src.ic_jobs_),
      ic_outstanding_seconds_(src.ic_outstanding_seconds_),
      ec_jobs_(src.ec_jobs_),
      ec_finish_heap_(src.ec_finish_heap_),
      heap_top_live_(src.heap_top_live_),
      view_(src.view_) {}

std::size_t BeliefState::add_ec_site(
    const EcSiteConfig& site,
    const cbs::net::BandwidthEstimator::Config& pipe) {
  assert(site.machines > 0 && site.speed > 0.0);
  assert(site.job_overhead_seconds >= 0.0);
  EcSite& s = sites_.emplace_back(
      EcSite{.uplink = cbs::net::BandwidthEstimator(pipe),
             .downlink = cbs::net::BandwidthEstimator(pipe)});
  s.machines = site.machines;
  s.speed = site.speed;
  s.job_overhead = site.job_overhead_seconds;
  return sites_.size() - 1;
}

double BeliefState::estimate_service(const cbs::workload::Document& doc) const {
  return service_model_->estimate_seconds(doc);
}

double BeliefState::upload_seconds_for(const EcSite& site, SimTime t,
                                       double bytes) const {
  if (view_ == BandwidthView::kTransient) {
    return bytes / std::max(site.uplink.last_observed(), 1.0);
  }
  return site.uplink.estimate_transfer_seconds(t, bytes);
}

double BeliefState::download_seconds_for(const EcSite& site, SimTime t,
                                         double bytes) const {
  if (view_ == BandwidthView::kTransient) {
    return bytes / std::max(site.downlink.last_observed(), 1.0);
  }
  return site.downlink.estimate_transfer_seconds(t, bytes);
}

SimTime BeliefState::ic_drain_time(SimTime now) const {
  return now + ic_outstanding_seconds_ / ic_capacity();
}

SimTime BeliefState::ft_ic(double service, SimTime now) const {
  // Backlog drains at full aggregate rate; the new job's own work then
  // runs on one speed-1 machine.
  return now + ic_outstanding_seconds_ / ic_capacity() + service;
}

BeliefState::UploadQuery BeliefState::upload_query(const EcSite& site,
                                                   SimTime now,
                                                   double bytes) const {
  return UploadQuery{.now = now,
                     .bytes = bytes,
                     .observations = site.uplink.observation_count(),
                     .view = view_};
}

double BeliefState::upload_floor(const EcSite& site, SimTime now) const {
  const UploadQuery key = upload_query(site, now, site.upload_backlog_bytes);
  if (site.floor.same_query(key)) return site.floor.seconds;
  const double seconds =
      site.last_upload.same_query(key)
          ? site.last_upload.seconds
          : upload_seconds_for(site, now, site.upload_backlog_bytes);
  site.floor = key;
  // The transient view divides by one rate, which cannot fall as the bytes
  // grow; the learned one can step back at a slot seam, so it takes the
  // estimator's bound.
  site.floor.seconds =
      view_ == BandwidthView::kTransient
          ? seconds
          : site.uplink.transfer_seconds_floor(seconds, key.bytes);
  return site.floor.seconds;
}

EcEstimate BeliefState::estimate_to_processing(
    std::size_t site_index, const cbs::workload::Document& doc, double service,
    SimTime now) const {
  const EcSite& site = sites_[site_index];
  EcEstimate e;
  e.site = site_index;
  // Upload: queued bytes ahead of us plus our own, at the believed rate.
  site.last_upload =
      upload_query(site, now, site.upload_backlog_bytes + doc.input_bytes());
  site.last_upload.seconds =
      upload_seconds_for(site, now, site.last_upload.bytes);
  e.upload_seconds = site.last_upload.seconds;
  const SimTime upload_done = now + e.upload_seconds;

  // EC compute: outstanding believed work drains meanwhile; whatever is
  // left when our bytes land queues ahead of us.
  const double drained = (upload_done - now) * site.capacity();
  const double backlog_left =
      std::max(0.0, site.outstanding_seconds - drained);
  e.ec_wait_seconds = backlog_left / site.capacity();
  // Risk pricing: predicted EC failure risk inflates the believed
  // processing term (× 1.0 exactly when the hazard predictor is off).
  e.processing_seconds = site.processing_seconds(service);
  e.finish = upload_done + e.ec_wait_seconds + e.processing_seconds;
  return e;
}

void BeliefState::add_download(EcEstimate& e, double bytes) const {
  // Download of the (estimated) output at the believed downlink rate at
  // that future time — the l(t_i + t') term of Eq. 2.
  e.download_seconds = download_seconds_for(sites_[e.site], e.finish, bytes);
  e.finish = e.finish + e.download_seconds;
}

EcEstimate BeliefState::estimate_on(std::size_t site_index,
                                    const cbs::workload::Document& doc,
                                    double service, SimTime now,
                                    double download_backlog_bytes) const {
  EcEstimate e = estimate_to_processing(site_index, doc, service, now);
  add_download(e, download_backlog_bytes + doc.output_bytes());
  return e;
}

EcEstimate BeliefState::no_load_on(std::size_t site_index,
                                   const cbs::workload::Document& doc,
                                   double service, SimTime now) const {
  const EcSite& site = sites_[site_index];
  EcEstimate e;
  e.site = site_index;
  e.upload_seconds = upload_seconds_for(site, now, doc.input_bytes());
  e.processing_seconds = site.processing_seconds(service);
  e.download_seconds = download_seconds_for(
      site, now + e.upload_seconds + e.processing_seconds, doc.output_bytes());
  e.finish = now + e.upload_seconds + e.processing_seconds + e.download_seconds;
  return e;
}

template <typename EstimateOn>
EcEstimate BeliefState::pick_site(EstimateOn&& estimate) const {
  assert(!sites_.empty());
  EcEstimate fastest = estimate(std::size_t{0});
  for (std::size_t s = 1; s < sites_.size(); ++s) {
    const EcEstimate e = estimate(s);
    if (e.finish < fastest.finish) fastest = e;
  }
  return fastest;
}

EcEstimate BeliefState::ft_ec(const cbs::workload::Document& doc,
                              double service, SimTime now) const {
  return pick_site([&](std::size_t site) {
    return estimate_on(site, doc, service, now, 0.0);
  });
}

EcEstimate BeliefState::ft_ec_job_level(
    const cbs::workload::Document& doc, double service, SimTime now,
    const std::vector<double>& observed_download_backlog_bytes) const {
  assert(observed_download_backlog_bytes.size() == sites_.size());
  return pick_site([&](std::size_t site) {
    return estimate_on(site, doc, service, now,
                       observed_download_backlog_bytes[site]);
  });
}

std::optional<EcEstimate> BeliefState::ft_ec_within(
    const cbs::workload::Document& doc, double service, SimTime now,
    SimTime slack, cbs::sim::SimDuration margin) const {
  assert(!sites_.empty());
  std::optional<EcEstimate> fastest;
  for (std::size_t s = 0; s < sites_.size(); ++s) {
    const EcSite& site = sites_[s];
    // The document's upload takes at least the floor, and the EC wait is
    // never negative.
    if (!cbs::sla::satisfies_slack(
            now + upload_floor(site, now) + site.processing_seconds(service),
            slack, margin)) {
      continue;
    }
    EcEstimate e = estimate_to_processing(s, doc, service, now);
    if (!cbs::sla::satisfies_slack(e.finish, slack, margin)) continue;
    add_download(e, doc.output_bytes());
    if (!cbs::sla::satisfies_slack(e.finish, slack, margin)) continue;
    if (!fastest || e.finish < fastest->finish) fastest = e;
  }
  return fastest;
}

double BeliefState::ec_round_trip_no_load(const cbs::workload::Document& doc,
                                          double service, SimTime now) const {
  const EcEstimate e = pick_site([&](std::size_t site) {
    return no_load_on(site, doc, service, now);
  });
  return e.upload_seconds + e.processing_seconds + e.download_seconds;
}

double BeliefState::ec_round_trip_no_load(const cbs::workload::Document& doc,
                                          double service, SimTime now,
                                          std::size_t site) const {
  const EcEstimate e = no_load_on(site, doc, service, now);
  return e.upload_seconds + e.processing_seconds + e.download_seconds;
}

SimTime BeliefState::slack(SimTime now) const {
  SimTime cushion = now;
  if (ic_jobs_ > 0) cushion = std::max(cushion, ic_drain_time(now));
  // Pop stale heap tops (completed/retracted jobs, or a seq re-committed
  // with a different estimate) until a live maximum surfaces. Each stale
  // record is popped exactly once, so the amortized cost per slack() call
  // is O(1) heap maintenance.
  while (!ec_finish_heap_.empty()) {
    const auto& [finish, seq] = ec_finish_heap_.front();
    if (heap_top_live_) {
      cushion = std::max(cushion, finish);
      break;
    }
    const EcJob* job = ec_jobs_.find(seq);
    if (job != nullptr && job->est_finish == finish) {
      heap_top_live_ = true;
      cushion = std::max(cushion, finish);
      break;
    }
    std::pop_heap(ec_finish_heap_.begin(), ec_finish_heap_.end());
    ec_finish_heap_.pop_back();
  }
  return cushion;
}

SimTime BeliefState::slack_bruteforce(SimTime now) const {
  SimTime cushion = now;
  if (ic_jobs_ > 0) cushion = std::max(cushion, ic_drain_time(now));
  ec_jobs_.for_each_in_seq_order([&](std::uint64_t, const EcJob& job) {
    cushion = std::max(cushion, job.est_finish);
  });
  return cushion;
}

void BeliefState::commit_ic(double estimated_service) {
  assert(estimated_service >= 0.0);
  ++ic_jobs_;
  ic_outstanding_seconds_ += estimated_service;
}

void BeliefState::commit_ec(std::uint64_t seq, const cbs::workload::Document& doc,
                            double service, const EcEstimate& estimate) {
  assert(estimate.site < sites_.size());
  ec_jobs_.insert(seq, EcJob{estimate.finish, service});
  // Stale records (from completions/retractions) accumulate until they
  // surface in slack(); rebuild from the live table when they dominate so
  // churn-heavy runs stay bounded. The walk is in seq order: the heap's
  // layout, and so the order stale tops surface in, follows its input.
  if (ec_finish_heap_.size() > 2 * ec_jobs_.size() + 64) {
    ec_finish_heap_.clear();
    ec_jobs_.for_each_in_seq_order(
        [&](std::uint64_t live_seq, const EcJob& job) {
          ec_finish_heap_.emplace_back(job.est_finish, live_seq);
        });
    std::make_heap(ec_finish_heap_.begin(), ec_finish_heap_.end());
    heap_top_live_ = true;
  }
  // A push keeps a live top live: the new record is live, and the seq is
  // new to the table, so no older record changes.
  ec_finish_heap_.emplace_back(estimate.finish, seq);
  std::push_heap(ec_finish_heap_.begin(), ec_finish_heap_.end());
  EcSite& site = sites_[estimate.site];
  site.outstanding_seconds += service;
  site.upload_backlog_bytes += doc.input_bytes();
}

void BeliefState::on_ic_complete(double estimated_service) {
  assert(ic_jobs_ > 0);
  --ic_jobs_;
  ic_outstanding_seconds_ =
      std::max(0.0, ic_outstanding_seconds_ - estimated_service);
}

void BeliefState::on_ec_complete(std::uint64_t seq, std::size_t site) {
  const double processing_seconds = ec_jobs_.at(seq).processing_seconds;
  EcSite& s = sites_[site];
  s.outstanding_seconds =
      std::max(0.0, s.outstanding_seconds - processing_seconds);
  ec_jobs_.erase(seq);
  heap_top_live_ = false;
}

void BeliefState::on_upload_complete(double bytes, std::size_t site) {
  EcSite& s = sites_[site];
  s.upload_backlog_bytes = std::max(0.0, s.upload_backlog_bytes - bytes);
}

double BeliefState::upload_backlog_bytes() const noexcept {
  double total = 0.0;
  for (const EcSite& site : sites_) total += site.upload_backlog_bytes;
  return total;
}

void BeliefState::retract_ec(std::uint64_t seq, double pending_upload_bytes,
                             std::size_t site) {
  on_ec_complete(seq, site);
  on_upload_complete(pending_upload_bytes, site);
}

}  // namespace cbs::core
