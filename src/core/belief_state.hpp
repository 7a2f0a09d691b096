#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "models/estimator.hpp"
#include "net/bandwidth_estimator.hpp"
#include "simcore/time.hpp"
#include "util/seq_table.hpp"
#include "workload/document.hpp"

namespace cbs::core {

/// How a scheduler reads the network when estimating transfers.
/// kLearned uses the per-slot EWMA model (§III.A.2); kTransient uses the
/// latest raw observation — Algorithm 1's "current transit bandwidth",
/// whose fragility §IV.D analyses.
enum class BandwidthView : std::uint8_t { kLearned, kTransient };

/// Breakdown of an estimated external round trip (the terms of Eq. 2) on
/// the EC site the belief picked for it.
struct EcEstimate {
  std::size_t site = 0;              ///< index into the belief's EC sites
  double upload_seconds = 0.0;
  double ec_wait_seconds = 0.0;      ///< queueing behind earlier EC work
  double processing_seconds = 0.0;   ///< wall time on the EC cluster
  double download_seconds = 0.0;
  cbs::sim::SimTime finish = 0.0;    ///< absolute estimated completion (ft^ec)
};

/// The scheduler's belief about the state of the clouds — everything the
/// finish-time estimators ft^ic(i,S) and ft^ec(i,S) of §III.A condition on.
/// It keeps one record per EC site; every ft^ec it returns is for the site
/// with the earliest believed completion, so the schedulers stay
/// site-agnostic.
///
/// The belief is built only from information a real controller has: its own
/// placement decisions, the QRSM's service estimates, the EWMA bandwidth
/// estimates, and completion notifications. It never peeks at ground truth
/// (link noise state, realized service times); the gap between belief and
/// reality is exactly the estimation error whose consequences §IV.D
/// analyses.
class BeliefState {
 public:
  /// A belief over the internal cloud of `ic_machines` speed-1 machines
  /// alone, estimating service with `service_model`; add_ec_site()
  /// registers the external sites. A job occupies one machine, so its own
  /// service time runs at the machine's speed, while the backlog drains at
  /// the cluster's aggregate rate.
  BeliefState(
      std::unique_ptr<cbs::models::ProcessingTimeEstimator> service_model,
      std::size_t ic_machines);

  /// Fork support: believes exactly what `src` does, with its own copies
  /// of the service and bandwidth models.
  BeliefState(const BeliefState& src);
  BeliefState& operator=(const BeliefState&) = delete;

  /// Registers the next EC site (its index is the return value): its
  /// machines, speed and per-job overhead from `site`, and a fresh uplink
  /// and downlink bandwidth model built from `pipe`.
  std::size_t add_ec_site(const EcSiteConfig& site,
                          const cbs::net::BandwidthEstimator::Config& pipe);

  /// The models the belief prices with. The controller feeds them what it
  /// observes: a finished job to the service model, a finished transfer or
  /// probe to its site's bandwidth model.
  [[nodiscard]] cbs::models::ProcessingTimeEstimator& service_model() noexcept {
    return *service_model_;
  }
  [[nodiscard]] const cbs::models::ProcessingTimeEstimator& service_model()
      const noexcept {
    return *service_model_;
  }
  [[nodiscard]] cbs::net::BandwidthEstimator& uplink(std::size_t site) {
    return sites_[site].uplink;
  }
  [[nodiscard]] const cbs::net::BandwidthEstimator& uplink(
      std::size_t site) const {
    return sites_[site].uplink;
  }
  [[nodiscard]] cbs::net::BandwidthEstimator& downlink(std::size_t site) {
    return sites_[site].downlink;
  }
  [[nodiscard]] const cbs::net::BandwidthEstimator& downlink(
      std::size_t site) const {
    return sites_[site].downlink;
  }

  /// Estimated standard-machine service seconds for a document (t^e(i)).
  /// The pricing calls below take this estimate as `service`: a scheduler
  /// asks once per document and prices, decides and commits with the
  /// answer.
  [[nodiscard]] double estimate_service(const cbs::workload::Document& doc) const;

  /// ft^ic: estimated absolute completion time if a job of `service`
  /// seconds were appended to the internal queue now. The cluster is
  /// modeled as draining its estimated backlog at the aggregate rate of its
  /// speed-1 machines — accurate for the task-granular FCFS dispatch the
  /// controller uses.
  [[nodiscard]] cbs::sim::SimTime ft_ic(double service,
                                        cbs::sim::SimTime now) const;

  /// ft^ec with the full round-trip breakdown: upload-queue drain + upload,
  /// EC backlog, processing, download (Eq. 2's terms), on the site with the
  /// earliest believed completion.
  [[nodiscard]] EcEstimate ft_ec(const cbs::workload::Document& doc,
                                 double service, cbs::sim::SimTime now) const;

  /// Algorithm 2's burst test: the ft_ec() estimate when its finish plus
  /// `margin` is within the cushion `slack` (sla::satisfies_slack), else
  /// nullopt. It decides exactly as testing ft_ec() would, but stops
  /// pricing a site as soon as the site is sure to miss: before the
  /// document's upload query when the upload of the site's backlog alone,
  /// plus processing, already misses (the upload floor), and before the
  /// download query when upload, EC wait and processing already miss. A
  /// rounded sum does not fall when a term grows, so a skipped site would
  /// have failed the test; and a site that fails has a later finish than
  /// one that fits, so it never was the pick.
  [[nodiscard]] std::optional<EcEstimate> ft_ec_within(
      const cbs::workload::Document& doc, double service,
      cbs::sim::SimTime now, cbs::sim::SimTime slack,
      cbs::sim::SimDuration margin) const;

  /// ft^ec ignoring all queueing (Algorithm 3, line 5: completion "under no
  /// load": t_up + e_ec + t_down), on the site with the shortest one.
  [[nodiscard]] double ec_round_trip_no_load(const cbs::workload::Document& doc,
                                             double service,
                                             cbs::sim::SimTime now) const;
  /// The same on a given site (a job already committed there).
  [[nodiscard]] double ec_round_trip_no_load(const cbs::workload::Document& doc,
                                             double service,
                                             cbs::sim::SimTime now,
                                             std::size_t site) const;

  /// The *job-level* ft^ec of Algorithm 1: the greedy scheduler evaluates
  /// each job against the state of the system as observed at batch arrival
  /// — `observed_download_backlog_bytes[s]` is the real download queue of
  /// site s then — but it does NOT anticipate the download contention its
  /// own in-batch bursts will create. This blind spot is precisely how
  /// greedy-bursted jobs end up on the critical path (§IV.D): each decision
  /// looks locally fine, and the queueing delay only materializes at
  /// download time.
  [[nodiscard]] EcEstimate ft_ec_job_level(
      const cbs::workload::Document& doc, double service,
      cbs::sim::SimTime now,
      const std::vector<double>& observed_download_backlog_bytes) const;

  /// Eq. 1: the cushion for the next job to be scheduled — the latest
  /// estimated completion among all outstanding (committed, not completed)
  /// jobs, which all precede it in the queue. `now` when nothing is ahead.
  ///
  /// O(1) amortized: the maximum believed EC finish is maintained
  /// incrementally (lazy-deletion max-heap updated on commit/complete/
  /// retract) instead of rescanned — the rescan made every Poisson batch
  /// O(n²) in outstanding jobs. `slack_bruteforce` is the O(n) reference.
  [[nodiscard]] cbs::sim::SimTime slack(cbs::sim::SimTime now) const;

  /// Reference implementation of `slack` that rescans every believed EC
  /// job. Exists so property tests can pin the incremental structure
  /// against it under arbitrary commit/complete/retract sequences; not for
  /// production call sites.
  [[nodiscard]] cbs::sim::SimTime slack_bruteforce(cbs::sim::SimTime now) const;

  /// Estimated IC backlog in standard seconds (Algorithm 3's iload, as
  /// wall-clock seconds once divided by capacity).
  [[nodiscard]] double ic_backlog_standard_seconds() const noexcept {
    return ic_outstanding_seconds_;
  }

  // ---- Commitments (called by the controller as decisions are made) ----

  /// Records an IC placement of `seq` with the given service estimate.
  void commit_ic(std::uint64_t seq, double estimated_service);
  /// Records an EC placement on `estimate.site` with the service and
  /// round-trip estimates it was priced with.
  void commit_ec(std::uint64_t seq, const cbs::workload::Document& doc,
                 double service, const EcEstimate& estimate);

  // ---- Observations (completion notifications) ----
  // The EC calls name the job's site (the estimate's `site` at commit).

  void on_ic_complete(std::uint64_t seq);
  void on_ec_complete(std::uint64_t seq, std::size_t site = 0);
  /// An upload to `site` finished; removes its bytes from that site's
  /// believed upload backlog.
  void on_upload_complete(double bytes, std::size_t site = 0);

  /// Moves a job between clouds (rescheduler support). The caller supplies
  /// the new estimate for the receiving side.
  void retract_ic(std::uint64_t seq);
  void retract_ec(std::uint64_t seq, double pending_upload_bytes,
                  std::size_t site = 0);

  [[nodiscard]] std::size_t outstanding_ic_jobs() const noexcept {
    return ic_jobs_.size();
  }
  [[nodiscard]] std::size_t outstanding_ec_jobs() const noexcept {
    return ec_jobs_.size();
  }
  /// Believed bytes waiting to upload, summed over the sites.
  [[nodiscard]] double upload_backlog_bytes() const noexcept;
  [[nodiscard]] std::size_t site_count() const noexcept { return sites_.size(); }

  void set_bandwidth_view(BandwidthView view) noexcept { view_ = view; }
  [[nodiscard]] BandwidthView bandwidth_view() const noexcept { return view_; }

  /// Elastic EC support: the believed machine count of `site` follows its
  /// actual provisioning level.
  void set_ec_machines(std::size_t site, std::size_t machines) noexcept {
    if (machines > 0) sites_[site].machines = machines;
  }

  /// Proactive-resilience risk pricing: believed processing time on `site`
  /// scales by (1 + factor), so every scheduler that consults ft_ec /
  /// ft_ec_job_level / ec_round_trip_no_load prices predicted EC failure
  /// risk into its burst decision. 0 (the default) is an exact no-op.
  void set_ec_risk_factor(std::size_t site, double factor) noexcept {
    sites_[site].risk_factor = factor < 0.0 ? 0.0 : factor;
  }
  [[nodiscard]] double ec_risk_factor(std::size_t site) const noexcept {
    return sites_[site].risk_factor;
  }

 private:
  /// Estimated drain time of the internal cloud (absolute).
  [[nodiscard]] cbs::sim::SimTime ic_drain_time(cbs::sim::SimTime now) const;

  /// Believed upload seconds for `bytes` at `now`, and the state of the
  /// belief they were computed in.
  struct UploadQuery {
    cbs::sim::SimTime now = std::numeric_limits<double>::quiet_NaN();
    double bytes = 0.0;
    std::size_t observations = 0;  ///< the uplink estimator's, at the time
    BandwidthView view = BandwidthView::kLearned;
    double seconds = 0.0;

    [[nodiscard]] bool same_query(const UploadQuery& o) const noexcept {
      return now == o.now && bytes == o.bytes &&
             observations == o.observations && view == o.view;
    }
  };

  /// What the belief knows about one EC site.
  struct EcSite {
    cbs::net::BandwidthEstimator uplink;
    cbs::net::BandwidthEstimator downlink;
    std::size_t machines = 1;
    double speed = 1.0;
    double job_overhead = 0.0;  ///< fixed wall-clock overhead per job
    double outstanding_seconds = 0.0;   ///< believed standard seconds queued
    double upload_backlog_bytes = 0.0;  ///< believed bytes not yet uploaded
    double risk_factor = 0.0;  ///< believed-EC inflation, (1 + factor)
    /// The upload floor of the backlog (upload_floor()), and the last
    /// document's upload estimate. `mutable`: they are memos, refreshed by
    /// the reads that find them stale. The documents of one admission share
    /// the floor until a burst grows the backlog, and the burst's own
    /// estimate is the upload of the grown backlog. A copy keeps them: each
    /// is keyed on every input of its query, and the copied uplink is in
    /// the state they were computed in.
    mutable UploadQuery floor{};
    mutable UploadQuery last_upload{};

    [[nodiscard]] double capacity() const noexcept {
      return static_cast<double>(machines) * speed;
    }
    [[nodiscard]] double processing_seconds(double service) const noexcept {
      return (job_overhead + service / speed) * (1.0 + risk_factor);
    }
  };

  [[nodiscard]] double ic_capacity() const noexcept {
    return static_cast<double>(ic_machines_);
  }

  [[nodiscard]] double upload_seconds_for(const EcSite& site,
                                          cbs::sim::SimTime t,
                                          double bytes) const;
  [[nodiscard]] double download_seconds_for(const EcSite& site,
                                            cbs::sim::SimTime t,
                                            double bytes) const;
  /// The key of an upload estimate of `bytes` on `site` at `now`.
  [[nodiscard]] UploadQuery upload_query(const EcSite& site,
                                         cbs::sim::SimTime now,
                                         double bytes) const;
  /// A lower bound on the believed upload time of anything queued behind
  /// `site`'s backlog at `now`; see ft_ec_within().
  [[nodiscard]] double upload_floor(const EcSite& site,
                                    cbs::sim::SimTime now) const;
  /// ft^ec on one site up to the end of EC processing: every term but the
  /// download, with `finish` the believed end of processing.
  [[nodiscard]] EcEstimate estimate_to_processing(
      std::size_t site, const cbs::workload::Document& doc, double service,
      cbs::sim::SimTime now) const;
  /// Completes `e` with the download of `bytes` that starts when its
  /// processing ends.
  void add_download(EcEstimate& e, double bytes) const;
  /// ft^ec on one site, with `download_backlog_bytes` ahead of the output.
  [[nodiscard]] EcEstimate estimate_on(std::size_t site,
                                       const cbs::workload::Document& doc,
                                       double service, cbs::sim::SimTime now,
                                       double download_backlog_bytes) const;
  /// The unloaded round trip on one site (no wait term).
  [[nodiscard]] EcEstimate no_load_on(std::size_t site,
                                      const cbs::workload::Document& doc,
                                      double service,
                                      cbs::sim::SimTime now) const;
  /// The `estimate(site)` with the earliest finish; ties go to the lower
  /// site index.
  template <typename EstimateOn>
  [[nodiscard]] EcEstimate pick_site(EstimateOn&& estimate) const;

  std::unique_ptr<cbs::models::ProcessingTimeEstimator> service_model_;
  std::size_t ic_machines_;
  std::vector<EcSite> sites_;

  // Outstanding IC jobs: seq -> the service estimate committed with it,
  // which is what its completion takes back off the backlog.
  cbs::util::SeqTable<double> ic_jobs_;
  double ic_outstanding_seconds_ = 0.0;
  // Outstanding EC jobs: seq -> (estimated absolute completion, estimated
  // EC processing seconds still ahead of the store).
  struct EcJob {
    cbs::sim::SimTime est_finish = 0.0;
    double processing_seconds = 0.0;
  };
  cbs::util::SeqTable<EcJob> ec_jobs_;
  /// Lazy-deletion max-heap over (est_finish, seq) of the believed EC jobs.
  /// Completions/retractions leave stale records; slack() pops them when
  /// they surface (an entry is live iff ec_jobs_[seq].est_finish matches),
  /// and commit_ec rebuilds it from the live records, in seq order, when
  /// stale records dominate. `mutable` because popping stale tops is a
  /// read-side maintenance step.
  mutable std::vector<std::pair<cbs::sim::SimTime, std::uint64_t>> ec_finish_heap_;
  /// The heap's top was found live and no job has left the table since, so
  /// slack() need not look it up again: within a batch, commits only push.
  mutable bool heap_top_live_ = false;
  BandwidthView view_ = BandwidthView::kLearned;
};

}  // namespace cbs::core
