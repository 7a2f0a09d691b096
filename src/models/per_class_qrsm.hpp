#pragma once

#include <array>
#include <cstddef>

#include "models/estimator.hpp"
#include "models/qrsm.hpp"
#include "workload/document.hpp"

namespace cbs::models {

/// Per-job-class response surfaces — the paper's §III.A.1 future work:
/// "Learning and tuning of the model depending on the job class". One QRSM
/// per JobType, with a pooled fallback model that covers classes that have
/// not yet accumulated enough observations of their own.
///
/// Rationale: a credit-card statement's runtime law (text-dominated) and an
/// image-personalization job's (raster-dominated) have different curvature;
/// one pooled quadratic surface averages them, inflating errors on both.
class PerClassQrsmEstimator final : public ProcessingTimeEstimator {
 public:
  struct Config {
    QrsmModel::Config model{};
    /// A class model is consulted only after it has at least this many of
    /// its own observations AND is fitted; otherwise the pooled model
    /// answers.
    std::size_t min_class_observations = 80;
  };

  PerClassQrsmEstimator() : PerClassQrsmEstimator(Config{}) {}
  explicit PerClassQrsmEstimator(Config config);

  [[nodiscard]] double estimate_seconds(
      const cbs::workload::Document& doc) const override;
  void observe(const cbs::workload::Document& doc,
               double actual_seconds) override;

  [[nodiscard]] std::unique_ptr<ProcessingTimeEstimator> clone()
      const override {
    return std::make_unique<PerClassQrsmEstimator>(*this);
  }

  /// Seeds the pooled model (and routes each example into its class model).
  void pretrain(const std::vector<cbs::workload::Document>& docs,
                const std::vector<double>& runtimes);

  [[nodiscard]] const QrsmModel& pooled() const noexcept { return pooled_; }
  /// True when predictions for `type` come from its dedicated surface.
  [[nodiscard]] bool class_active(cbs::workload::JobType type) const;

 private:
  [[nodiscard]] static std::size_t index_of(cbs::workload::JobType type) {
    return static_cast<std::size_t>(type);
  }

  Config config_;
  QrsmModel pooled_;
  std::array<QrsmModel, cbs::workload::kAllJobTypes.size()> per_class_;
  std::array<std::size_t, cbs::workload::kAllJobTypes.size()> class_counts_{};
};

}  // namespace cbs::models
