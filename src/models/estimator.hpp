#pragma once

#include <memory>
#include <utility>

#include "models/qrsm.hpp"
#include "workload/document.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::models {

/// The interface schedulers use to estimate a document's processing time on
/// a standard machine (the paper's t^e(i)). Implementations differ in how
/// much they know — the gap between them is itself an experiment axis.
class ProcessingTimeEstimator {
 public:
  virtual ~ProcessingTimeEstimator() = default;

  /// Estimated standard-machine processing seconds for this document.
  [[nodiscard]] virtual double estimate_seconds(
      const cbs::workload::Document& doc) const = 0;

  /// Feedback after a job actually ran (learning estimators adapt; others
  /// ignore it).
  virtual void observe(const cbs::workload::Document& doc, double actual_seconds) {
    (void)doc;
    (void)actual_seconds;
  }

  /// Fork support: deep-copies the estimator, learned state included.
  [[nodiscard]] virtual std::unique_ptr<ProcessingTimeEstimator> clone()
      const = 0;
};

/// Production estimator: wraps the QRSM and learns online.
class QrsmEstimator final : public ProcessingTimeEstimator {
 public:
  explicit QrsmEstimator(QrsmModel::Config config = {});

  [[nodiscard]] double estimate_seconds(
      const cbs::workload::Document& doc) const override;
  void observe(const cbs::workload::Document& doc, double actual_seconds) override;

  [[nodiscard]] std::unique_ptr<ProcessingTimeEstimator> clone()
      const override {
    return std::make_unique<QrsmEstimator>(*this);
  }

  [[nodiscard]] QrsmModel& model() noexcept { return model_; }
  [[nodiscard]] const QrsmModel& model() const noexcept { return model_; }

 private:
  QrsmModel model_;
};

/// Oracle estimator: returns the ground truth's noise-free expectation.
/// Used by tests (slack invariants under perfect information) and by the
/// estimation-error ablation bench. It keeps its own copy of the law:
/// expected_seconds() reads only the law's config, so the copy answers as
/// the original would, and a clone needs nothing from its world.
class OracleEstimator final : public ProcessingTimeEstimator {
 public:
  explicit OracleEstimator(cbs::workload::GroundTruthModel truth)
      : truth_(std::move(truth)) {}

  [[nodiscard]] double estimate_seconds(
      const cbs::workload::Document& doc) const override {
    return truth_.expected_seconds(doc.features);
  }

  [[nodiscard]] std::unique_ptr<ProcessingTimeEstimator> clone()
      const override {
    return std::make_unique<OracleEstimator>(*this);
  }

 private:
  cbs::workload::GroundTruthModel truth_;
};

}  // namespace cbs::models
