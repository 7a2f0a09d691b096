#pragma once

#include <memory>

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

  /// Fork support: deep-copies the estimator's learned state. `truth` is
  /// the fork's ground-truth model, used only by truth-referencing
  /// estimators (OracleEstimator) to rebind their reference. Returns
  /// nullptr when the concrete type does not support forking (ad-hoc test
  /// estimators keep the default).
  [[nodiscard]] virtual std::unique_ptr<ProcessingTimeEstimator> clone(
      const cbs::workload::GroundTruthModel& truth) const {
    (void)truth;
    return nullptr;
  }
};

/// Production estimator: wraps the QRSM and learns online.
class QrsmEstimator final : public ProcessingTimeEstimator {
 public:
  explicit QrsmEstimator(QrsmModel::Config config = {});

  [[nodiscard]] double estimate_seconds(
      const cbs::workload::Document& doc) const override;
  void observe(const cbs::workload::Document& doc, double actual_seconds) override;

  [[nodiscard]] std::unique_ptr<ProcessingTimeEstimator> clone(
      const cbs::workload::GroundTruthModel& truth) const override {
    (void)truth;
    return std::make_unique<QrsmEstimator>(*this);
  }

  [[nodiscard]] QrsmModel& model() noexcept { return model_; }
  [[nodiscard]] const QrsmModel& model() const noexcept { return model_; }

 private:
  QrsmModel model_;
};

/// Oracle estimator: returns the ground truth's noise-free expectation.
/// Used by tests (slack invariants under perfect information) and by the
/// estimation-error ablation bench.
class OracleEstimator final : public ProcessingTimeEstimator {
 public:
  explicit OracleEstimator(const cbs::workload::GroundTruthModel& truth)
      : truth_(truth) {}

  [[nodiscard]] double estimate_seconds(
      const cbs::workload::Document& doc) const override {
    return truth_.expected_seconds(doc.features);
  }

  [[nodiscard]] std::unique_ptr<ProcessingTimeEstimator> clone(
      const cbs::workload::GroundTruthModel& truth) const override {
    return std::make_unique<OracleEstimator>(truth);
  }

 private:
  const cbs::workload::GroundTruthModel& truth_;
};

}  // namespace cbs::models
