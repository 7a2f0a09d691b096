#include "models/per_class_qrsm.hpp"

#include <cassert>

namespace cbs::models {

PerClassQrsmEstimator::PerClassQrsmEstimator(Config config)
    : config_(config), pooled_(config.model) {
  per_class_.fill(QrsmModel(config.model));
}

double PerClassQrsmEstimator::estimate_seconds(
    const cbs::workload::Document& doc) const {
  const std::size_t idx = index_of(doc.features.type);
  if (class_counts_[idx] >= config_.min_class_observations &&
      per_class_[idx].is_fitted()) {
    return per_class_[idx].predict(doc.features);
  }
  return pooled_.predict(doc.features);
}

void PerClassQrsmEstimator::observe(const cbs::workload::Document& doc,
                                    double actual_seconds) {
  pooled_.observe(doc.features, actual_seconds);
  const std::size_t idx = index_of(doc.features.type);
  per_class_[idx].observe(doc.features, actual_seconds);
  ++class_counts_[idx];
}

void PerClassQrsmEstimator::pretrain(
    const std::vector<cbs::workload::Document>& docs,
    const std::vector<double>& runtimes) {
  assert(docs.size() == runtimes.size());
  for (std::size_t i = 0; i < docs.size(); ++i) {
    observe(docs[i], runtimes[i]);
  }
  pooled_.refit();
  for (auto& m : per_class_) m.refit();
}

bool PerClassQrsmEstimator::class_active(cbs::workload::JobType type) const {
  const std::size_t idx = index_of(type);
  return class_counts_[idx] >= config_.min_class_observations &&
         per_class_[idx].is_fitted();
}

}  // namespace cbs::models
