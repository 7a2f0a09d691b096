#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "simcore/rng.hpp"
#include "stats/distributions.hpp"
#include "workload/document.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::workload {

/// The three job-size samplings of §V.A: "The first bucket was biased
/// towards small jobs; the second one had a uniform distribution of job
/// sizes, while the last one was biased towards large jobs", all over
/// 1–300 MB production documents.
enum class SizeBucket : std::uint8_t { kSmallBiased, kUniform, kLargeBiased };

[[nodiscard]] std::string_view to_string(SizeBucket bucket) noexcept;

/// Generates synthetic production documents whose observable features are
/// correlated the way real print jobs are (bigger documents have more pages
/// and images; statements are text-heavy; personalization is image-heavy).
/// The output size is filled in from the ground-truth model.
class WorkloadGenerator {
 public:
  struct Config {
    SizeBucket bucket = SizeBucket::kUniform;
    double min_size_mb = 1.0;
    double max_size_mb = 300.0;
    /// Shape of the bounded-Pareto bias for the small/large buckets.
    double pareto_alpha = 1.1;
  };

  WorkloadGenerator(Config config, const GroundTruthModel& truth,
                    cbs::sim::RngStream rng);

  /// Generates the next document (ids are sequential starting at 1).
  [[nodiscard]] Document next();

  /// Generates a batch of `n` documents.
  [[nodiscard]] std::vector<Document> batch(std::size_t n);

  [[nodiscard]] const Config& config() const noexcept { return config_; }
  [[nodiscard]] std::uint64_t documents_generated() const noexcept { return next_id_ - 1; }

 private:
  Config config_;
  const GroundTruthModel& truth_;
  cbs::sim::RngStream rng_;
  /// The small and large buckets' size law, its constants computed once.
  cbs::stats::BoundedPareto pareto_;
  std::uint64_t next_id_ = 1;
};

}  // namespace cbs::workload
