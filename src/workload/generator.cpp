#include "workload/generator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>

#include "stats/distributions.hpp"

namespace cbs::workload {

using cbs::stats::sample_bounded_pareto;
using cbs::stats::sample_discrete;
using cbs::stats::sample_triangular;

std::string_view to_string(SizeBucket bucket) noexcept {
  switch (bucket) {
    case SizeBucket::kSmallBiased: return "small";
    case SizeBucket::kUniform: return "uniform";
    case SizeBucket::kLargeBiased: return "large";
  }
  return "?";
}

WorkloadGenerator::WorkloadGenerator(Config config, const GroundTruthModel& truth,
                                     cbs::sim::RngStream rng)
    : config_(config), truth_(truth), rng_(rng) {
  assert(config.min_size_mb > 0.0 && config.max_size_mb > config.min_size_mb);
  assert(config.pareto_alpha > 0.0);
}

double WorkloadGenerator::sample_size_mb() {
  const double lo = config_.min_size_mb;
  const double hi = config_.max_size_mb;
  switch (config_.bucket) {
    case SizeBucket::kSmallBiased:
      return sample_bounded_pareto(rng_, config_.pareto_alpha, lo, hi);
    case SizeBucket::kUniform:
      return rng_.uniform(lo, hi);
    case SizeBucket::kLargeBiased:
      // Mirror image of the small-biased law: mass piles up near hi.
      return lo + hi - sample_bounded_pareto(rng_, config_.pareto_alpha, lo, hi);
  }
  return lo;
}

DocumentFeatures WorkloadGenerator::features_for_size(double size_mb) {
  DocumentFeatures f;
  f.size_mb = size_mb;

  // Job-type mix of a production print shop; bigger documents skew toward
  // raster-heavy classes.
  using Weights = std::array<double, kAllJobTypes.size()>;
  static constexpr Weights kLargeWeights{3.0, 2.0, 2.0, 1.0, 0.2, 2.5, 2.0};
  static constexpr Weights kSmallWeights{1.0, 1.0, 2.0, 2.5, 3.0, 1.0, 1.5};
  f.type = kAllJobTypes[sample_discrete(
      rng_, size_mb > 100.0 ? kLargeWeights : kSmallWeights)];

  // Per-class profiles; the size-correlated draws keep features physically
  // consistent (you cannot have a 300 MB statement with 3 pages).
  switch (f.type) {
    case JobType::kNewspaper:
      f.pages = static_cast<int>(std::lround(size_mb * rng_.uniform(0.8, 1.5)));
      f.num_images = static_cast<int>(std::lround(size_mb * rng_.uniform(0.3, 0.8)));
      f.avg_image_mb = rng_.uniform(0.4, 1.2);
      f.resolution_dpi = sample_triangular(rng_, 150.0, 300.0, 600.0);
      f.color_fraction = rng_.uniform(0.2, 0.6);
      f.text_ratio = rng_.uniform(6.0, 14.0);
      f.coverage = rng_.uniform(0.5, 0.9);
      break;
    case JobType::kBook:
      f.pages = static_cast<int>(std::lround(size_mb * rng_.uniform(2.0, 5.0)));
      f.num_images = static_cast<int>(std::lround(size_mb * rng_.uniform(0.05, 0.3)));
      f.avg_image_mb = rng_.uniform(0.2, 0.8);
      f.resolution_dpi = sample_triangular(rng_, 300.0, 600.0, 1200.0);
      f.color_fraction = rng_.uniform(0.0, 0.3);
      f.text_ratio = rng_.uniform(10.0, 20.0);
      f.coverage = rng_.uniform(0.3, 0.6);
      break;
    case JobType::kMarketingMaterial:
      f.pages = static_cast<int>(std::lround(size_mb * rng_.uniform(0.2, 0.8)));
      f.num_images = static_cast<int>(std::lround(size_mb * rng_.uniform(0.5, 1.2)));
      f.avg_image_mb = rng_.uniform(0.8, 2.5);
      f.resolution_dpi = sample_triangular(rng_, 300.0, 600.0, 1200.0);
      f.color_fraction = rng_.uniform(0.6, 1.0);
      f.text_ratio = rng_.uniform(1.0, 5.0);
      f.coverage = rng_.uniform(0.7, 1.0);
      break;
    case JobType::kMailCampaign:
      f.pages = static_cast<int>(std::lround(size_mb * rng_.uniform(1.0, 3.0)));
      f.num_images = static_cast<int>(std::lround(size_mb * rng_.uniform(0.2, 0.6)));
      f.avg_image_mb = rng_.uniform(0.3, 1.0);
      f.resolution_dpi = sample_triangular(rng_, 150.0, 300.0, 600.0);
      f.color_fraction = rng_.uniform(0.3, 0.8);
      f.text_ratio = rng_.uniform(4.0, 10.0);
      f.coverage = rng_.uniform(0.4, 0.8);
      break;
    case JobType::kCreditCardStatement:
      f.pages = static_cast<int>(std::lround(size_mb * rng_.uniform(4.0, 8.0)));
      f.num_images = static_cast<int>(std::lround(size_mb * rng_.uniform(0.0, 0.1)));
      f.avg_image_mb = rng_.uniform(0.05, 0.2);
      f.resolution_dpi = 300.0;
      f.color_fraction = rng_.uniform(0.0, 0.2);
      f.text_ratio = rng_.uniform(15.0, 25.0);
      f.coverage = rng_.uniform(0.15, 0.35);
      break;
    case JobType::kImagePersonalization:
      f.pages = static_cast<int>(std::lround(size_mb * rng_.uniform(0.1, 0.4)));
      f.num_images = static_cast<int>(std::lround(size_mb * rng_.uniform(0.8, 1.6)));
      f.avg_image_mb = rng_.uniform(1.5, 4.0);
      f.resolution_dpi = sample_triangular(rng_, 600.0, 1200.0, 1200.0);
      f.color_fraction = rng_.uniform(0.8, 1.0);
      f.text_ratio = rng_.uniform(0.5, 3.0);
      f.coverage = rng_.uniform(0.8, 1.0);
      break;
    case JobType::kVariableDataPromo:
      f.pages = static_cast<int>(std::lround(size_mb * rng_.uniform(0.5, 1.5)));
      f.num_images = static_cast<int>(std::lround(size_mb * rng_.uniform(0.4, 1.0)));
      f.avg_image_mb = rng_.uniform(0.5, 1.5);
      f.resolution_dpi = sample_triangular(rng_, 300.0, 600.0, 1200.0);
      f.color_fraction = rng_.uniform(0.5, 0.9);
      f.text_ratio = rng_.uniform(3.0, 8.0);
      f.coverage = rng_.uniform(0.5, 0.9);
      break;
  }
  f.pages = std::max(f.pages, 1);
  f.num_images = std::max(f.num_images, 0);
  return f;
}

Document WorkloadGenerator::next() {
  Document doc;
  doc.doc_id = next_id_++;
  doc.features = features_for_size(sample_size_mb());
  doc.output_size_mb = truth_.output_size_mb(doc.features);
  return doc;
}

std::vector<Document> WorkloadGenerator::batch(std::size_t n) {
  std::vector<Document> docs;
  docs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) docs.push_back(next());
  return docs;
}

}  // namespace cbs::workload
