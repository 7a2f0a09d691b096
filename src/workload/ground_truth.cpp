#include "workload/ground_truth.hpp"

#include <cassert>
#include <cmath>

#include "stats/distributions.hpp"

namespace cbs::workload {

GroundTruthModel::GroundTruthModel(Config config, cbs::sim::RngStream rng)
    : config_(config), rng_(rng) {
  assert(config.noise_sigma >= 0.0);
  noise_seed_ = rng_.next();
}

double GroundTruthModel::type_cost_multiplier(JobType type) noexcept {
  // Class-specific pipeline stages (imposition, OCR, personalization merge)
  // that the numeric features do not capture; chosen to average ~1 over the
  // generator's class mix.
  switch (type) {
    case JobType::kNewspaper: return 0.95;
    case JobType::kBook: return 0.90;
    case JobType::kMarketingMaterial: return 1.10;
    case JobType::kMailCampaign: return 1.00;
    case JobType::kCreditCardStatement: return 0.80;
    case JobType::kImagePersonalization: return 1.30;
    case JobType::kVariableDataPromo: return 1.05;
  }
  return 1.0;
}

double GroundTruthModel::expected_seconds(const DocumentFeatures& f) const {
  const double res_norm = f.resolution_dpi / 600.0;  // 600 dpi reference
  double t = kBaseSeconds;
  t += kPerMb * f.size_mb;
  t += kResolutionColor * f.size_mb * res_norm * f.color_fraction;
  t += kPerImageMb * static_cast<double>(f.num_images) * f.avg_image_mb;
  t += kCoverageSqPages * f.coverage * f.coverage *
       static_cast<double>(f.pages);
  t += kTextPages * f.text_ratio * static_cast<double>(f.pages);
  return t * type_cost_multiplier(f.type);
}

double GroundTruthModel::sample_seconds(const DocumentFeatures& f) {
  const double expected = expected_seconds(f);
  if (config_.noise_sigma == 0.0) return expected;
  // Lognormal with mean 1: mu = -sigma^2/2 keeps E[noise] = 1 so the QRSM
  // target stays unbiased.
  const double s = config_.noise_sigma;
  const double noise = cbs::stats::sample_lognormal(rng_, -0.5 * s * s, s);
  return expected * noise;
}

double GroundTruthModel::realized_seconds(const Document& doc) const {
  const double expected = expected_seconds(doc.features);
  if (config_.noise_sigma == 0.0) return expected;
  // Identity-keyed noise: chunks key off (parent, index) so the same chunk
  // costs the same no matter which scheduler produced it or when.
  std::uint64_t identity = doc.doc_id;
  if (doc.is_chunk()) {
    identity = doc.parent_id * std::uint64_t{131} +
               static_cast<std::uint64_t>(doc.chunk_index) + std::uint64_t{1};
  }
  cbs::sim::RngStream stream(noise_seed_ ^ (identity * 0x9e3779b97f4a7c15ULL));
  const double s = config_.noise_sigma;
  const double noise = cbs::stats::sample_lognormal(stream, -0.5 * s * s, s);
  return expected * noise;
}

}  // namespace cbs::workload
