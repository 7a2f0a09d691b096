#include "workload/generator.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>

#include "stats/distributions.hpp"

namespace cbs::workload {

using cbs::stats::BoundedPareto;
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
    : config_(config),
      truth_(truth),
      rng_(rng),
      pareto_(config.pareto_alpha, config.min_size_mb, config.max_size_mb) {}

namespace {

/// The range of a uniform draw.
struct Range {
  double lo;
  double hi;
};

/// One job class's feature profile. Every class draws the same features in
/// the same order; pages and images scale with size, so the features stay
/// physically consistent (you cannot have a 300 MB statement with 3 pages).
struct ClassProfile {
  Range pages_per_mb;
  Range images_per_mb;
  Range avg_image_mb;
  /// Triangular resolution law; dpi_lo == dpi_hi is a fixed resolution,
  /// taken without a draw.
  double dpi_lo;
  double dpi_mode;
  double dpi_hi;
  Range color_fraction;
  Range text_ratio;
  Range coverage;
};

/// Per-class profiles, in kAllJobTypes order. Columns: pages/MB,
/// images/MB, image MB, dpi (lo, mode, hi), color, text ratio, coverage.
// clang-format off
constexpr std::array<ClassProfile, kAllJobTypes.size()> kProfiles{{
    // newspaper
    {{0.8, 1.5}, {0.3, 0.8}, {0.4, 1.2}, 150.0, 300.0, 600.0,
     {0.2, 0.6}, {6.0, 14.0}, {0.5, 0.9}},
    // book
    {{2.0, 5.0}, {0.05, 0.3}, {0.2, 0.8}, 300.0, 600.0, 1200.0,
     {0.0, 0.3}, {10.0, 20.0}, {0.3, 0.6}},
    // marketing material
    {{0.2, 0.8}, {0.5, 1.2}, {0.8, 2.5}, 300.0, 600.0, 1200.0,
     {0.6, 1.0}, {1.0, 5.0}, {0.7, 1.0}},
    // mail campaign
    {{1.0, 3.0}, {0.2, 0.6}, {0.3, 1.0}, 150.0, 300.0, 600.0,
     {0.3, 0.8}, {4.0, 10.0}, {0.4, 0.8}},
    // credit-card statement: a fixed 300 dpi
    {{4.0, 8.0}, {0.0, 0.1}, {0.05, 0.2}, 300.0, 300.0, 300.0,
     {0.0, 0.2}, {15.0, 25.0}, {0.15, 0.35}},
    // image personalization
    {{0.1, 0.4}, {0.8, 1.6}, {1.5, 4.0}, 600.0, 1200.0, 1200.0,
     {0.8, 1.0}, {0.5, 3.0}, {0.8, 1.0}},
    // variable-data promo
    {{0.5, 1.5}, {0.4, 1.0}, {0.5, 1.5}, 300.0, 600.0, 1200.0,
     {0.5, 0.9}, {3.0, 8.0}, {0.5, 0.9}},
}};
// clang-format on

/// std::lround(x) for 0 <= x < 2^31, without the library call: x - trunc(x)
/// is exact there, so a half rounds up exactly as lround rounds it.
int round_non_negative(double x) {
  assert(x >= 0.0 && x < 2147483648.0);
  const int t = static_cast<int>(x);
  return x - static_cast<double>(t) >= 0.5 ? t + 1 : t;
}

/// A document's features given its size: the job class first, then the
/// class profile's draws in a fixed order.
DocumentFeatures features_for_size(cbs::sim::RngStream& rng, double size_mb) {
  DocumentFeatures f;
  f.size_mb = size_mb;

  // Job-type mix of a production print shop; bigger documents skew toward
  // raster-heavy classes. One call per table, so each sum folds to a
  // constant.
  using Weights = std::array<double, kAllJobTypes.size()>;
  static constexpr Weights kLargeWeights{3.0, 2.0, 2.0, 1.0, 0.2, 2.5, 2.0};
  static constexpr Weights kSmallWeights{1.0, 1.0, 2.0, 2.5, 3.0, 1.0, 1.5};
  const std::size_t cls = size_mb > 100.0
                              ? sample_discrete(rng, kLargeWeights)
                              : sample_discrete(rng, kSmallWeights);
  f.type = kAllJobTypes[cls];

  const ClassProfile& p = kProfiles[cls];
  const auto draw = [&rng](Range r) { return rng.uniform(r.lo, r.hi); };
  f.pages = round_non_negative(size_mb * draw(p.pages_per_mb));
  f.num_images = round_non_negative(size_mb * draw(p.images_per_mb));
  f.avg_image_mb = draw(p.avg_image_mb);
  f.resolution_dpi =
      p.dpi_lo == p.dpi_hi
          ? p.dpi_lo
          : sample_triangular(rng, p.dpi_lo, p.dpi_mode, p.dpi_hi);
  f.color_fraction = draw(p.color_fraction);
  f.text_ratio = draw(p.text_ratio);
  f.coverage = draw(p.coverage);
  f.pages = std::max(f.pages, 1);
  f.num_images = std::max(f.num_images, 0);
  return f;
}

/// A document size from the configured bucket's law; `pareto` is the
/// config's bounded Pareto.
double sample_size_mb(const WorkloadGenerator::Config& config,
                      const BoundedPareto& pareto, cbs::sim::RngStream& rng) {
  const double lo = config.min_size_mb;
  const double hi = config.max_size_mb;
  switch (config.bucket) {
    case SizeBucket::kSmallBiased:
      return pareto(rng);
    case SizeBucket::kUniform:
      return rng.uniform(lo, hi);
    case SizeBucket::kLargeBiased:
      // Mirror image of the small-biased law: mass piles up near hi.
      return lo + hi - pareto(rng);
  }
  return lo;
}

/// Document `id`: its size, then its features, then its output size.
/// Declared inline so that batch()'s loop expands it and makes no call.
inline Document draw_document(const WorkloadGenerator::Config& config,
                              const BoundedPareto& pareto,
                              const GroundTruthModel& truth,
                              cbs::sim::RngStream& rng, std::uint64_t id) {
  Document doc;
  doc.doc_id = id;
  doc.features = features_for_size(rng, sample_size_mb(config, pareto, rng));
  doc.output_size_mb = truth.output_size_mb(doc.features);
  return doc;
}

}  // namespace

Document WorkloadGenerator::next() {
  return draw_document(config_, pareto_, truth_, rng_, next_id_++);
}

std::vector<Document> WorkloadGenerator::batch(std::size_t n) {
  std::vector<Document> docs;
  docs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    docs.push_back(draw_document(config_, pareto_, truth_, rng_, next_id_++));
  }
  return docs;
}

}  // namespace cbs::workload
