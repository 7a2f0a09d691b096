#include "models/feature_vector.hpp"

#include <cassert>

namespace cbs::models {

const std::array<std::string_view, kNumRawFeatures>& feature_names() {
  static const std::array<std::string_view, kNumRawFeatures> names = {
      "size_mb",        "pages",      "num_images", "avg_image_mb",
      "resolution_dpi", "color_frac", "text_ratio", "coverage",
  };
  return names;
}

std::array<double, kNumRawFeatures> extract_raw(
    const cbs::workload::DocumentFeatures& f) {
  return {
      f.size_mb,
      static_cast<double>(f.pages),
      static_cast<double>(f.num_images),
      f.avg_image_mb,
      f.resolution_dpi,
      f.color_fraction,
      f.text_ratio,
      f.coverage,
  };
}

QuadraticRow quadratic_expand(const std::array<double, kNumRawFeatures>& x) {
  QuadraticRow row{};
  std::size_t k = 0;
  row[k++] = 1.0;
  for (double xi : x) row[k++] = xi;
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    for (std::size_t j = i + 1; j < kNumRawFeatures; ++j) {
      row[k++] = x[i] * x[j];
    }
  }
  for (double xi : x) row[k++] = xi * xi;
  assert(k == kQuadraticDim);
  return row;
}

std::array<double, kNumRawFeatures> FeatureScaler::apply(
    const std::array<double, kNumRawFeatures>& x) const {
  std::array<double, kNumRawFeatures> z{};
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    z[i] = (x[i] - mean[i]) / scale[i];
  }
  return z;
}

}  // namespace cbs::models
