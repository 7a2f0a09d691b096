#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace cbs::workload {

/// The production job classes the paper's facility handles (§I, Domain
/// characteristics).
enum class JobType : std::uint8_t {
  kNewspaper,
  kBook,
  kMarketingMaterial,
  kMailCampaign,
  kCreditCardStatement,
  kImagePersonalization,
  kVariableDataPromo,
};

inline constexpr std::array<JobType, 7> kAllJobTypes = {
    JobType::kNewspaper,           JobType::kBook,
    JobType::kMarketingMaterial,   JobType::kMailCampaign,
    JobType::kCreditCardStatement, JobType::kImagePersonalization,
    JobType::kVariableDataPromo,
};

[[nodiscard]] std::string_view to_string(JobType type) noexcept;

/// Observable document features — the x_i dimensions the paper feeds the
/// quadratic response surface model (§III.A.1): "document size, number of
/// images, the size of the images, resolution, color and monochrome
/// elements, number of pages, ratio of text to pages, coverage, job type".
struct DocumentFeatures {
  double size_mb = 0.0;         ///< compressed input size
  int pages = 0;
  int num_images = 0;
  double avg_image_mb = 0.0;
  double resolution_dpi = 300.0;
  double color_fraction = 0.0;  ///< fraction of color (vs monochrome) elements
  double text_ratio = 0.0;      ///< text elements per page
  double coverage = 0.0;        ///< ink coverage, 0..1
  JobType type = JobType::kMarketingMaterial;
};

/// Input documents take ids in [1, kFirstChunkId). Id 0 would make a
/// document's chunks look like originals (parent_id == 0 below), and the
/// controller numbers chunks from kFirstChunkId up.
inline constexpr std::uint64_t kFirstChunkId = std::uint64_t{1} << 32;

/// One schedulable unit of work: the features plus identity/derivation info.
struct Document {
  std::uint64_t doc_id = 0;
  DocumentFeatures features;
  double output_size_mb = 0.0;  ///< size of the processed result
  /// When this document was produced by chunking a larger one: the parent
  /// id and this chunk's index; parent_id == 0 means an original document.
  std::uint64_t parent_id = 0;
  int chunk_index = 0;
  int chunk_count = 1;

  [[nodiscard]] double input_bytes() const noexcept {
    return features.size_mb * 1.0e6;
  }
  [[nodiscard]] double output_bytes() const noexcept {
    return output_size_mb * 1.0e6;
  }
  [[nodiscard]] bool is_chunk() const noexcept { return parent_id != 0; }
};

}  // namespace cbs::workload
