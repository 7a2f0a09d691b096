#pragma once

#include <cstdint>
#include <vector>

#include "workload/document.hpp"
#include "workload/ground_truth.hpp"

namespace cbs::workload {

/// `pdfchunk` of Algorithm 2: splits an oversized document into page-range
/// chunks of roughly `target_size_mb` each, at most kMaxChunks. Chunk
/// features are scaled proportionally (pages, images, size) while
/// per-document properties (resolution, color fraction, coverage, type) are
/// inherited, so chunk processing estimates remain consistent with the
/// parent's.
class PdfChunker {
 public:
  struct Config {
    double target_size_mb = 110.0;
  };

  /// Fixed per-chunk size overhead (duplicated resources: fonts, color
  /// profiles) — chunking is not free.
  static constexpr double kPerChunkOverheadMb = 0.5;
  static constexpr int kMaxChunks = 64;

  explicit PdfChunker(Config config);

  /// Number of chunks `chunk()` would produce for a document of this size.
  [[nodiscard]] int chunk_count_for(double size_mb) const;

  /// Splits `doc` into chunks with fresh ids starting at `*next_id` (which
  /// is advanced). A document at or below the target size is returned as a
  /// single-element vector containing the (re-identified) document itself.
  [[nodiscard]] std::vector<Document> chunk(const Document& doc,
                                            const GroundTruthModel& truth,
                                            std::uint64_t* next_id) const;

 private:
  Config config_;
};

}  // namespace cbs::workload
