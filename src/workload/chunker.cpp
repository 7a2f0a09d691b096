#include "workload/chunker.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace cbs::workload {

PdfChunker::PdfChunker(Config config) : config_(config) {
  assert(config.target_size_mb > 0.0);
}

int PdfChunker::chunk_count_for(double size_mb) const {
  const int n = static_cast<int>(std::ceil(size_mb / config_.target_size_mb));
  return std::clamp(n, 1, kMaxChunks);
}

std::vector<Document> PdfChunker::chunk(const Document& doc,
                                        const GroundTruthModel& truth,
                                        std::uint64_t* next_id) const {
  assert(next_id != nullptr);
  const int n = chunk_count_for(doc.features.size_mb);
  std::vector<Document> chunks;
  chunks.reserve(static_cast<std::size_t>(n));

  if (n == 1) {
    Document copy = doc;
    copy.doc_id = (*next_id)++;
    copy.parent_id = doc.doc_id;
    copy.chunk_index = 0;
    copy.chunk_count = 1;
    chunks.push_back(copy);
    return chunks;
  }

  // Split pages as evenly as integer arithmetic allows; sizes follow pages.
  const int pages = std::max(doc.features.pages, n);
  const double share = 1.0 / static_cast<double>(n);
  int pages_assigned = 0;
  int images_assigned = 0;
  for (int c = 0; c < n; ++c) {
    Document chunk = doc;
    chunk.doc_id = (*next_id)++;
    chunk.parent_id = doc.doc_id;
    chunk.chunk_index = c;
    chunk.chunk_count = n;

    const bool last = (c == n - 1);
    const int chunk_pages =
        last ? pages - pages_assigned
             : static_cast<int>(std::lround(static_cast<double>(pages) * share));
    const int chunk_images =
        last ? doc.features.num_images - images_assigned
             : static_cast<int>(
                   std::lround(static_cast<double>(doc.features.num_images) * share));
    pages_assigned += chunk_pages;
    images_assigned += chunk_images;

    chunk.features.pages = std::max(chunk_pages, 1);
    chunk.features.num_images = std::max(chunk_images, 0);
    chunk.features.size_mb =
        doc.features.size_mb * share + kPerChunkOverheadMb;
    chunk.output_size_mb = truth.output_size_mb(chunk.features);
    chunks.push_back(chunk);
  }
  return chunks;
}

}  // namespace cbs::workload
