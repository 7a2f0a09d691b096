#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "workload/arrival.hpp"
#include "workload/document.hpp"

namespace cbs::workload {

/// CSV persistence for generated workloads, so a scenario can be generated
/// once, inspected, edited by hand and replayed exactly.
///
/// Format (header line + one row per document):
///   batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,
///   resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb
namespace trace {

/// Writes batches to a stream with max_digits10 precision (restored after),
/// so reading the rows back yields bit-identical doubles. Returns the
/// number of document rows written.
std::size_t write(std::ostream& out, const std::vector<Batch>& batches);

/// Writes batches to a file. Throws std::runtime_error on I/O failure.
std::size_t write_file(const std::string& path, const std::vector<Batch>& batches);

/// Parses batches from a stream. Throws std::runtime_error, starting
/// "trace: line N: ", on malformed input: an empty input or a wrong header
/// (line 1), a wrong column count, a non-numeric, nan or
/// infinite field, an unknown job type, a negative size, page count, image
/// count or batch, a doc id outside [1, kFirstChunkId) or one given twice,
/// or rows of one batch that disagree on arrival_time.
[[nodiscard]] std::vector<Batch> read(std::istream& in);

/// Parses batches from a file. Throws std::runtime_error on I/O failure.
[[nodiscard]] std::vector<Batch> read_file(const std::string& path);

/// Round-trip helper used by tests: batches -> csv -> batches.
[[nodiscard]] std::vector<Batch> round_trip(const std::vector<Batch>& batches);

}  // namespace trace

}  // namespace cbs::workload
