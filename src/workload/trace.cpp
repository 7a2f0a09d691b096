#include "workload/trace.hpp"

#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

namespace cbs::workload::trace {

namespace {

constexpr std::string_view kHeader =
    "batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,"
    "resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb";

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

/// One data row of a trace, parsed field by field. Every rejection names
/// the line and the column, so a hand-edited trace fails at the boundary
/// rather than deep inside the scheduler.
class Row {
 public:
  Row(std::size_t line_no, std::vector<std::string> fields)
      : line_no_(line_no), fields_(std::move(fields)) {}

  [[noreturn]] void fail(const std::string& what) const {
    std::string msg = "trace: line ";
    msg += std::to_string(line_no_);
    msg += ": ";
    msg += what;
    throw std::runtime_error(msg);
  }

  [[nodiscard]] std::size_t size() const noexcept { return fields_.size(); }
  [[nodiscard]] const std::string& text(std::size_t col) const {
    return fields_[col];
  }

  [[nodiscard]] JobType job_type(std::size_t col) const {
    for (JobType t : kAllJobTypes) {
      if (to_string(t) == fields_[col]) return t;
    }
    fail(describe("unknown job", col));
  }

  /// A finite double.
  [[nodiscard]] double real(std::size_t col) const {
    const std::string& s = fields_[col];
    std::size_t pos = 0;
    double v = 0.0;
    try {
      v = std::stod(s, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos == 0 || pos != s.size()) fail(describe("bad number", col));
    if (!std::isfinite(v)) fail(describe("non-finite", col));
    return v;
  }

  [[nodiscard]] double non_negative_real(std::size_t col) const {
    const double v = real(col);
    if (v < 0.0) fail(describe("negative", col));
    return v;
  }

  /// A non-negative integer that fits in `T`.
  template <typename T>
  [[nodiscard]] T count(std::size_t col) const {
    const std::string& s = fields_[col];
    std::size_t pos = 0;
    long long v = 0;
    try {
      v = std::stoll(s, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    if (pos == 0 || pos != s.size()) fail(describe("bad integer", col));
    if (v < 0) fail(describe("negative", col));
    if (static_cast<unsigned long long>(v) >
        static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
      fail(describe("out-of-range", col));
    }
    return static_cast<T>(v);
  }

 private:
  [[nodiscard]] std::string describe(const char* problem,
                                     std::size_t col) const {
    std::string what = problem;
    what += " ";
    what += column_name(col);
    what += " '";
    what += fields_[col];
    what += "'";
    return what;
  }

  static std::string column_name(std::size_t col) {
    static const std::vector<std::string> names =
        split_csv_line(std::string(kHeader));
    return names[col];
  }

  std::size_t line_no_;
  std::vector<std::string> fields_;
};

}  // namespace

std::size_t write(std::ostream& out, const std::vector<Batch>& batches) {
  // Enough digits that every double reads back bit-identical, so a saved
  // trace replays the run that produced it.
  const std::streamsize saved_precision =
      out.precision(std::numeric_limits<double>::max_digits10);
  out << kHeader << "\n";
  std::size_t rows = 0;
  for (const Batch& b : batches) {
    for (const Document& d : b.documents) {
      const DocumentFeatures& f = d.features;
      out << b.batch_index << ',' << b.arrival_time << ',' << d.doc_id << ','
          << to_string(f.type) << ',' << f.size_mb << ',' << f.pages << ','
          << f.num_images << ',' << f.avg_image_mb << ',' << f.resolution_dpi
          << ',' << f.color_fraction << ',' << f.text_ratio << ',' << f.coverage
          << ',' << d.output_size_mb << "\n";
      ++rows;
    }
  }
  out.precision(saved_precision);
  return rows;
}

std::size_t write_file(const std::string& path, const std::vector<Batch>& batches) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("trace: cannot open for write: " + path);
  const std::size_t rows = write(out, batches);
  if (!out) throw std::runtime_error("trace: write failed: " + path);
  return rows;
}

std::vector<Batch> read(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    throw std::runtime_error("trace: line 1: empty input");
  }
  if (line != kHeader) {
    throw std::runtime_error("trace: line 1: unexpected header");
  }

  // batch index -> batch, ordered.
  std::map<std::size_t, Batch> by_index;
  // doc id -> the line that gave it.
  std::unordered_map<std::uint64_t, std::size_t> id_line;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const Row row(line_no, split_csv_line(line));
    if (row.size() != 13) {
      row.fail("expected 13 fields, got " + std::to_string(row.size()));
    }
    const auto batch_index = row.count<std::size_t>(0);
    const double arrival_time = row.non_negative_real(1);
    Batch& batch = by_index[batch_index];
    if (!batch.documents.empty() && batch.arrival_time != arrival_time) {
      row.fail("arrival_time '" + row.text(1) +
               "' disagrees with earlier rows of batch " + row.text(0));
    }
    batch.batch_index = batch_index;
    batch.arrival_time = arrival_time;

    Document d;
    d.doc_id = row.count<std::uint64_t>(2);
    if (d.doc_id == 0 || d.doc_id >= kFirstChunkId) {
      row.fail("doc_id '" + row.text(2) + "' must be in [1, " +
               std::to_string(kFirstChunkId) + ")");
    }
    if (const auto [it, fresh] = id_line.emplace(d.doc_id, line_no); !fresh) {
      row.fail("doc_id '" + row.text(2) + "' repeats line " +
               std::to_string(it->second));
    }
    d.features.type = row.job_type(3);
    d.features.size_mb = row.non_negative_real(4);
    d.features.pages = row.count<int>(5);
    d.features.num_images = row.count<int>(6);
    d.features.avg_image_mb = row.non_negative_real(7);
    d.features.resolution_dpi = row.real(8);
    d.features.color_fraction = row.real(9);
    d.features.text_ratio = row.real(10);
    d.features.coverage = row.real(11);
    d.output_size_mb = row.non_negative_real(12);
    batch.documents.push_back(d);
  }

  std::vector<Batch> batches;
  batches.reserve(by_index.size());
  for (auto& [idx, batch] : by_index) batches.push_back(std::move(batch));
  return batches;
}

std::vector<Batch> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open for read: " + path);
  return read(in);
}

std::vector<Batch> round_trip(const std::vector<Batch>& batches) {
  std::stringstream ss;
  write(ss, batches);
  return read(ss);
}

}  // namespace cbs::workload::trace
