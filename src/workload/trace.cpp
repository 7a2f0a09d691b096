#include "workload/trace.hpp"

#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>

namespace cbs::workload::trace {

namespace {

constexpr std::string_view kHeader =
    "batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,"
    "resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb";

JobType job_type_from(const std::string& name) {
  for (JobType t : kAllJobTypes) {
    if (to_string(t) == name) return t;
  }
  throw std::runtime_error("trace: unknown job type '" + name + "'");
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream ss(line);
  while (std::getline(ss, field, ',')) fields.push_back(field);
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

double to_double(const std::string& s) {
  std::size_t pos = 0;
  const double v = std::stod(s, &pos);
  if (pos != s.size()) throw std::runtime_error("trace: bad number '" + s + "'");
  return v;
}

int to_int(const std::string& s) {
  std::size_t pos = 0;
  const int v = std::stoi(s, &pos);
  if (pos != s.size()) throw std::runtime_error("trace: bad integer '" + s + "'");
  return v;
}

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
  if (!std::getline(in, line)) throw std::runtime_error("trace: empty input");
  if (line != kHeader) throw std::runtime_error("trace: unexpected header");

  // batch index -> batch, ordered.
  std::map<std::size_t, Batch> by_index;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = split_csv_line(line);
    if (fields.size() != 13) {
      throw std::runtime_error("trace: line " + std::to_string(line_no) +
                               ": expected 13 fields, got " +
                               std::to_string(fields.size()));
    }
    const auto batch_index = static_cast<std::size_t>(to_int(fields[0]));
    Batch& batch = by_index[batch_index];
    batch.batch_index = batch_index;
    batch.arrival_time = to_double(fields[1]);

    Document d;
    d.doc_id = static_cast<std::uint64_t>(to_int(fields[2]));
    d.features.type = job_type_from(fields[3]);
    d.features.size_mb = to_double(fields[4]);
    d.features.pages = to_int(fields[5]);
    d.features.num_images = to_int(fields[6]);
    d.features.avg_image_mb = to_double(fields[7]);
    d.features.resolution_dpi = to_double(fields[8]);
    d.features.color_fraction = to_double(fields[9]);
    d.features.text_ratio = to_double(fields[10]);
    d.features.coverage = to_double(fields[11]);
    d.output_size_mb = to_double(fields[12]);
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
