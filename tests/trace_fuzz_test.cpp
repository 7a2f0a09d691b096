// Seeded mutation fuzzing of the trace reader (workload/trace.hpp): a
// valid trace is flipped, cut, duplicated and spliced at the byte, field
// and line level, and every mutant must either parse — and then survive a
// write/read round trip unchanged — or be rejected with a
// std::runtime_error naming the line ("trace: line N: ..."). No other
// exception type, no crash. The iteration count and seed are fixed, so the
// run is deterministic and fits the sanitizer job.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "simcore/rng.hpp"
#include "workload/arrival.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"
#include "workload/trace.hpp"

namespace {

using cbs::sim::RngStream;
using cbs::workload::Batch;
namespace trace = cbs::workload::trace;

constexpr int kIterations = 4000;
constexpr std::uint64_t kSeed = 20101;

std::string valid_trace() {
  cbs::workload::GroundTruthModel truth({}, RngStream(3));
  cbs::workload::WorkloadGenerator gen({}, truth, RngStream(4));
  cbs::workload::BatchArrivalProcess arrivals(
      {.mean_jobs_per_batch = 3.0, .num_batches = 3}, gen, RngStream(5));
  std::ostringstream out;
  trace::write(out, arrivals.generate_all());
  return out.str();
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::string part;
  for (const char c : text) {
    if (c == sep) {
      parts.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  parts.push_back(part);
  return parts;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string text;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) text += sep;
    text += parts[i];
  }
  return text;
}

/// Field values that sit on the reader's edges: empty, signs, non-finite,
/// out of range, hex, whitespace, other job types.
const std::vector<std::string>& edge_fields() {
  static const std::vector<std::string> kFields = {
      "", "-", "+", "0", "-0", "+7", "-1", "1e999", "-1e999", "1e-320",
      "nan", "inf", "0x1p3", " 4", "4 ", "9223372036854775807",
      "9223372036854775808", "-9223372036854775809", "2147483648",
      "18446744073709551616", "1.5", ".", "e5", "book", "frisbee", "\r",
      std::string(1, '\0')};
  return kFields;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  std::string mutate(std::string text) {
    const std::uint64_t rounds = rng_.uniform_int(1, 4);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      switch (rng_.uniform_int(0, 7)) {
        case 0: text = flip_byte(text); break;
        case 1: text = drop_bytes(text); break;
        case 2: text = duplicate_bytes(text); break;
        case 3: text = splice_bytes(text); break;
        case 4: text = replace_field(text); break;
        case 5: text = drop_or_duplicate_field(text); break;
        case 6: text = shuffle_lines(text); break;
        default: text = splice_fields(text); break;
      }
    }
    return text;
  }

 private:
  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
  }

  std::string flip_byte(std::string text) {
    if (text.empty()) return text;
    text[pick(text.size())] ^= static_cast<char>(1U << pick(8));
    return text;
  }

  std::string drop_bytes(std::string text) {
    if (text.empty()) return text;
    const std::size_t at = pick(text.size());
    text.erase(at, 1 + pick(8));
    return text;
  }

  std::string duplicate_bytes(std::string text) {
    if (text.empty()) return text;
    const std::size_t at = pick(text.size());
    text.insert(at, text.substr(at, 1 + pick(16)));
    return text;
  }

  std::string splice_bytes(std::string text) {
    if (text.empty()) return text;
    const std::string piece = text.substr(pick(text.size()), 1 + pick(40));
    text.insert(pick(text.size() + 1), piece);
    return text;
  }

  /// A (line, field) of the data rows; the header is line 0.
  std::string replace_field(const std::string& text) {
    std::vector<std::string> lines = split(text, '\n');
    if (lines.size() < 2) return text;
    std::string& line = lines[1 + pick(lines.size() - 1)];
    std::vector<std::string> fields = split(line, ',');
    fields[pick(fields.size())] = edge_fields()[pick(edge_fields().size())];
    line = join(fields, ',');
    return join(lines, '\n');
  }

  std::string drop_or_duplicate_field(const std::string& text) {
    std::vector<std::string> lines = split(text, '\n');
    if (lines.size() < 2) return text;
    std::string& line = lines[1 + pick(lines.size() - 1)];
    std::vector<std::string> fields = split(line, ',');
    const std::size_t at = pick(fields.size());
    if (rng_.uniform_int(0, 1) == 0) {
      fields.erase(fields.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      const std::string copy = fields[at];
      fields.insert(fields.begin() + static_cast<std::ptrdiff_t>(at), copy);
    }
    line = join(fields, ',');
    return join(lines, '\n');
  }

  std::string shuffle_lines(const std::string& text) {
    std::vector<std::string> lines = split(text, '\n');
    const std::size_t a = pick(lines.size());
    const std::size_t b = pick(lines.size());
    const auto at = lines.begin() + static_cast<std::ptrdiff_t>(a);
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        std::swap(lines[a], lines[b]);
        break;
      case 1: {
        const std::string copy = lines[b];
        lines.insert(at, copy);
        break;
      }
      default:
        lines.erase(at);
        break;
    }
    return join(lines, '\n');
  }

  /// Copies one field of one row into another row's position.
  std::string splice_fields(const std::string& text) {
    std::vector<std::string> lines = split(text, '\n');
    const std::vector<std::string> donor =
        split(lines[pick(lines.size())], ',');
    std::string& line = lines[pick(lines.size())];
    std::vector<std::string> fields = split(line, ',');
    fields[pick(fields.size())] = donor[pick(donor.size())];
    line = join(fields, ',');
    return join(lines, '\n');
  }

  RngStream rng_;
};

/// True when `what` reads "trace: line N: <reason>" with N >= 1.
bool names_a_line(const std::string& what) {
  const std::string prefix = "trace: line ";
  if (what.rfind(prefix, 0) != 0) return false;
  std::size_t i = prefix.size();
  const std::size_t digits_from = i;
  while (i < what.size() &&
         std::isdigit(static_cast<unsigned char>(what[i])) != 0) {
    ++i;
  }
  if (i == digits_from || what[digits_from] == '0') return false;
  return what.compare(i, 2, ": ") == 0 && what.size() > i + 2;
}

void expect_same(const std::vector<Batch>& a, const std::vector<Batch>& b,
                 const std::string& input) {
  ASSERT_EQ(a.size(), b.size()) << input;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].batch_index, b[i].batch_index) << input;
    EXPECT_EQ(a[i].arrival_time, b[i].arrival_time) << input;
    ASSERT_EQ(a[i].documents.size(), b[i].documents.size()) << input;
    for (std::size_t k = 0; k < a[i].documents.size(); ++k) {
      const auto& x = a[i].documents[k];
      const auto& y = b[i].documents[k];
      EXPECT_EQ(x.doc_id, y.doc_id) << input;
      EXPECT_EQ(x.features.type, y.features.type) << input;
      EXPECT_EQ(x.features.size_mb, y.features.size_mb) << input;
      EXPECT_EQ(x.features.pages, y.features.pages) << input;
      EXPECT_EQ(x.features.num_images, y.features.num_images) << input;
      EXPECT_EQ(x.features.avg_image_mb, y.features.avg_image_mb) << input;
      EXPECT_EQ(x.features.resolution_dpi, y.features.resolution_dpi) << input;
      EXPECT_EQ(x.features.color_fraction, y.features.color_fraction) << input;
      EXPECT_EQ(x.features.text_ratio, y.features.text_ratio) << input;
      EXPECT_EQ(x.features.coverage, y.features.coverage) << input;
      EXPECT_EQ(x.output_size_mb, y.output_size_mb) << input;
    }
  }
}

TEST(TraceFuzzTest, NamesTheLineOfEveryRejection) {
  EXPECT_TRUE(names_a_line("trace: line 12: bad number size_mb 'x'"));
  EXPECT_FALSE(names_a_line("trace: line : bad"));
  EXPECT_FALSE(names_a_line("trace: line 0: bad"));
  EXPECT_FALSE(names_a_line("trace: unexpected header"));
}

TEST(TraceFuzzTest, SeedTraceParses) {
  std::istringstream in(valid_trace());
  EXPECT_FALSE(trace::read(in).empty());
}

TEST(TraceFuzzTest, EmptyAndHeaderlessInputsNameLineOne) {
  for (const std::string text : {"", "not,a,header\n", "\n"}) {
    std::istringstream in(text);
    try {
      (void)trace::read(in);
      ADD_FAILURE() << "accepted '" << text << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("trace: line 1: ", 0), 0u)
          << e.what();
    }
  }
}

TEST(TraceFuzzTest, MutantsParseOrFailWithANamedLine) {
  const std::string seed_trace = valid_trace();
  Mutator mutator(kSeed);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const std::string input = mutator.mutate(seed_trace);
    std::istringstream in(input);
    std::vector<Batch> batches;
    try {
      batches = trace::read(in);
    } catch (const std::runtime_error& e) {
      ++rejected;
      EXPECT_TRUE(names_a_line(e.what()))
          << "iteration " << i << ": " << e.what();
      continue;
    }
    ++parsed;
    expect_same(batches, trace::round_trip(batches), input);
  }
  // Both outcomes must be exercised, or the mutator is too weak (or too
  // destructive) to test anything.
  EXPECT_GT(parsed, kIterations / 20);
  EXPECT_GT(rejected, kIterations / 4);
}

}  // namespace
