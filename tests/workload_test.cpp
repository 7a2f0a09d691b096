#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats/summary.hpp"
#include "workload/arrival.hpp"
#include "workload/chunker.hpp"
#include "workload/document.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"
#include "workload/trace.hpp"

namespace {

using namespace cbs::workload;
using cbs::sim::RngStream;

GroundTruthModel make_truth(double sigma = 0.18) {
  GroundTruthModel::Config cfg;
  cfg.noise_sigma = sigma;
  return GroundTruthModel(cfg, RngStream(77));
}

// ---- GroundTruthModel ------------------------------------------------

TEST(GroundTruthTest, ExpectedSecondsMonotoneInSize) {
  const auto truth = make_truth();
  DocumentFeatures small;
  small.size_mb = 10.0;
  DocumentFeatures large = small;
  large.size_mb = 200.0;
  EXPECT_LT(truth.expected_seconds(small), truth.expected_seconds(large));
}

TEST(GroundTruthTest, NoiseFreeIsDeterministic) {
  auto truth = make_truth(0.0);
  DocumentFeatures f;
  f.size_mb = 50.0;
  EXPECT_DOUBLE_EQ(truth.sample_seconds(f), truth.expected_seconds(f));
  EXPECT_DOUBLE_EQ(truth.sample_seconds(f), truth.sample_seconds(f));
}

TEST(GroundTruthTest, NoiseIsUnbiased) {
  auto truth = make_truth(0.3);
  DocumentFeatures f;
  f.size_mb = 100.0;
  cbs::stats::Summary s;
  for (int i = 0; i < 20000; ++i) s.add(truth.sample_seconds(f));
  EXPECT_NEAR(s.mean() / truth.expected_seconds(f), 1.0, 0.02);
}

TEST(GroundTruthTest, RealizedSecondsDeterministicPerDocument) {
  const auto truth = make_truth();
  Document doc;
  doc.doc_id = 42;
  doc.features.size_mb = 80.0;
  EXPECT_DOUBLE_EQ(truth.realized_seconds(doc), truth.realized_seconds(doc));
  Document other = doc;
  other.doc_id = 43;
  EXPECT_NE(truth.realized_seconds(doc), truth.realized_seconds(other));
}

TEST(GroundTruthTest, RealizedSecondsChunkKeyedByParentAndIndex) {
  const auto truth = make_truth();
  Document chunk;
  chunk.doc_id = 1000;  // fresh id — must NOT influence the draw
  chunk.parent_id = 5;
  chunk.chunk_index = 2;
  chunk.chunk_count = 4;
  chunk.features.size_mb = 60.0;
  Document same_chunk_other_id = chunk;
  same_chunk_other_id.doc_id = 2000;
  EXPECT_DOUBLE_EQ(truth.realized_seconds(chunk),
                   truth.realized_seconds(same_chunk_other_id));
}

TEST(GroundTruthTest, OutputSizeScalesWithInput) {
  const auto truth = make_truth();
  DocumentFeatures f;
  f.size_mb = 100.0;
  f.pages = 50;
  f.type = JobType::kBook;
  const double out = truth.output_size_mb(f);
  EXPECT_GT(out, 0.0);
  EXPECT_NEAR(out, 70.0, 5.0);  // book ratio 0.7 plus page overlay
}

TEST(GroundTruthTest, OutputRatioVariesByType) {
  const auto truth = make_truth();
  DocumentFeatures f;
  f.size_mb = 100.0;
  f.pages = 10;
  f.type = JobType::kImagePersonalization;
  const double img = truth.output_size_mb(f);
  f.type = JobType::kCreditCardStatement;
  const double stmt = truth.output_size_mb(f);
  EXPECT_GT(img, stmt);
}

// ---- WorkloadGenerator -------------------------------------------------

TEST(GeneratorTest, SizesStayInRange) {
  const auto truth = make_truth();
  for (SizeBucket bucket :
       {SizeBucket::kSmallBiased, SizeBucket::kUniform, SizeBucket::kLargeBiased}) {
    WorkloadGenerator gen({.bucket = bucket}, truth, RngStream(1));
    for (int i = 0; i < 500; ++i) {
      const Document d = gen.next();
      EXPECT_GE(d.features.size_mb, 1.0);
      EXPECT_LE(d.features.size_mb, 300.0);
    }
  }
}

TEST(GeneratorTest, BucketsAreOrderedByMeanSize) {
  const auto truth = make_truth();
  auto mean_size = [&](SizeBucket bucket) {
    WorkloadGenerator gen({.bucket = bucket}, truth, RngStream(9));
    cbs::stats::Summary s;
    for (int i = 0; i < 3000; ++i) s.add(gen.next().features.size_mb);
    return s.mean();
  };
  const double small = mean_size(SizeBucket::kSmallBiased);
  const double uniform = mean_size(SizeBucket::kUniform);
  const double large = mean_size(SizeBucket::kLargeBiased);
  EXPECT_LT(small, uniform - 40.0);
  EXPECT_GT(large, uniform + 40.0);
  EXPECT_NEAR(uniform, 150.5, 8.0);
}

TEST(GeneratorTest, FeaturesArePhysicallyConsistent) {
  const auto truth = make_truth();
  WorkloadGenerator gen({}, truth, RngStream(2));
  for (int i = 0; i < 500; ++i) {
    const Document d = gen.next();
    EXPECT_GE(d.features.pages, 1);
    EXPECT_GE(d.features.num_images, 0);
    EXPECT_GT(d.features.resolution_dpi, 0.0);
    EXPECT_GE(d.features.color_fraction, 0.0);
    EXPECT_LE(d.features.color_fraction, 1.0);
    EXPECT_GE(d.features.coverage, 0.0);
    EXPECT_LE(d.features.coverage, 1.0);
    EXPECT_GT(d.output_size_mb, 0.0);
  }
}

TEST(GeneratorTest, IdsAreSequential) {
  const auto truth = make_truth();
  WorkloadGenerator gen({}, truth, RngStream(3));
  EXPECT_EQ(gen.next().doc_id, 1u);
  EXPECT_EQ(gen.next().doc_id, 2u);
  const auto batch = gen.batch(3);
  EXPECT_EQ(batch[2].doc_id, 5u);
  EXPECT_EQ(gen.documents_generated(), 5u);
}

TEST(GeneratorTest, DeterministicPerSeed) {
  const auto truth = make_truth();
  WorkloadGenerator a({}, truth, RngStream(4));
  WorkloadGenerator b({}, truth, RngStream(4));
  for (int i = 0; i < 100; ++i) {
    const Document da = a.next();
    const Document db = b.next();
    EXPECT_DOUBLE_EQ(da.features.size_mb, db.features.size_mb);
    EXPECT_EQ(da.features.pages, db.features.pages);
    EXPECT_EQ(da.features.type, db.features.type);
  }
}

// ---- PdfChunker ---------------------------------------------------------

TEST(ChunkerTest, SmallDocumentIsNotSplit) {
  const auto truth = make_truth();
  PdfChunker chunker({.target_size_mb = 100.0});
  Document doc;
  doc.doc_id = 10;
  doc.features.size_mb = 50.0;
  doc.features.pages = 20;
  std::uint64_t next_id = 1000;
  const auto chunks = chunker.chunk(doc, truth, &next_id);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].parent_id, 10u);
  EXPECT_EQ(chunks[0].doc_id, 1000u);
  EXPECT_EQ(next_id, 1001u);
}

TEST(ChunkerTest, ChunkCountMatchesTarget) {
  PdfChunker chunker({.target_size_mb = 60.0});
  EXPECT_EQ(chunker.chunk_count_for(59.0), 1);
  EXPECT_EQ(chunker.chunk_count_for(61.0), 2);
  EXPECT_EQ(chunker.chunk_count_for(300.0), 5);
}

TEST(ChunkerTest, MaxChunksCapsSplit) {
  PdfChunker chunker({.target_size_mb = 1.0});
  EXPECT_EQ(chunker.chunk_count_for(300.0), PdfChunker::kMaxChunks);
}

TEST(ChunkerTest, SizesSumToOriginalPlusOverhead) {
  const auto truth = make_truth();
  PdfChunker chunker({.target_size_mb = 60.0});
  Document doc;
  doc.doc_id = 1;
  doc.features.size_mb = 290.0;
  doc.features.pages = 100;
  doc.features.num_images = 40;
  std::uint64_t next_id = 100;
  const auto chunks = chunker.chunk(doc, truth, &next_id);
  ASSERT_EQ(chunks.size(), 5u);
  double total_mb = 0.0;
  int total_pages = 0;
  int total_images = 0;
  for (const auto& c : chunks) {
    total_mb += c.features.size_mb;
    total_pages += c.features.pages;
    total_images += c.features.num_images;
    EXPECT_EQ(c.parent_id, 1u);
    EXPECT_EQ(c.chunk_count, 5);
  }
  EXPECT_NEAR(total_mb, 290.0 + 5 * PdfChunker::kPerChunkOverheadMb, 1e-9);
  EXPECT_EQ(total_pages, 100);
  EXPECT_EQ(total_images, 40);
}

TEST(ChunkerTest, ChunkIndicesAreSequential) {
  const auto truth = make_truth();
  PdfChunker chunker({.target_size_mb = 50.0});
  Document doc;
  doc.doc_id = 1;
  doc.features.size_mb = 140.0;
  doc.features.pages = 12;
  std::uint64_t next_id = 1;
  const auto chunks = chunker.chunk(doc, truth, &next_id);
  ASSERT_EQ(chunks.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(chunks[static_cast<std::size_t>(i)].chunk_index, i);
  }
}

TEST(ChunkerTest, InheritsPerDocumentProperties) {
  const auto truth = make_truth();
  PdfChunker chunker({.target_size_mb = 50.0});
  Document doc;
  doc.doc_id = 1;
  doc.features.size_mb = 120.0;
  doc.features.pages = 10;
  doc.features.resolution_dpi = 1200.0;
  doc.features.color_fraction = 0.9;
  doc.features.type = JobType::kMarketingMaterial;
  std::uint64_t next_id = 1;
  for (const auto& c : chunker.chunk(doc, truth, &next_id)) {
    EXPECT_DOUBLE_EQ(c.features.resolution_dpi, 1200.0);
    EXPECT_DOUBLE_EQ(c.features.color_fraction, 0.9);
    EXPECT_EQ(c.features.type, JobType::kMarketingMaterial);
  }
}

// ---- BatchArrivalProcess ------------------------------------------------

TEST(ArrivalTest, BatchTimesAreOnTheGrid) {
  auto truth = make_truth();
  WorkloadGenerator gen({}, truth, RngStream(5));
  BatchArrivalProcess arrivals({.batch_interval = 180.0, .num_batches = 5},
                               gen, RngStream(6));
  const auto batches = arrivals.generate_all();
  ASSERT_EQ(batches.size(), 5u);
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_DOUBLE_EQ(batches[b].arrival_time, 180.0 * static_cast<double>(b));
    EXPECT_EQ(batches[b].batch_index, b);
    EXPECT_FALSE(batches[b].documents.empty());
  }
}

TEST(ArrivalTest, PoissonCountsAverageLambda) {
  auto truth = make_truth();
  WorkloadGenerator gen({}, truth, RngStream(7));
  BatchArrivalProcess arrivals(
      {.mean_jobs_per_batch = 15.0, .num_batches = 400}, gen, RngStream(8));
  cbs::stats::Summary s;
  for (const auto& b : arrivals.generate_all()) {
    s.add(static_cast<double>(b.documents.size()));
  }
  EXPECT_NEAR(s.mean(), 15.0, 0.7);
}

/// FNV-1a over 64-bit words: every drawn field, doubles by their bits.
class ScheduleHash {
 public:
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (word >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double x) { add(std::bit_cast<std::uint64_t>(x)); }
  void add(int x) {
    add(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Digest of the §V.A schedule a world draws for (bucket, seed): the same
/// substreams, generator and arrival process, 300 batches of λ = 15.
std::uint64_t schedule_digest(SizeBucket bucket, std::uint64_t seed) {
  const RngStream root(seed);
  const GroundTruthModel truth({}, root.substream("truth"));
  WorkloadGenerator gen({.bucket = bucket}, truth, root.substream("workload"));
  BatchArrivalProcess arrivals({.num_batches = 300}, gen,
                               root.substream("arrivals"));
  ScheduleHash h;
  for (const Batch& b : arrivals.generate_all()) {
    h.add(static_cast<std::uint64_t>(b.batch_index));
    h.add(b.arrival_time);
    h.add(static_cast<std::uint64_t>(b.documents.size()));
    for (const Document& d : b.documents) {
      const DocumentFeatures& f = d.features;
      h.add(d.doc_id);
      h.add(f.size_mb);
      h.add(f.pages);
      h.add(f.num_images);
      h.add(f.avg_image_mb);
      h.add(f.resolution_dpi);
      h.add(f.color_fraction);
      h.add(f.text_ratio);
      h.add(f.coverage);
      h.add(static_cast<std::uint64_t>(f.type));
      h.add(d.output_size_mb);
      h.add(d.parent_id);
      h.add(d.chunk_index);
      h.add(d.chunk_count);
    }
  }
  return h.value();
}

TEST(ArrivalTest, DrawnSchedulePinned) {
  // Any change to what is drawn, or in what order, moves a digest: a
  // faster draw must pass this unedited.
  struct Pin {
    SizeBucket bucket;
    std::uint64_t seed;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {SizeBucket::kSmallBiased, 1, 0x0fa33022aefd9b9eULL},
      {SizeBucket::kSmallBiased, 42, 0x083306489760749fULL},
      {SizeBucket::kSmallBiased, 7001, 0x281896cae1144a42ULL},
      {SizeBucket::kUniform, 1, 0x0465a4f2c168f15cULL},
      {SizeBucket::kUniform, 42, 0x7df535b60b039272ULL},
      {SizeBucket::kUniform, 7001, 0x101ac0a83bf15105ULL},
      {SizeBucket::kLargeBiased, 1, 0x86d4252429d2c0f9ULL},
      {SizeBucket::kLargeBiased, 42, 0x4231be1694e1995fULL},
      {SizeBucket::kLargeBiased, 7001, 0xc768163e71a15224ULL},
  };
  for (const Pin& p : pins) {
    EXPECT_EQ(schedule_digest(p.bucket, p.seed), p.digest)
        << to_string(p.bucket) << " seed " << p.seed << ": 0x" << std::hex
        << schedule_digest(p.bucket, p.seed);
  }
}

// ---- trace I/O ------------------------------------------------------------

TEST(TraceTest, RoundTripPreservesEverything) {
  auto truth = make_truth();
  WorkloadGenerator gen({}, truth, RngStream(11));
  BatchArrivalProcess arrivals({.num_batches = 3}, gen, RngStream(12));
  const auto original = arrivals.generate_all();
  const auto copy = trace::round_trip(original);
  ASSERT_EQ(copy.size(), original.size());
  for (std::size_t b = 0; b < original.size(); ++b) {
    ASSERT_EQ(copy[b].documents.size(), original[b].documents.size());
    EXPECT_DOUBLE_EQ(copy[b].arrival_time, original[b].arrival_time);
    for (std::size_t i = 0; i < original[b].documents.size(); ++i) {
      const Document& a = original[b].documents[i];
      const Document& c = copy[b].documents[i];
      EXPECT_EQ(a.doc_id, c.doc_id);
      EXPECT_DOUBLE_EQ(a.features.size_mb, c.features.size_mb);
      EXPECT_EQ(a.features.pages, c.features.pages);
      EXPECT_EQ(a.features.type, c.features.type);
      EXPECT_DOUBLE_EQ(a.output_size_mb, c.output_size_mb);
    }
  }
}

TEST(TraceTest, RejectsBadHeader) {
  std::istringstream in("not,a,header\n");
  EXPECT_THROW((void)trace::read(in), std::runtime_error);
}

TEST(TraceTest, RejectsWrongColumnCount) {
  std::istringstream in(
      "batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,"
      "resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb\n"
      "0,0,1,book,10\n");
  EXPECT_THROW((void)trace::read(in), std::runtime_error);
}

TEST(TraceTest, RejectsUnknownJobType) {
  std::istringstream in(
      "batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,"
      "resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb\n"
      "0,0,1,frisbee,10,1,0,0,300,0,1,0.5,8\n");
  EXPECT_THROW((void)trace::read(in), std::runtime_error);
}

TEST(TraceTest, RejectsMalformedNumber) {
  std::istringstream in(
      "batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,"
      "resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb\n"
      "0,0,1,book,10x,1,0,0,300,0,1,0.5,8\n");
  EXPECT_THROW((void)trace::read(in), std::runtime_error);
}

/// Reads a trace with the standard header plus `rows`; returns the error
/// message, or "" when the trace parses.
std::string trace_error(const std::string& rows) {
  std::istringstream in(
      "batch,arrival_time,doc_id,type,size_mb,pages,num_images,avg_image_mb,"
      "resolution_dpi,color_fraction,text_ratio,coverage,output_size_mb\n" +
      rows);
  try {
    (void)trace::read(in);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// A valid row with each listed column replaced by its value.
std::string row_with(
    std::initializer_list<std::pair<std::size_t, std::string>> changes) {
  std::vector<std::string> fields = {"0",   "0", "1",   "book", "10", "1", "0",
                                     "0.5", "300", "0", "1",    "0.5", "8"};
  for (const auto& [col, value] : changes) fields[col] = value;
  std::string row;
  for (const std::string& f : fields) {
    if (!row.empty()) row += ',';
    row += f;
  }
  row += '\n';
  return row;
}

/// A valid row with column `col` replaced by `value`.
std::string row_with(std::size_t col, const std::string& value) {
  return row_with({{col, value}});
}

TEST(TraceTest, ValidRowParses) {
  EXPECT_EQ(trace_error(row_with(0, "0")), "");
}

TEST(TraceTest, RejectsNanInAnyNumericField) {
  for (std::size_t col : {1u, 4u, 7u, 8u, 9u, 10u, 11u, 12u}) {
    const std::string err = trace_error(row_with(col, "nan"));
    EXPECT_NE(err.find("trace: line 2: non-finite"), std::string::npos)
        << "col " << col << ": " << err;
  }
}

TEST(TraceTest, RejectsInfinityInAnyNumericField) {
  for (std::size_t col : {1u, 4u, 7u, 8u, 9u, 10u, 11u, 12u}) {
    for (const char* inf : {"inf", "-inf", "1e999"}) {
      const std::string err = trace_error(row_with(col, inf));
      EXPECT_EQ(err.rfind("trace: line 2: ", 0), 0u)
          << "col " << col << ": " << err;
    }
  }
}

TEST(TraceTest, RejectsNegativeSizes) {
  EXPECT_EQ(trace_error(row_with(4, "-1")),
            "trace: line 2: negative size_mb '-1'");
  EXPECT_EQ(trace_error(row_with(12, "-0.5")),
            "trace: line 2: negative output_size_mb '-0.5'");
  EXPECT_EQ(trace_error(row_with(7, "-2")),
            "trace: line 2: negative avg_image_mb '-2'");
  EXPECT_EQ(trace_error(row_with(1, "-5")),
            "trace: line 2: negative arrival_time '-5'");
}

TEST(TraceTest, RejectsNegativeCounts) {
  EXPECT_EQ(trace_error(row_with(5, "-3")),
            "trace: line 2: negative pages '-3'");
  EXPECT_EQ(trace_error(row_with(6, "-1")),
            "trace: line 2: negative num_images '-1'");
}

TEST(TraceTest, RejectsNegativeBatchOrDocIdBeforeTheUnsignedCast) {
  EXPECT_EQ(trace_error(row_with(0, "-1")),
            "trace: line 2: negative batch '-1'");
  EXPECT_EQ(trace_error(row_with(2, "-7")),
            "trace: line 2: negative doc_id '-7'");
}

TEST(TraceTest, RejectsBatchRowsThatDisagreeOnArrival) {
  // Today's writer gives every row of a batch the same arrival_time; a
  // hand edit that changes one row must not silently move the batch.
  const std::string err =
      trace_error(row_with({{1, "0"}, {2, "1"}}) +
                  row_with({{0, "1"}, {2, "2"}}) +
                  row_with({{1, "180"}, {2, "3"}}));
  EXPECT_EQ(err,
            "trace: line 4: arrival_time '180' disagrees with earlier rows "
            "of batch 0");
  EXPECT_EQ(trace_error(row_with({{1, "180"}, {2, "1"}}) +
                        row_with({{1, "180"}, {2, "2"}})),
            "");
}

TEST(TraceTest, RejectsDocIdsOutsideTheInputRange) {
  // Id 0 would make the document's chunks look like originals, and ids
  // from 2^32 up are the controller's chunk ids.
  EXPECT_EQ(trace_error(row_with(2, "0")),
            "trace: line 2: doc_id '0' must be in [1, 4294967296)");
  EXPECT_EQ(trace_error(row_with(2, "4294967296")),
            "trace: line 2: doc_id '4294967296' must be in [1, 4294967296)");
  EXPECT_EQ(trace_error(row_with(2, "4294967295")), "");
}

TEST(TraceTest, RejectsRepeatedDocIds) {
  // A document's service noise is keyed by its id, so a repeat would
  // silently share another document's draw.
  EXPECT_EQ(trace_error(row_with(2, "5") + row_with(2, "6") +
                        row_with({{0, "1"}, {2, "5"}})),
            "trace: line 4: doc_id '5' repeats line 2");
}

TEST(TraceTest, WriteReportsRowCount) {
  auto truth = make_truth();
  WorkloadGenerator gen({}, truth, RngStream(13));
  std::vector<Batch> batches(1);
  batches[0].documents = gen.batch(7);
  std::ostringstream out;
  EXPECT_EQ(trace::write(out, batches), 7u);
}

}  // namespace
