#include "core/order_preserving_scheduler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <iterator>
#include <utility>

#include "sla/slack.hpp"
#include "workload/chunker.hpp"

namespace cbs::core {

namespace {

/// Sample standard deviation of the sizes of docs[first, last): the sums
/// of stats::stddev_of, in its order, without copying the sizes out.
double size_stddev(const std::vector<cbs::workload::Document>& docs,
                   std::size_t first, std::size_t last) {
  const std::size_t n = last - first;
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t k = first; k < last; ++k) sum += docs[k].features.size_mb;
  const double mean = sum / static_cast<double>(n);
  double squares = 0.0;
  for (std::size_t k = first; k < last; ++k) {
    const double x = docs[k].features.size_mb;
    squares += (x - mean) * (x - mean);
  }
  return std::sqrt(squares / static_cast<double>(n - 1));
}

}  // namespace

void OrderPreservingScheduler::apply_chunking(
    std::vector<cbs::workload::Document>& docs, Context& ctx) {
  const auto window = static_cast<std::size_t>(ctx.params.variability_window);
  const std::size_t original_size = docs.size();
  const cbs::workload::PdfChunker chunker(ctx.params.chunker);

  // The batch with every split document replaced by its chunks, in order;
  // started at the first split, so a batch that splits nothing is left as
  // it is. The documents after input document j are still the unsplit
  // input docs[j + 1, end), so the window is read from docs.
  std::vector<cbs::workload::Document> spliced;
  for (std::size_t j = 0; j < original_size; ++j) {
    if (!docs[j].is_chunk()) {
      // σ(i : i+x) over the sizes of the upcoming window (lines 4–5).
      const double sigma =
          size_stddev(docs, j, std::min(original_size, j + window));

      if (sigma > ctx.params.variability_threshold_mb &&
          chunker.chunk_count_for(docs[j].features.size_mb) > 1) {
        // Lines 6–9: replace j_i by its chunks, spliced in order. Chunks
        // are never re-split.
        auto chunks = chunker.chunk(docs[j], ctx.truth, ctx.next_doc_id);
        if (spliced.empty()) {
          const auto split = docs.begin() + static_cast<std::ptrdiff_t>(j);
          spliced.reserve(original_size - 1 + chunks.size());
          spliced.assign(std::make_move_iterator(docs.begin()),
                         std::make_move_iterator(split));
        }
        spliced.insert(spliced.end(), std::make_move_iterator(chunks.begin()),
                       std::make_move_iterator(chunks.end()));
        continue;
      }
    }
    if (!spliced.empty()) spliced.push_back(std::move(docs[j]));
  }
  if (!spliced.empty()) docs = std::move(spliced);
}

ScheduleDecision OrderPreservingScheduler::place(
    const cbs::workload::Document& doc, Context& ctx) {
  // Lines 11–16: burst exactly when the estimated external finish fits the
  // cushion of the jobs ahead.
  const EcEstimate ec = ctx.belief.ft_ec(doc, ctx.now);
  const cbs::sim::SimTime cushion = ctx.belief.slack(ctx.now);
  if (cbs::sla::satisfies_slack(ec.finish, cushion,
                                ctx.params.slack_safety_margin)) {
    return decide_ec(doc, ec, ctx);
  }
  return decide_ic(doc, ctx);
}

std::vector<ScheduleDecision> OrderPreservingScheduler::schedule_batch(
    std::vector<cbs::workload::Document> docs, Context& ctx) {
  apply_chunking(docs, ctx);
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    out.push_back(place(doc, ctx));
  }
  return out;
}

}  // namespace cbs::core
