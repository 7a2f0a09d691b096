#include "core/greedy_scheduler.hpp"

namespace cbs::core {

std::vector<ScheduleDecision> GreedyScheduler::schedule_batch(
    std::vector<cbs::workload::Document> docs, Context& ctx) {
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    // Algorithm 1, lines 2-8: compare ft^ic with ft^ec and take the smaller.
    // Greedy sees the system's queues as they are (each decision enqueues
    // real bytes, so the upload backlog is live), but reads the network at
    // its transient value and never anticipates the *future* download
    // contention its bursts create beyond what is queued right now — the
    // §IV.D fragility.
    const cbs::sim::SimTime t_ic = ctx.belief.ft_ic(doc, ctx.now);
    const EcEstimate ec =
        ctx.belief.ft_ec_job_level(doc, ctx.now, ctx.download_backlog_bytes);
    if (t_ic <= ec.finish) {
      out.push_back(decide_ic(doc, ctx));
    } else {
      out.push_back(decide_ec(doc, ec, ctx));
    }
  }
  return out;
}

}  // namespace cbs::core
