#include "core/scheduler.hpp"

#include <cassert>

#include "core/bandwidth_split.hpp"
#include "core/greedy_scheduler.hpp"
#include "core/order_preserving_scheduler.hpp"

namespace cbs::core {

ScheduleDecision decide_ic(const cbs::workload::Document& doc,
                           Scheduler::Context& ctx) {
  ScheduleDecision d;
  d.seq_id = (*ctx.next_seq)++;
  d.doc = doc;
  d.placement = cbs::sla::Placement::kInternal;
  d.estimated_service_seconds = ctx.belief.estimate_service(doc);
  ctx.belief.commit_ic(d.seq_id, d.estimated_service_seconds);
  return d;
}

ScheduleDecision decide_ec(const cbs::workload::Document& doc,
                           const EcEstimate& estimate, Scheduler::Context& ctx,
                           int upload_class) {
  ScheduleDecision d;
  d.seq_id = (*ctx.next_seq)++;
  d.doc = doc;
  d.placement = cbs::sla::Placement::kExternal;
  d.estimated_service_seconds = ctx.belief.estimate_service(doc);
  d.ec_estimate = estimate;
  d.upload_class = upload_class;
  ctx.belief.commit_ec(d.seq_id, doc, estimate);
  return d;
}

std::vector<ScheduleDecision> IcOnlyScheduler::schedule_batch(
    std::vector<cbs::workload::Document> docs, Context& ctx) {
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) out.push_back(decide_ic(doc, ctx));
  return out;
}

std::vector<ScheduleDecision> RandomScheduler::schedule_batch(
    std::vector<cbs::workload::Document> docs, Context& ctx) {
  std::vector<ScheduleDecision> out;
  out.reserve(docs.size());
  for (const auto& doc : docs) {
    if (rng_.next_double() < kBurstProbability) {
      // Still record the believed round trip so the belief stays coherent;
      // the decision itself ignores it.
      out.push_back(decide_ec(doc, ctx.belief.ft_ec(doc, ctx.now), ctx));
    } else {
      out.push_back(decide_ic(doc, ctx));
    }
  }
  return out;
}

std::unique_ptr<Scheduler> make_scheduler(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kIcOnly:
      return std::make_unique<IcOnlyScheduler>();
    case SchedulerKind::kGreedy:
      return std::make_unique<GreedyScheduler>();
    case SchedulerKind::kOrderPreserving:
      return std::make_unique<OrderPreservingScheduler>();
    case SchedulerKind::kBandwidthSplit:
      return std::make_unique<BandwidthSplitScheduler>();
    case SchedulerKind::kRandom:
      return std::make_unique<RandomScheduler>();
    case SchedulerKind::kLookahead:
      // Inside the controller, lookahead falls back to order-preserving
      // placement; the actual per-batch candidate selection lives in the
      // harness LookaheadController, which forks the world instead.
      return std::make_unique<OrderPreservingScheduler>();
  }
  assert(false && "unknown scheduler kind");
  return nullptr;
}

}  // namespace cbs::core
