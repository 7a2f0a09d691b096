// Host-independent allocation gate for the lookahead scheduler's critical
// path: one order-preserving rollout chain (fork, admit the decision
// batch, roll the horizon, tear down) on the lookahead_fork scenario
// (λ = 15 overload, uniform bucket, oracle, seed 1).
//
// This binary replaces the global operator new with one that counts, per
// thread, the allocations made while a chain is measured. The counts do not
// depend on the host's speed, so the bounds can be tight:
//  - no single allocation while the batch is admitted and the horizon
//    rolled may exceed 64 KiB: a fork keeps its tables' room to grow, so a
//    rollout never reallocates the backlog it inherited (DESIGN §12.1);
//  - the chain's allocation count at batch 200 stays under a ceiling
//    recorded with 1.5x headroom, and so do the allocations of the batch's
//    admission, the transfer-time queries and the realized-service draws
//    (order-preserving admission prices only what its decision reads, and a
//    job's service is drawn when it is first dispatched).
//
// The decision point is reproduced without a test hook: the parent runs to
// just before batch k arrives and is forked there. The fork, marked as an
// order-preserving rollout, then fires batch k's arrival itself, which
// admits the batch through the same CloudBurstController::on_batch call
// that inject_batch_as makes, before any other event at that time.
//
// Allocation counting conflicts with a sanitizer's own operator new, so
// this test is kept out of the sanitizer jobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>

#include "harness/scenario.hpp"
#include "harness/world.hpp"

namespace {

struct AllocationCount {
  bool counting = false;
  std::size_t count = 0;
  std::size_t bytes = 0;
  std::size_t largest = 0;
};

thread_local AllocationCount t_allocations;

// Out of line, so the compiler does not pair a malloc or free it can see
// with the operator that calls it (-Wmismatched-new-delete).
[[gnu::noinline]] void* counted_alloc(std::size_t size) {
  AllocationCount& a = t_allocations;
  if (a.counting) {
    ++a.count;
    a.bytes += size;
    if (size > a.largest) a.largest = size;
  }
  return std::malloc(size == 0 ? 1 : size);
}

[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}

namespace {

using cbs::harness::ScenarioWorld;

/// The counts of the calls made while `fn` runs on this thread.
template <typename Fn>
AllocationCount count_allocations(Fn&& fn) {
  t_allocations = AllocationCount{};
  t_allocations.counting = true;
  fn();
  AllocationCount counted = t_allocations;
  counted.counting = false;
  t_allocations = AllocationCount{};
  return counted;
}

struct Chain {
  std::size_t outstanding = 0;  ///< jobs in the parent at the decision
  AllocationCount fork;
  AllocationCount admit;  ///< the decision batch's admission
  AllocationCount roll;   ///< the rest of the horizon
  AllocationCount teardown;
  /// Transfer-time queries on the rollout's uplink and downlink estimators
  /// while the batch is admitted and the horizon rolled.
  std::size_t transfer_queries = 0;
  /// Realized services the rollout drew (jobs it dispatched).
  std::size_t service_draws = 0;

  [[nodiscard]] std::size_t count() const {
    return fork.count + admit.count + roll.count;
  }
  [[nodiscard]] std::size_t largest_after_fork() const {
    return std::max(admit.largest, roll.largest);
  }
};

/// Runs the order-preserving chain of the lookahead decision at `batch`.
Chain measure_op_chain(std::size_t batch) {
  cbs::harness::Scenario s = cbs::harness::make_scenario(
      cbs::core::SchedulerKind::kLookahead, cbs::workload::SizeBucket::kUniform,
      /*seed=*/1);
  s.estimator = cbs::core::EstimatorKind::kOracle;
  s.mean_jobs_per_batch = 15.0;
  s.num_batches = 400;
  s.lookahead_horizon_seconds = 900.0;
  s.lookahead_candidates = 3;
  s.log_threshold = cbs::sim::LogLevel::kError;

  ScenarioWorld parent(s);
  const double arrival = parent.batches().at(batch).arrival_time;
  parent.run_until(
      std::nextafter(arrival, -std::numeric_limits<double>::infinity()));

  Chain chain;
  chain.outstanding = parent.controller().outstanding_jobs();
  std::unique_ptr<ScenarioWorld> rollout;
  chain.fork = count_allocations([&] {
    rollout = parent.fork();
    rollout->begin_rollout(cbs::core::SchedulerKind::kOrderPreserving);
  });
  const auto queries = [&] {
    const auto& controller = rollout->controller();
    return controller.uplink_estimator().work().queries +
           controller.downlink_estimator().work().queries;
  };
  const std::size_t queries_at_fork = queries();
  const std::size_t draws_at_fork = rollout->controller().service_draws();
  chain.admit = count_allocations([&] { rollout->run_until(arrival); });
  chain.roll = count_allocations(
      [&] { rollout->run_until(arrival + s.lookahead_horizon_seconds); });
  chain.transfer_queries = queries() - queries_at_fork;
  chain.service_draws = rollout->controller().service_draws() - draws_at_fork;
  chain.teardown = count_allocations([&] { rollout.reset(); });
  std::printf(
      "batch %zu: %zu outstanding; allocations fork %zu, admit %zu, roll %zu "
      "(%zu bytes after the fork, largest %zu); %zu transfer queries, %zu "
      "service draws\n",
      batch, chain.outstanding, chain.fork.count, chain.admit.count,
      chain.roll.count, chain.admit.bytes + chain.roll.bytes,
      chain.largest_after_fork(), chain.transfer_queries,
      chain.service_draws);
  return chain;
}

constexpr std::size_t kLargestAllocation = 64 * 1024;

TEST(RolloutAllocation, CountIsBoundedAtBatch200) {
  const Chain chain = measure_op_chain(200);
  ASSERT_GT(chain.outstanding, 200u);  // the overload backlog is there
  EXPECT_LE(chain.largest_after_fork(), kLargestAllocation);
  // 159 measured (66 fork, 17 admit, 76 roll); the ceilings keep 1.5x
  // headroom. 164 (71, 17, 76) were made before the link and store tables
  // became SeqTables, a copy of an empty one stopped reserving room, and a
  // transfer queue's classes each kept one in-flight item in one vector.
  // 165 (71, 17, 77) were made before the event heap removed
  // cancelled records in place and the download queue stopped keeping a
  // tag index. 168 (73, 18, 77) were made before the job, belief and queue
  // tag tables became seq-indexed, and the fork made 4 more before it
  // shared the scenario and the controller's configuration with its
  // parent. 217 (81, 25, 111) were made before admission reused its
  // buffers and drew services lazily, and 1,176 before forks kept their
  // room to grow.
  EXPECT_LE(chain.count(), 267u);
  EXPECT_LE(chain.admit.count, 27u);
  EXPECT_EQ(chain.teardown.count, 0u);
  // 210 queries on the two links, where pricing every round trip in full
  // made 364; 67 draws, one per job dispatched before the horizon, where
  // drawing at admission made 182.
  EXPECT_LE(chain.transfer_queries, 315u);
  EXPECT_LE(chain.service_draws, 100u);
}

TEST(RolloutAllocation, NoLargeAllocationAtBatch399) {
  const Chain chain = measure_op_chain(399);
  ASSERT_GT(chain.outstanding, 600u);
  EXPECT_LE(chain.largest_after_fork(), kLargestAllocation);
}

}  // namespace
