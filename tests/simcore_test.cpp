#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "closure_events.hpp"
#include "simcore/event_queue.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"

namespace {

using cbs::testing::ClosureEvents;
using cbs::sim::Event;
using cbs::sim::EventId;
using cbs::sim::EventQueue;
using cbs::sim::EventTarget;
using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::sim::TargetId;

/// An EventQueue record carrying `arg` (the queue never reads target/kind).
Event ev(std::uint64_t arg) { return Event{0, 0, arg}; }

/// Pops every live event and returns their args in pop order.
std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> args;
  while (!q.empty()) args.push_back(q.pop().event.arg);
  return args;
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, ev(3));
  q.push(1.0, ev(1));
  q.push(2.0, ev(2));
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueueTest, FifoTieBreakAtEqualTimes) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.push(5.0, ev(i));
  EXPECT_EQ(drain(q),
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueueTest, CancelRemovesPendingEvent) {
  EventQueue q;
  const EventId id = q.push(1.0, ev(1));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.find(id), nullptr);
}

TEST(EventQueueTest, CancelTwiceIsNoOp) {
  EventQueue q;
  const EventId id = q.push(1.0, ev(0));
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueueTest, CancelFiredEventIsNoOp) {
  EventQueue q;
  const EventId id = q.push(1.0, ev(0));
  q.pop();
  EXPECT_FALSE(q.cancel(id));
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueueTest, CancelMiddleEventSkipsIt) {
  EventQueue q;
  q.push(1.0, ev(1));
  const EventId id = q.push(2.0, ev(2));
  q.push(3.0, ev(3));
  q.cancel(id);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 3}));
}

TEST(EventQueueTest, NextTimeSkipsCancelledHead) {
  EventQueue q;
  const EventId id = q.push(1.0, ev(0));
  q.push(2.0, ev(0));
  q.cancel(id);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

TEST(SimulationTest, ClockAdvancesMonotonically) {
  Simulation sim;
  ClosureEvents events(sim);
  std::vector<double> times;
  events.at(5.0, [&] { times.push_back(sim.now()); });
  events.at(1.0, [&] { times.push_back(sim.now()); });
  events.at(3.0, [&] { times.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0, 5.0}));
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulationTest, EventsCanScheduleMoreEvents) {
  Simulation sim;
  ClosureEvents events(sim);
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 5) events.in(1.0, chain);
  };
  events.in(1.0, chain);
  sim.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  ClosureEvents events(sim);
  int fired = 0;
  events.at(1.0, [&] { ++fired; });
  events.at(10.0, [&] { ++fired; });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 5.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, RunUntilFiresEventsExactlyAtDeadline) {
  Simulation sim;
  ClosureEvents events(sim);
  bool fired = false;
  events.at(5.0, [&] { fired = true; });
  sim.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(SimulationTest, StopHaltsTheLoop) {
  Simulation sim;
  ClosureEvents events(sim);
  int fired = 0;
  events.at(1.0, [&] {
    ++fired;
    sim.stop();
  });
  events.at(2.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(SimulationTest, CancelledEventDoesNotFire) {
  Simulation sim;
  ClosureEvents events(sim);
  bool fired = false;
  const EventId id = events.at(1.0, [&] { fired = true; });
  events.at(0.5, [&] { EXPECT_TRUE(events.cancel(id)); });
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(events.cancel(id));
}

TEST(SimulationTest, CountsProcessedEvents) {
  Simulation sim;
  ClosureEvents events(sim);
  for (int i = 0; i < 7; ++i) events.at(static_cast<double>(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(EventQueueTest, CancelInvalidIdIsNoOp) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventId{0}));
  EXPECT_FALSE(q.cancel(EventId{9999}));
  q.push(1.0, ev(0));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueueTest, SizeTracksLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, ev(0));
  q.push(2.0, ev(0));
  EXPECT_EQ(q.size(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
  q.pop();
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.total_scheduled(), 2u);
}

// Regression tests for the slab/generation engine: a stale EventId (fired
// or cancelled) must never act on a later event that reuses its slot.

TEST(EventQueueTest, CancelledIdCannotResurrectAfterSlotReuse) {
  EventQueue q;
  const EventId stale = q.push(1.0, ev(1));
  ASSERT_TRUE(q.cancel(stale));
  // Force slot reuse: drain the queue so the cancelled record is released,
  // then schedule a fresh event (which grabs the freed slot).
  q.push(2.0, ev(2));
  (void)q.pop();
  q.push(3.0, ev(3));
  EXPECT_FALSE(q.cancel(stale));  // stale generation: must not match
  EXPECT_EQ(q.find(stale), nullptr);
  ASSERT_EQ(q.size(), 1u);
  const EventQueue::Popped popped = q.pop();
  EXPECT_EQ(popped.time, 3.0);
  EXPECT_EQ(popped.event.arg, 3u);
}

TEST(EventQueueTest, FiredIdCannotCancelSlotSuccessor) {
  EventQueue q;
  const EventId fired_id = q.push(1.0, ev(0));
  (void)q.pop();  // fires; the slot returns to the free list
  q.push(2.0, ev(0));  // reuses the slot
  EXPECT_FALSE(q.cancel(fired_id));
  EXPECT_EQ(q.size(), 1u);  // the successor is untouched
}

TEST(EventQueueTest, CancelHeavyChurnStaysBoundedAndOrdered) {
  // Cancel three of every four events; the heap must hold exactly the
  // survivors, and they must still pop in exact (time, seq) order.
  EventQueue q;
  std::vector<EventId> doomed;
  std::vector<double> expected_times;
  for (int i = 0; i < 2000; ++i) {
    const double t = static_cast<double>(i);
    if (i % 4 == 0) {
      expected_times.push_back(t);
      q.push(t, ev(0));
    } else {
      doomed.push_back(q.push(t, ev(0)));
    }
  }
  for (const EventId id : doomed) ASSERT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), expected_times.size());
  EXPECT_TRUE(q.consistent());
  std::vector<double> popped;
  while (!q.empty()) popped.push_back(q.pop().time);
  EXPECT_EQ(popped, expected_times);
}

TEST(EventQueueTest, RescheduleKeepsTheIdAndTakesAFreshSeq) {
  EventQueue q;
  const EventId moved = q.push(1.0, ev(1));
  q.push(2.0, ev(2));
  const std::uint64_t seq = q.next_seq();
  ASSERT_TRUE(q.reschedule(moved, 2.0));
  EXPECT_EQ(q.next_seq(), seq + 1);
  ASSERT_NE(q.find(moved), nullptr);
  EXPECT_EQ(q.find(moved)->arg, 1u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{2, 1}));
  EXPECT_FALSE(q.reschedule(moved, 3.0));  // fired: a no-op
  EXPECT_EQ(q.next_seq(), seq + 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, NegativeZeroTiesWithZero) {
  EventQueue q;
  q.push(0.0, ev(1));
  q.push(-0.0, ev(2));
  q.push(0.0, ev(3));
  EXPECT_EQ(q.next_time(), 0.0);
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

// Randomized model check: every operation on the queue is mirrored on a
// std::set ordered by (time, seq), and the two must agree on the pop
// sequence, the size and every lookup, with the heap's stored positions
// consistent after each step.
TEST(EventQueueTest, MatchesAnOrderedSetUnderRandomChurn) {
  struct Pending {
    EventId id;
    double time;
    std::uint64_t seq;
  };
  using Key = std::tuple<double, std::uint64_t, std::uint64_t>;  // time, seq, arg
  RngStream rng(2024);
  EventQueue q;
  std::set<Key> model;
  std::map<std::uint64_t, Pending> live;  // by arg
  std::vector<EventId> stale;             // fired or cancelled
  std::vector<std::uint64_t> reserved;    // seqs taken by reserve, unused
  std::uint64_t next_arg = 0;
  double now = 0.0;
  const auto pick_time = [&] {
    // Few distinct times, so FIFO ties are common; -0.0 must tie with 0.0.
    const std::uint64_t step = rng.uniform_int(0, 6);
    return step == 0 && now == 0.0 ? -0.0 : now + 0.5 * static_cast<double>(step);
  };
  const auto pick_live = [&]() -> std::map<std::uint64_t, Pending>::iterator {
    auto it = live.begin();
    std::advance(it, static_cast<long>(rng.uniform_int(0, live.size() - 1)));
    return it;
  };
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t op = rng.uniform_int(0, 99);
    if (op < 30 || live.empty()) {
      const double t = pick_time();
      const std::uint64_t arg = next_arg++;
      const std::uint64_t seq = q.next_seq();
      const EventId id = q.push(t, ev(arg));
      model.emplace(t, seq, arg);
      live[arg] = {id, t, seq};
    } else if (op < 38) {
      if (reserved.empty()) {
        const std::uint64_t first = q.next_seq();
        q.set_next_seq(first + 4);
        for (std::uint64_t s = first; s < first + 4; ++s) reserved.push_back(s);
      }
      const std::uint64_t seq = reserved.front();
      reserved.erase(reserved.begin());
      const double t = pick_time();
      const std::uint64_t arg = next_arg++;
      const EventId id = q.push_reserved(t, seq, ev(arg));
      model.emplace(t, seq, arg);
      live[arg] = {id, t, seq};
    } else if (op < 55) {
      const auto it = pick_live();
      ASSERT_TRUE(q.cancel(it->second.id));
      model.erase({it->second.time, it->second.seq, it->first});
      stale.push_back(it->second.id);
      live.erase(it);
    } else if (op < 75) {
      const auto it = pick_live();
      const double t = pick_time();
      const std::uint64_t seq = q.next_seq();
      ASSERT_TRUE(q.reschedule(it->second.id, t));
      ASSERT_EQ(q.next_seq(), seq + 1);
      model.erase({it->second.time, it->second.seq, it->first});
      model.emplace(t, seq, it->first);
      it->second.time = t;
      it->second.seq = seq;
    } else if (op < 95) {
      const auto [time, event] = q.pop();
      ASSERT_FALSE(model.empty());
      const auto [want_time, want_seq, want_arg] = *model.begin();
      ASSERT_EQ(time, want_time);
      ASSERT_EQ(event.arg, want_arg);
      model.erase(model.begin());
      stale.push_back(live.at(want_arg).id);
      live.erase(want_arg);
      now = time;
    } else if (op < 98 && !stale.empty()) {
      // A stale id acts on nothing, whichever event now holds its slot.
      const EventId id = stale[rng.uniform_int(0, stale.size() - 1)];
      const std::uint64_t seq = q.next_seq();
      EXPECT_EQ(q.find(id), nullptr);
      EXPECT_FALSE(q.cancel(id));
      EXPECT_FALSE(q.reschedule(id, now));
      EXPECT_EQ(q.next_seq(), seq);
    } else {
      // Copy mid-churn and carry on with the copy; the source drains in
      // the model's order.
      EventQueue copy(q);
      std::vector<std::uint64_t> want;
      for (const auto& [time, seq, arg] : model) want.push_back(arg);
      EXPECT_EQ(drain(q), want);
      q = copy;
    }
    ASSERT_EQ(q.size(), model.size());
    ASSERT_TRUE(q.consistent()) << "step " << step;
    if (step % 64 == 0) {
      for (const auto& [arg, p] : live) {
        const Event* found = q.find(p.id);
        ASSERT_NE(found, nullptr);
        EXPECT_EQ(found->arg, arg);
      }
    }
  }
  std::vector<std::uint64_t> want;
  for (const auto& [time, seq, arg] : model) want.push_back(arg);
  EXPECT_EQ(drain(q), want);
}

TEST(SimulationTest, RunUntilAdvancesClockToDeadlineWhenIdle) {
  Simulation sim;
  ClosureEvents events(sim);
  events.at(1.0, [] {});
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);  // idle gap still advances the clock
}

// ---- Forks: a Simulation copy carries the pending events as data -------

/// A component that logs the events it receives as (time, kind, arg).
class Recorder final : public EventTarget {
 public:
  struct Fired {
    double time;
    std::uint32_t kind;
    std::uint64_t arg;
    friend bool operator==(const Fired&, const Fired&) = default;
  };

  explicit Recorder(Simulation& sim)
      : sim_(sim), id_(sim.register_target(*this)) {}
  /// The clone of `src` on `dst`, a copy of `src`'s engine.
  Recorder(Simulation& dst, const Recorder& src)
      : sim_(dst), id_(dst.register_target(*this, src.id_)) {}

  void on_event(std::uint32_t kind, std::uint64_t arg) override {
    fired.push_back({sim_.now(), kind, arg});
  }
  EventId schedule(double t, std::uint32_t kind, std::uint64_t arg) {
    return sim_.schedule_at(t, {id_, kind, arg});
  }
  [[nodiscard]] TargetId id() const { return id_; }

  std::vector<Fired> fired;

 private:
  Simulation& sim_;
  TargetId id_;
};

TEST(SimulationForkTest, CopyCarriesClockSeqAndEveryPendingEvent) {
  Simulation src;
  Recorder a(src);
  Recorder b(src);
  a.schedule(1.0, 1, 10);
  const EventId cancelled = b.schedule(2.0, 2, 20);
  a.schedule(3.0, 1, 30);
  b.schedule(3.0, 2, 40);  // same time as a's: FIFO by seq
  src.cancel(cancelled);
  src.run_until(1.5);

  Simulation copy(src);
  Recorder a2(copy, a);
  Recorder b2(copy, b);
  copy.verify_fork();
  EXPECT_EQ(copy.now(), src.now());
  EXPECT_EQ(copy.events_processed(), src.events_processed());
  EXPECT_EQ(copy.pending_events(), src.pending_events());
  EXPECT_EQ(copy.pending_events_of(a2.id()), 1u);
  EXPECT_EQ(copy.pending_events_of(b2.id()), 1u);
  EXPECT_EQ(copy.find_pending(cancelled), nullptr);

  // Same seq counter: an event scheduled now at t = 3 pops after both.
  a.schedule(3.0, 3, 50);
  a2.schedule(3.0, 3, 50);
  src.run();
  copy.run();
  EXPECT_EQ(a2.fired, std::vector<Recorder::Fired>(a.fired.begin() + 1,
                                                   a.fired.end()));
  EXPECT_EQ(b2.fired, b.fired);
  ASSERT_EQ(a2.fired.size(), 2u);
  EXPECT_EQ(a2.fired[0].arg, 30u);
  EXPECT_EQ(a2.fired[1].arg, 50u);
  EXPECT_EQ(copy.events_processed(), src.events_processed());
}

TEST(SimulationForkTest, CancellingASourceIdInTheCopyLeavesTheSourceAlone) {
  Simulation src;
  Recorder a(src);
  const EventId id = a.schedule(5.0, 1, 7);
  a.schedule(6.0, 1, 8);

  Simulation copy(src);
  Recorder a2(copy, a);
  copy.verify_fork();
  ASSERT_NE(copy.find_pending(id), nullptr);
  EXPECT_EQ(copy.find_pending(id)->arg, 7u);
  EXPECT_TRUE(copy.cancel(id));
  EXPECT_EQ(copy.find_pending(id), nullptr);
  ASSERT_NE(src.find_pending(id), nullptr);  // the source still has it

  src.run();
  copy.run();
  EXPECT_EQ(a.fired.size(), 2u);
  ASSERT_EQ(a2.fired.size(), 1u);
  EXPECT_EQ(a2.fired[0].arg, 8u);
}

TEST(SimulationTest, RescheduledEventLosesATieToAnEarlierSchedule) {
  Simulation sim;
  Recorder a(sim);
  const EventId moved = a.schedule(5.0, 1, 1);
  a.schedule(3.0, 1, 2);  // scheduled before the reschedule
  ASSERT_TRUE(sim.reschedule(moved, 3.0));
  a.schedule(3.0, 1, 3);  // scheduled after it
  ASSERT_NE(sim.find_pending(moved), nullptr);
  EXPECT_EQ(sim.find_pending(moved)->arg, 1u);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run();
  ASSERT_EQ(a.fired.size(), 3u);
  EXPECT_EQ(a.fired[0].arg, 2u);
  EXPECT_EQ(a.fired[1].arg, 1u);
  EXPECT_EQ(a.fired[2].arg, 3u);
  EXPECT_EQ(a.fired[1].time, 3.0);
  EXPECT_FALSE(sim.reschedule(moved, 4.0));
}

TEST(SimulationForkTest, CopyWithADifferentTargetCountThrows) {
  Simulation src;
  Recorder a(src);
  Recorder b(src);
  a.schedule(1.0, 0, 0);

  Simulation fewer(src);
  Recorder a2(fewer, a);
  EXPECT_THROW(fewer.verify_fork(), std::runtime_error);

  Simulation more(src);
  Recorder a3(more, a);
  Recorder b3(more, b);
  Recorder extra(more);
  EXPECT_THROW(more.verify_fork(), std::runtime_error);
}

TEST(SimulationForkTest, ClosureEventsFailTheForkCheck) {
  // Closures capture pointers into the source, so nothing re-registers
  // them on a copy: copying an engine that has them must not pass.
  Simulation src;
  ClosureEvents events(src);
  events.at(1.0, [] {});
  Simulation copy(src);
  EXPECT_THROW(copy.verify_fork(), std::runtime_error);
}

TEST(RngStreamTest, DeterministicForSameSeed) {
  RngStream a(123);
  RngStream b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngStreamTest, DifferentSeedsDiffer) {
  RngStream a(1);
  RngStream b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngStreamTest, NamedSubstreamsAreIndependentAndStable) {
  RngStream root(7);
  RngStream s1 = root.substream("alpha");
  RngStream s2 = root.substream("beta");
  RngStream s1_again = root.substream("alpha");
  EXPECT_EQ(s1.next(), s1_again.next());
  EXPECT_NE(s1.next(), s2.next());
}

TEST(RngStreamTest, SubstreamDoesNotAdvanceParent) {
  RngStream a(99);
  RngStream b(99);
  (void)a.substream("x");
  (void)a.substream(42u);
  EXPECT_EQ(a.next(), b.next());
}

TEST(RngStreamTest, NextDoubleInUnitInterval) {
  RngStream r(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngStreamTest, UniformIntStaysInBounds) {
  RngStream r(5);
  for (int i = 0; i < 1000; ++i) {
    const auto x = r.uniform_int(10, 20);
    EXPECT_GE(x, 10u);
    EXPECT_LE(x, 20u);
  }
}

TEST(RngStreamTest, UniformIntCoversRange) {
  RngStream r(5);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 1000; ++i) ++seen[r.uniform_int(0, 4)];
  for (int count : seen) EXPECT_GT(count, 100);
}

}  // namespace
