#include "net/link.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace cbs::net {

using cbs::sim::SimTime;

// --- HotPool: the SoA allocation arrays --------------------------------

std::size_t LinkState::HotPool::lower_bound(double d,
                                            TransferId t) const noexcept {
  std::size_t lo = 0;
  std::size_t hi = id.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (demand[mid] < d || (demand[mid] == d && id[mid] < t)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::size_t LinkState::HotPool::find(double d, TransferId t) const noexcept {
  const std::size_t pos = lower_bound(d, t);
  return (pos < id.size() && id[pos] == t) ? pos : npos;
}

void LinkState::HotPool::insert(std::size_t pos, TransferId t, double d,
                                double remaining, SimTime now) {
  id.insert(id.begin() + static_cast<std::ptrdiff_t>(pos), t);
  demand.insert(demand.begin() + static_cast<std::ptrdiff_t>(pos), d);
  rate.insert(rate.begin() + static_cast<std::ptrdiff_t>(pos), 0.0);
  bytes_remaining.insert(
      bytes_remaining.begin() + static_cast<std::ptrdiff_t>(pos), remaining);
  last_progress.insert(last_progress.begin() + static_cast<std::ptrdiff_t>(pos),
                       now);
  completion_time.insert(
      completion_time.begin() + static_cast<std::ptrdiff_t>(pos),
      cbs::sim::kTimeInfinity);
}

void LinkState::HotPool::erase(std::size_t pos) {
  id.erase(id.begin() + static_cast<std::ptrdiff_t>(pos));
  demand.erase(demand.begin() + static_cast<std::ptrdiff_t>(pos));
  rate.erase(rate.begin() + static_cast<std::ptrdiff_t>(pos));
  bytes_remaining.erase(bytes_remaining.begin() +
                        static_cast<std::ptrdiff_t>(pos));
  last_progress.erase(last_progress.begin() + static_cast<std::ptrdiff_t>(pos));
  completion_time.erase(completion_time.begin() +
                        static_cast<std::ptrdiff_t>(pos));
}

void LinkState::HotPool::reserve(std::size_t n) {
  id.reserve(n);
  demand.reserve(n);
  rate.reserve(n);
  bytes_remaining.reserve(n);
  last_progress.reserve(n);
  completion_time.reserve(n);
}

// --- Link --------------------------------------------------------------

LinkState::LinkState(std::size_t index, LinkConfig config,
                     cbs::sim::RngStream rng)
    : index_(index),
      config_(std::move(config)),
      noise_(config_.noise_rho, config_.noise_sigma, config_.noise_step,
             rng.substream("noise")) {}

Link::Link(cbs::sim::Simulation& sim, LinkOwner& owner, std::size_t index,
           LinkConfig config, cbs::sim::RngStream rng)
    : LinkState(index, std::move(config), rng),
      sim_(sim),
      target_(sim.register_target(*this)),
      owner_(owner) {
  assert(config_.base_rate > 0.0);
  assert(config_.per_connection_cap > 0.0);
}

double Link::true_capacity_now() {
  const SimTime t = sim_.now();
  const double raw = config_.base_rate * config_.profile.multiplier_at(t) *
                     throttle_factor(config_.throttles, t) *
                     noise_.multiplier_at(t);
  return std::max(raw, config_.base_rate * kMinCapacityFraction);
}

Link::Link(cbs::sim::Simulation& dst, LinkOwner& owner, const Link& src)
    : LinkState(src),
      sim_(dst),
      target_(dst.register_target(*this, src.target_)),
      owner_(owner) {}

void Link::on_event(std::uint32_t kind, std::uint64_t id) {
  switch (kind) {
    case kActivate: activate(id); return;
    case kTimer: on_timer(); return;
    case kTick: on_tick(); return;
  }
  assert(false && "unknown Link event");
}

void Link::reserve_transfers(std::size_t expected) {
  hot_.reserve(expected);
}

TransferId Link::submit(double bytes, int threads, std::uint32_t kind,
                        std::uint64_t tag) {
  assert(bytes > 0.0);
  assert(threads >= 1);
  const TransferId id = next_id_++;
  Cold& c = cold_.insert(id);
  c.bytes_total = bytes;
  c.threads = threads;
  c.requested = sim_.now();
  c.kind = kind;
  c.tag = tag;
  schedule_activation(id, config_.setup_latency);
  return id;
}

void Link::schedule_activation(TransferId id, cbs::sim::SimDuration delay) {
  cold_.at(id).activation_event =
      sim_.schedule_in(delay, {target_, kActivate, id});
}

void Link::activate(TransferId id) {
  Cold& c = cold_.at(id);
  if (outage_) {
    // The link is down: hold the connection attempt until the outage
    // lifts (set_outage(false) reactivates every waiting transfer).
    c.waiting_outage = true;
    return;
  }
  c.activated = true;
  if (c.started == 0.0) c.started = sim_.now();
  note_busy_transition();
  progress_all();
  // progress_all() mutates only the hot pool, never cold_'s structure, so
  // `c` is still valid here.
  const double d = demand_of(c);
  hot_.insert(hot_.lower_bound(d, id), id, d, c.bytes_total, sim_.now());
  dirty_ = true;
  flush();
  ensure_tick();
}

void Link::progress_all() {
  const SimTime now = sim_.now();
  const std::size_t n = hot_.size();
  // Every pool entry is activated by construction — transfers still in
  // connection setup never enter the hot arrays, so there is nothing to
  // skip. Integration is per-transfer arithmetic with no side effects, so
  // the pool's demand order gives the same bytes as any other order.
  for (std::size_t i = 0; i < n; ++i) {
    hot_.bytes_remaining[i] = std::max(
        0.0, hot_.bytes_remaining[i] -
                 hot_.rate[i] * (now - hot_.last_progress[i]));
    hot_.last_progress[i] = now;
  }
}

void Link::run_pass() {
  const double capacity = true_capacity_now();
  const SimTime now = sim_.now();
  last_pass_capacity_ = capacity;

  // Progressive water-filling by ascending demand: transfers whose thread
  // demand is below the fair share keep their demand; the slack is shared
  // among the rest. The hot arrays are already in (demand, id) order, so
  // this is one forward stream — no sort, no gather.
  const std::size_t n = hot_.size();
  double remaining_capacity = capacity;
  std::size_t remaining_count = n;
  SimTime next = cbs::sim::kTimeInfinity;
  for (std::size_t i = 0; i < n; ++i) {
    const double fair_share =
        remaining_capacity / static_cast<double>(remaining_count);
    const double rate = std::min(hot_.demand[i], fair_share);
    hot_.rate[i] = rate;
    remaining_capacity -= rate;
    --remaining_count;
    const SimTime done = rate > 0.0 ? now + hot_.bytes_remaining[i] / rate
                                    : cbs::sim::kTimeInfinity;
    hot_.completion_time[i] = done;
    next = std::min(next, done);
  }
  next_completion_ = next;
  dirty_ = false;
  last_pass_time_ = now;
}

void Link::flush() {
  if (dirty_ || last_pass_time_ != sim_.now()) run_pass();
  // Unconditionally re-arm the completion timer, even when the pass was
  // skipped: the re-arm takes a fresh seq, so same-timestamp FIFO order
  // holds against events other components scheduled in between.
  if (next_completion_ == cbs::sim::kTimeInfinity) {
    if (timer_armed_) {
      sim_.cancel(timer_event_);
      timer_armed_ = false;
      timer_event_ = cbs::sim::EventId{};
    }
  } else if (timer_armed_) {
    const bool moved = sim_.reschedule(timer_event_, next_completion_);
    assert(moved);
    (void)moved;
  } else {
    timer_event_ = sim_.schedule_at(next_completion_, {target_, kTimer, 0});
    timer_armed_ = true;
  }
}

void Link::on_timer() {
  timer_armed_ = false;
  timer_event_ = cbs::sim::EventId{};
  assert(!hot_.empty());
  if (hot_.empty()) return;
  progress_all();
  const SimTime now = sim_.now();
  // The due completion: smallest id whose ETA is bit-equal to now (the
  // timer was armed at exactly that stored value). Ties fire one per timer
  // round-trip, ascending id — the order the per-transfer events fired in,
  // since they were scheduled in id order by the last reallocation.
  std::size_t due = HotPool::npos;
  for (std::size_t i = 0; i < hot_.size(); ++i) {
    if (hot_.completion_time[i] == now &&
        (due == HotPool::npos || hot_.id[i] < hot_.id[due])) {
      due = i;
    }
  }
  // The timer is armed only at a stored ETA, and every membership change
  // re-arms it, so some transfer is due.
  assert(due != HotPool::npos);
  const TransferId id = hot_.id[due];
  const Cold& c = cold_.at(id);
  // Floating-point progress integration can leave a few bytes of dust; the
  // timer was armed from the same arithmetic, so anything left here is
  // rounding noise.
  assert(hot_.bytes_remaining[due] < 1e-3 * std::max(1.0, c.bytes_total));
  TransferRecord rec;
  rec.id = id;
  rec.bytes = c.bytes_total;
  rec.threads = c.threads;
  rec.requested = c.requested;
  rec.started = c.started;
  rec.completed = now;
  bytes_delivered_ += c.bytes_total;
  const std::uint32_t kind = c.kind;
  const std::uint64_t tag = c.tag;
  hot_.erase(due);
  dirty_ = true;
  cold_.erase(id);
  note_busy_transition();
  flush();
  if (cold_.empty() && tick_scheduled_) {
    // No work left: drop the pending tick so the simulation can drain.
    sim_.cancel(tick_event_);
    tick_scheduled_ = false;
  }
  owner_.on_transfer_done(index_, kind, tag, rec);
}

bool Link::cancel(TransferId id) {
  const Cold* c = cold_.find(id);
  if (c == nullptr) return false;
  progress_all();
  sim_.cancel(c->activation_event);
  if (c->activated) {
    const std::size_t pos = hot_.find(demand_of(*c), id);
    assert(pos != HotPool::npos);
    wasted_bytes_ += c->bytes_total - hot_.bytes_remaining[pos];
    hot_.erase(pos);
    dirty_ = true;
  }
  cold_.erase(id);
  note_busy_transition();
  flush();
  if (cold_.empty() && tick_scheduled_) {
    sim_.cancel(tick_event_);
    tick_scheduled_ = false;
  }
  return true;
}

void Link::set_outage(bool down) {
  if (down == outage_) return;
  if (down) {
    // Sever every established connection: progress is lost, the transfer
    // parks until the outage lifts. Connection attempts still in setup
    // are parked by activate() when their event fires.
    progress_all();
    outage_ = true;
    cold_.for_each_in_seq_order([&](TransferId id, Cold& c) {
      if (!c.activated) return;
      const std::size_t pos = hot_.find(demand_of(c), id);
      assert(pos != HotPool::npos);
      wasted_bytes_ += c.bytes_total - hot_.bytes_remaining[pos];
      ++outage_aborts_;
      ++c.outage_aborts;
      c.activated = false;
      c.waiting_outage = true;
      hot_.erase(pos);
    });
    assert(hot_.empty());
    dirty_ = true;
    next_completion_ = cbs::sim::kTimeInfinity;
    // No transfer is flowing, so no completion is due: disarm the timer. A
    // stale timer would fire with nothing to complete and keep the run from
    // draining.
    if (timer_armed_) {
      sim_.cancel(timer_event_);
      timer_armed_ = false;
      timer_event_ = cbs::sim::EventId{};
    }
    return;
  }
  outage_ = false;
  cold_.for_each_in_seq_order([&](TransferId id, Cold& c) {
    if (!c.waiting_outage) return;
    c.waiting_outage = false;
    const double backoff =
        c.outage_aborts > 0
            ? std::min(cbs::sim::doubling_backoff(kOutageBackoffBase,
                                                  c.outage_aborts - 1),
                       kOutageMaxBackoff)
            : 0.0;
    schedule_activation(id, config_.setup_latency + backoff);
  });
}

void Link::ensure_tick() {
  if (tick_scheduled_ || cold_.empty()) return;
  tick_scheduled_ = true;
  tick_event_ = sim_.schedule_in(config_.noise_step, {target_, kTick, 0});
}

void Link::on_tick() {
  tick_scheduled_ = false;
  if (cold_.empty()) return;
  progress_all();
  flush();
  ensure_tick();
}

void Link::note_busy_transition() {
  const bool now_busy = !cold_.empty();
  if (now_busy && !busy_) {
    busy_since_ = sim_.now();
    busy_ = true;
  } else if (!now_busy && busy_) {
    busy_accum_ += sim_.now() - busy_since_;
    busy_ = false;
  }
}

double Link::busy_time() const {
  return busy_accum_ + (busy_ ? sim_.now() - busy_since_ : 0.0);
}

std::vector<Link::RateSample> Link::current_rates() const {
  std::vector<RateSample> out;
  out.reserve(hot_.size());
  cold_.for_each_in_seq_order([&](TransferId id, const Cold& c) {
    if (!c.activated) return;
    const std::size_t pos = hot_.find(c.threads * config_.per_connection_cap, id);
    assert(pos != HotPool::npos);
    out.push_back(RateSample{id, c.threads, hot_.rate[pos]});
  });
  return out;
}

}  // namespace cbs::net
