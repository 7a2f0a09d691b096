#include "net/bandwidth_estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "net/time_of_day.hpp"

namespace cbs::net {

using cbs::sim::kDay;
using cbs::sim::SimTime;

namespace {
/// Days a transfer estimate integrates over before it extrapolates.
constexpr std::size_t kMaxDays = 7;
/// EWMA weight of the newest sample (§III.A.2's α).
constexpr double kAlpha = 0.3;
}  // namespace

BandwidthEstimator::BandwidthEstimator(Config config)
    : config_(config),
      slot_ewmas_(config.slots_per_day, Ewma(kAlpha)),
      global_ewma_(kAlpha) {
  assert(config.slots_per_day > 0);
  assert(config.prior_rate > 0.0);
}

std::size_t BandwidthEstimator::slot_of(SimTime t) const {
  return day_slot(t, config_.slots_per_day);
}

void BandwidthEstimator::observe(SimTime t, double rate) {
  assert(rate >= 0.0);
  slot_ewmas_[slot_of(t)].observe(rate);
  global_ewma_.observe(rate);
  last_observed_ = rate;
  ++observations_;
  table_stale_ = true;
}

double BandwidthEstimator::slot_estimate(std::size_t slot) const {
  assert(slot < slot_ewmas_.size());
  if (slot_ewmas_[slot].has_value()) return slot_ewmas_[slot].value();
  if (global_ewma_.has_value()) return global_ewma_.value();
  return config_.prior_rate;
}

double BandwidthEstimator::estimate(SimTime t) const {
  return slot_estimate(slot_of(t));
}

void BandwidthEstimator::rebuild_table() const {
  const std::size_t slots = config_.slots_per_day;
  const double slot_seconds = kDay / static_cast<double>(slots);
  rate_.resize(slots);
  movable_.assign(slots + 1, 0.0);
  for (std::size_t k = 0; k < slots; ++k) {
    rate_[k] = std::max(slot_estimate(k), 1.0);
    movable_[k + 1] = movable_[k] + rate_[k] * slot_seconds;
  }
  min_rate_ = *std::min_element(rate_.begin(), rate_.end());
  table_stale_ = false;
  ++work_.table_rebuilds;
}

double BandwidthEstimator::movable_in(std::size_t first, std::size_t m) const {
  const std::size_t slots = config_.slots_per_day;
  assert(first < slots && m <= slots);
  ++work_.search_steps;
  const std::size_t end = first + m;
  if (end <= slots) return movable_[end] - movable_[first];
  return (movable_[slots] - movable_[first]) + movable_[end - slots];
}

double BandwidthEstimator::estimate_transfer_seconds(SimTime t, double bytes) const {
  assert(bytes >= 0.0);
  ++work_.queries;
  if (bytes <= 0.0) return 0.0;
  if (table_stale_) rebuild_table();
  const std::size_t slots = config_.slots_per_day;
  const double slot_seconds = kDay / static_cast<double>(slots);

  // The rest of t's slot.
  if (t != last_t_) {
    last_t_ = t;
    last_slot_ = slot_of(t);
    last_slot_end_ = (std::floor(t / slot_seconds) + 1.0) * slot_seconds;
    last_next_slot_ = kNoSlot;  // found below, if the transfer gets there
  }
  const double first_rate = rate_[last_slot_];
  const double first_end = last_slot_end_;
  const double first_window = first_end - t;
  if (first_rate * first_window >= bytes) return bytes / first_rate;
  double remaining = bytes - first_rate * first_window;
  double elapsed = first_window;

  // Then whole slots from `next` on, at most 7 days' worth with the first
  // slot counted. Any day of consecutive whole slots moves a day's
  // capacity, so whole days are skipped at once, keeping the last day
  // (and at least one byte) for the search.
  if (last_next_slot_ == kNoSlot) last_next_slot_ = slot_of(first_end);
  const std::size_t next = last_next_slot_;
  const double day_bytes = movable_[slots];
  double days = std::floor(remaining / day_bytes);
  if (days > 0.0 && days * day_bytes >= remaining) days -= 1.0;
  days = std::min(days, static_cast<double>(kMaxDays - 1));
  remaining -= days * day_bytes;
  elapsed += days * static_cast<double>(slots) * slot_seconds;
  const std::size_t budget =
      kMaxDays * slots - 1 - static_cast<std::size_t>(days) * slots;

  // The first m in [1, limit] whose slots move `remaining`, else limit.
  const std::size_t limit = std::min(budget, slots);
  std::size_t lo = std::min<std::size_t>(1, limit);
  std::size_t hi = limit;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (movable_in(next, mid) >= remaining) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const double through = movable_in(next, lo);
  if (through < remaining && limit == budget) {
    // The week is used up: extrapolate at the rate of the slot it ends in.
    elapsed += static_cast<double>(limit) * slot_seconds;
    return elapsed + (remaining - through) / rate_[(next + limit) % slots];
  }
  elapsed += static_cast<double>(lo - 1) * slot_seconds;
  return elapsed + (remaining - movable_in(next, lo - 1)) /
                       rate_[(next + lo - 1) % slots];
}

double BandwidthEstimator::transfer_seconds_floor(double seconds,
                                                  double bytes) const {
  if (seconds <= 0.0) return 0.0;
  // The query that gave `seconds` left the table fresh. A step back at a
  // seam is a few roundings of a byte count no larger than a week's bytes
  // plus `bytes`, moved at some slot's rate, and of the seconds summed.
  assert(!table_stale_);
  const double week_bytes = static_cast<double>(kMaxDays) * movable_.back();
  const double rounding =
      0x1p-40 * (seconds + (week_bytes + bytes) / min_rate_);
  return std::max(0.0, seconds - rounding);
}

}  // namespace cbs::net
