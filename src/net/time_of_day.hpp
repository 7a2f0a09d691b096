#pragma once

#include <cstddef>

#include "simcore/time.hpp"

namespace cbs::net {

/// std::fmod(t, kDay), bit for bit, without fmod's loop for the times a run
/// reaches (see time_of_day.cpp).
[[nodiscard]] double day_remainder(cbs::sim::SimTime t) noexcept;

/// The slot of the day that `t` falls in, the day cut into `slots` equal
/// slots from midnight (negative times wrap back from midnight).
[[nodiscard]] std::size_t day_slot(cbs::sim::SimTime t,
                                   std::size_t slots) noexcept;

}  // namespace cbs::net
