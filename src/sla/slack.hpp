#pragma once

#include "simcore/time.hpp"

namespace cbs::sla {

/// Slackness of §II.A. The slack of the i-th queued job is the latest of
/// the estimated completion times of the jobs preceding it (Eq. 1):
///
///   slack(j_i) = max(T_i),  T_i = { t_c^e(i') : i' < i }
///
/// and j_i may be bursted when its full external round trip finishes within
/// that cushion (Eq. 2):
///
///   slack(j_i) >= t^e(i) + s_i/l(t_i) + o_i/l(t_i + t')
///
/// Both sides are absolute times here (the harness works in absolute sim
/// time). core::BeliefState keeps Eq. 1's cushion (slack()) and prices
/// Eq. 2's round trip (ft_ec_within()); this header holds the test that
/// compares them.

/// The burst admission test of Algorithm 2, line 12: the estimated external
/// finish must not exceed the slack (with an optional safety margin τ —
/// §IV says the bursted output should be needed "only a small time τ before
/// the jobs preceding it complete", i.e. finishing τ early is the target).
[[nodiscard]] bool satisfies_slack(cbs::sim::SimTime external_finish_estimate,
                                   cbs::sim::SimTime slack,
                                   cbs::sim::SimDuration safety_margin = 0.0);

}  // namespace cbs::sla
