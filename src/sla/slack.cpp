#include "sla/slack.hpp"

#include <cassert>

namespace cbs::sla {

using cbs::sim::SimDuration;
using cbs::sim::SimTime;

bool satisfies_slack(SimTime external_finish_estimate, SimTime slack,
                     SimDuration safety_margin) {
  assert(safety_margin >= 0.0);
  return external_finish_estimate + safety_margin <= slack;
}

}  // namespace cbs::sla
