// Positive fixture: a forkable component that satisfies all three
// structural rule families without waivers — the clone constructor copies
// every member, the stored event id included, and the include points down
// the module DAG. cbs_lint must exit 0 on this tree.
#pragma once

#include "simcore/simulation.hpp"

namespace cbs::core {

class GoodComponent {
 public:
  GoodComponent(Simulation& dst, const GoodComponent& src)
      : count_(src.count_), timer_(src.timer_) {
    static_cast<void>(dst);
  }

  void arm(Simulation& sim) { timer_ = sim.schedule_in(1.0, {}); }

 private:
  int count_ = 0;
  EventId timer_{};
};

}  // namespace cbs::core
