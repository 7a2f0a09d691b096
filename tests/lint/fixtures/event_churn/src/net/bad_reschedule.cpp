// Negative fixture: per-item timer churn through reschedule() — one call
// is a cancel and a schedule, so a loop of them re-arms N timers per
// pass. cbs_lint must report [event-churn] here too.
#include <vector>

namespace cbs::sim {
struct EventId {};
struct Simulation {
  bool reschedule(EventId id, double t);
};
}  // namespace cbs::sim

namespace cbs::net {

struct Active {
  cbs::sim::EventId completion;
  double eta = 0.0;
};

void move_all(cbs::sim::Simulation& sim, std::vector<Active>& transfers) {
  for (Active& t : transfers) {
    sim.reschedule(t.completion, t.eta);
  }
}

}  // namespace cbs::net
