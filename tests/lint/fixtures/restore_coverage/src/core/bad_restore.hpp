// Negative fixture for [restore-coverage]: Pinger stores an EventId and
// schedules events, but defines no clone constructor copying the id — a
// fork would carry the event with no handle to cancel it.
#pragma once

namespace cbs::core {

class Pinger {
 public:
  explicit Pinger(Simulation& sim) : sim_(sim) {}
  void arm() { timer_ = sim_.schedule_in(1.0, {}); }

 private:
  Simulation& sim_;
  EventId timer_{};
};

// Partial coverage: the clone constructor copies one of two ids — the
// report must name `lost_` specifically.
class DoublePinger {
 public:
  explicit DoublePinger(Simulation& sim) : sim_(sim) {}
  DoublePinger(Simulation& dst, const DoublePinger& src)
      : sim_(dst), kept_(src.kept_) {}
  void arm() {
    kept_ = sim_.schedule_in(1.0, {});
    lost_ = sim_.schedule_in(2.0, {});
  }

 private:
  Simulation& sim_;
  EventId kept_{};
  EventId lost_{};
};

}  // namespace cbs::core
