#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/bandwidth_profile.hpp"
#include "net/noise.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulation.hpp"
#include "util/flat_map.hpp"

namespace cbs::net {

/// Configuration of one link direction (upload or download). All rates are
/// bytes/second.
struct LinkConfig {
  std::string name = "link";
  /// Capacity at diurnal multiplier 1 and noise multiplier 1.
  double base_rate = 250.0e3;
  DiurnalProfile profile = DiurnalProfile::flat();
  /// AR(1) capacity noise (see Ar1LogNoise). sigma = 0 disables noise.
  double noise_rho = 0.9;
  double noise_sigma = 0.0;
  cbs::sim::SimDuration noise_step = 30.0;
  /// Per-connection (thread) throughput cap — why parallel threads are
  /// needed to saturate the pipe (paper Fig. 4b).
  double per_connection_cap = 64.0e3;
  /// Fixed connection-establishment delay before a transfer starts moving.
  cbs::sim::SimDuration setup_latency = 0.5;
  std::vector<ThrottleEpisode> throttles;
};

/// Capacity never drops below this fraction of base_rate, so transfers
/// always make progress and every run terminates.
inline constexpr double kMinCapacityFraction = 0.02;
/// Outage reconnect policy (Link::set_outage): a transfer severed by its
/// n-th outage reconnects `setup_latency + min(kOutageMaxBackoff,
/// kOutageBackoffBase × 2^(n-1))` after the outage lifts — exponential
/// backoff per repeated abort of the same transfer, fully deterministic.
inline constexpr cbs::sim::SimDuration kOutageBackoffBase = 1.0;
inline constexpr cbs::sim::SimDuration kOutageMaxBackoff = 60.0;

using TransferId = std::uint64_t;

/// Everything known about a finished transfer.
struct TransferRecord {
  TransferId id = 0;
  double bytes = 0.0;
  int threads = 1;
  cbs::sim::SimTime requested = 0.0;  ///< submit() time
  cbs::sim::SimTime started = 0.0;    ///< after setup latency
  cbs::sim::SimTime completed = 0.0;

  /// Throughput over the data-moving phase only.
  [[nodiscard]] double transfer_rate() const {
    const double dt = completed - started;
    return dt > 0.0 ? bytes / dt : 0.0;
  }
};

/// What a Link reports finished transfers to. The link calls its owner
/// once per transfer, when the last byte lands; `link` is the index the
/// owner gave the link at construction, and `kind` and `tag` are what the
/// transfer was submitted with.
class LinkOwner {
 public:
  virtual void on_transfer_done(std::size_t link, std::uint32_t kind,
                                std::uint64_t tag,
                                const TransferRecord& rec) = 0;

 protected:
  ~LinkOwner() = default;
};

/// One direction of the inter-cloud pipe, modeled as a fluid-flow shared
/// channel:
///
///  * instantaneous capacity c(t) = base · diurnal(t) · throttle(t) · noise(t),
///    piecewise-constant between allocation events;
///  * each active transfer demands `threads × per_connection_cap`;
///  * capacity is divided by progressive (water-filling) max-min fairness,
///    so a transfer never receives more than its thread demand — this is
///    exactly why single-threaded transfers cannot saturate the pipe;
///  * on every transfer start/finish and on a periodic tick (noise grid),
///    rates are recomputed and the completion timer rescheduled.
///
/// ## Data-oriented core (DESIGN.md §14)
///
/// The allocation state is split hot/cold. Activated transfers live in a
/// SoA pool (`HotPool`) kept sorted by (demand, id) — the exact order the
/// water-filling pass consumes — so a reallocation streams contiguous
/// arrays with no per-pass sort and no pointer chasing. Cold bookkeeping
/// (report kind and tag, outage counters, timestamps) sits in a `FlatMap`
/// keyed by the monotonically increasing `TransferId`, which doubles as the
/// generation check: ids are never reused, so a stale id can never alias a
/// later transfer. Membership changes only mark the link dirty; `flush()`
/// runs a single water-filling pass per event timestamp and re-arms ONE
/// per-link completion timer at the minimum ETA — O(1) event-queue traffic
/// per allocation instead of N cancels + N schedules.
///
/// The model conserves bytes exactly (see LinkTest.ConservesBytes) and is
/// fully deterministic given the seed.
class Link : private cbs::sim::EventTarget {
 public:
  /// A link that reports to `owner` under `index`.
  Link(cbs::sim::Simulation& sim, LinkOwner& owner, std::size_t index,
       LinkConfig config, cbs::sim::RngStream rng);
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Fork support: copies `src`'s value state (noise RNG position,
  /// active transfers, accounting, its index) into a link bound to `dst`,
  /// the copy of `src`'s engine, that reports to `owner`.
  Link(cbs::sim::Simulation& dst, LinkOwner& owner, const Link& src);

  /// Pre-sizes the transfer tables for `expected` concurrent transfers.
  /// Purely a performance hint; growth past it still works.
  void reserve_transfers(std::size_t expected);

  /// Starts a transfer of `bytes` using `threads` parallel connections.
  /// When the last byte lands, the owner gets `kind` and `tag` back — the
  /// in-flight transfer is plain data, so the link forks with it.
  TransferId submit(double bytes, int threads, std::uint32_t kind,
                    std::uint64_t tag);

  /// Aborts an in-flight transfer: progress so far is wasted, no completion
  /// fires. Returns false for an unknown/finished id. The controller's
  /// burst-retraction policy uses this to reclaim a stalled upload.
  bool cancel(TransferId id);

  /// Whole-link outage switch (an EC unreachable window). Entering an
  /// outage aborts every established connection — each active transfer
  /// loses its progress and waits; when the outage lifts, transfers
  /// reconnect after setup latency plus exponential backoff (see
  /// kOutageBackoffBase). Transfers submitted during an outage wait for it
  /// to lift. Idempotent per direction.
  void set_outage(bool down);

  /// Ground-truth capacity at the current sim time. Advances the noise
  /// process, so this is the *actual* instantaneous capacity (schedulers
  /// must not call this — they see only BandwidthEstimator).
  [[nodiscard]] double true_capacity_now();

  [[nodiscard]] std::size_t active_transfers() const noexcept { return cold_.size(); }
  [[nodiscard]] double total_bytes_delivered() const noexcept { return bytes_delivered_; }
  /// Total time during which at least one transfer was active.
  [[nodiscard]] double busy_time() const;
  /// Transfers whose connection was severed by an outage window.
  [[nodiscard]] std::uint64_t outage_aborts() const noexcept {
    return outage_aborts_;
  }
  /// Payload bytes moved and then lost — to outage aborts and cancelled
  /// transfers. Useful bytes are in
  /// total_bytes_delivered(); wasted + delivered is what the pipe carried.
  [[nodiscard]] double wasted_bytes() const noexcept { return wasted_bytes_; }
  [[nodiscard]] const LinkConfig& config() const noexcept { return config_; }

  // --- Allocation introspection (tests / diagnostics) -------------------

  /// One activated transfer's share of the pipe.
  struct RateSample {
    TransferId id = 0;
    int threads = 1;
    double rate = 0.0;
  };
  /// Current rate of every *activated* transfer, ascending id order.
  [[nodiscard]] std::vector<RateSample> current_rates() const;
  /// Capacity the most recent water-filling pass distributed.
  [[nodiscard]] double last_allocation_capacity() const noexcept {
    return last_pass_capacity_;
  }

 private:
  /// Cold per-transfer bookkeeping: everything the water-filling pass does
  /// NOT touch. Keyed by id in `cold_`, so every walk that has side effects
  /// (reports, events) visits transfers in ascending id order.
  struct Cold {
    double bytes_total = 0.0;
    int threads = 1;
    bool activated = false;  ///< setup latency elapsed; data is flowing
    bool waiting_outage = false;  ///< aborted; reconnects when outage lifts
    int outage_aborts = 0;  ///< outage severances (drives reconnect backoff)
    cbs::sim::SimTime requested = 0.0;
    cbs::sim::SimTime started = 0.0;
    cbs::sim::EventId activation_event{};
    std::uint32_t kind = 0;  ///< reported back to the owner
    std::uint64_t tag = 0;
  };

  /// SoA pool of activated transfers, sorted by (demand, id) — insertion
  /// keeps the order, so no pass ever sorts. All fields of index i belong
  /// to transfer id[i].
  struct HotPool {
    std::vector<TransferId> id;
    std::vector<double> demand;  ///< threads × per_connection_cap
    std::vector<double> rate;
    std::vector<double> bytes_remaining;
    std::vector<cbs::sim::SimTime> last_progress;
    /// Absolute ETA from the last pass; kTimeInfinity when rate == 0.
    std::vector<cbs::sim::SimTime> completion_time;

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    [[nodiscard]] std::size_t size() const noexcept { return id.size(); }
    [[nodiscard]] bool empty() const noexcept { return id.empty(); }
    [[nodiscard]] std::size_t lower_bound(double d, TransferId t) const noexcept;
    [[nodiscard]] std::size_t find(double d, TransferId t) const noexcept;
    void insert(std::size_t pos, TransferId t, double d, double remaining,
                cbs::sim::SimTime now);
    void erase(std::size_t pos);
    void reserve(std::size_t n);
  };

  [[nodiscard]] double demand_of(const Cold& c) const noexcept {
    return c.threads * config_.per_connection_cap;
  }

  enum : std::uint32_t { kActivate, kTimer, kTick };

  void on_event(std::uint32_t kind, std::uint64_t id) override;
  void activate(TransferId id);
  void schedule_activation(TransferId id, cbs::sim::SimDuration delay);
  void progress_all();
  /// Runs the water-filling pass if membership changed or time advanced
  /// since the last pass, then re-arms the completion timer. Call after
  /// every change to the set of flowing transfers or their rates; the re-arm
  /// is unconditional, so the timer always takes a fresh event seq and runs
  /// after every same-timestamp event scheduled before the change.
  void flush();
  void run_pass();
  void on_timer();
  void ensure_tick();
  void on_tick();
  void note_busy_transition();

  cbs::sim::Simulation& sim_;
  cbs::sim::TargetId target_;
  LinkOwner& owner_;
  std::size_t index_;
  LinkConfig config_;
  Ar1LogNoise noise_;
  std::uint64_t outage_aborts_ = 0;
  double wasted_bytes_ = 0.0;
  bool outage_ = false;
  HotPool hot_;
  cbs::util::FlatMap<TransferId, Cold> cold_;
  TransferId next_id_ = 1;
  double bytes_delivered_ = 0.0;
  // Batched-reallocation state: membership changes set dirty_; flush()
  // skips the arithmetic when neither membership nor the clock moved
  // (capacity and demands are pure functions of both).
  bool dirty_ = true;
  cbs::sim::SimTime last_pass_time_ = -1.0;
  double last_pass_capacity_ = 0.0;
  /// Minimum completion_time over the hot pool (kTimeInfinity when none).
  cbs::sim::SimTime next_completion_ = cbs::sim::kTimeInfinity;
  /// The single per-link completion timer (replaces per-transfer events).
  bool timer_armed_ = false;
  cbs::sim::EventId timer_event_{};
  bool tick_scheduled_ = false;
  cbs::sim::EventId tick_event_{};
  // Busy-time accounting.
  double busy_accum_ = 0.0;
  cbs::sim::SimTime busy_since_ = 0.0;
  bool busy_ = false;
};

}  // namespace cbs::net
