// Validation of the simulation substrates against closed-form queueing
// theory: if the cluster is a faithful M/M/c queue and the fluid link a
// faithful M/M/1-PS queue, their simulated waiting/sojourn times must match
// Erlang C and the PS sojourn formula. These tests catch subtle scheduling
// or capacity-accounting bugs that unit tests cannot.
#include <gtest/gtest.h>

#include <cmath>

#include "closure_events.hpp"
#include "compute/cluster.hpp"
#include "net/link.hpp"
#include "recording_owner.hpp"
#include "simcore/simulation.hpp"
#include "stats/distributions.hpp"
#include "stats/summary.hpp"

namespace {

using cbs::sim::RngStream;
using cbs::sim::Simulation;
using cbs::testing::RecordingOwner;

/// Erlang C: probability an arrival waits in an M/M/c queue.
double erlang_c(int c, double offered_load /* lambda/mu */) {
  double sum = 0.0;
  double term = 1.0;
  for (int k = 0; k < c; ++k) {
    if (k > 0) term *= offered_load / k;
    sum += term;
  }
  const double a_c = term * offered_load / c;  // a^c / c!
  const double rho = offered_load / c;
  const double p_wait = (a_c / (1.0 - rho)) / (sum + a_c / (1.0 - rho));
  return p_wait;
}

TEST(QueueingTheoryTest, ClusterMatchesErlangC) {
  // M/M/4 with rho = 0.7: mean wait = C(c, a) / (c*mu - lambda).
  const int c = 4;
  const double mu = 1.0 / 20.0;  // mean service 20 s
  const double lambda = 0.7 * c * mu;

  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  cbs::compute::Cluster cluster(sim, owner, 0, "mmc",
                                static_cast<std::size_t>(c));
  RngStream rng(42);

  const int n_jobs = 60000;
  double t = 0.0;
  for (int i = 0; i < n_jobs; ++i) {
    t += cbs::stats::sample_exponential(rng, lambda);
    const double service = cbs::stats::sample_exponential(rng, mu);
    events.at(t, [&cluster, service] { cluster.submit(service, 0, 0); });
  }
  sim.run();
  cbs::stats::Summary waits;
  for (const auto& rec : owner.tasks) waits.add(rec.started - rec.enqueued);

  const double offered = lambda / mu;
  const double expected_wait = erlang_c(c, offered) / (c * mu - lambda);
  ASSERT_EQ(waits.count(), static_cast<std::size_t>(n_jobs));
  EXPECT_NEAR(waits.mean(), expected_wait, 0.08 * expected_wait)
      << "Erlang-C mean wait " << expected_wait << " vs simulated "
      << waits.mean();
}

TEST(QueueingTheoryTest, ClusterUtilizationMatchesRho) {
  const int c = 4;
  const double mu = 1.0 / 20.0;
  const double lambda = 0.6 * c * mu;
  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  RecordingOwner owner(sim);
  cbs::compute::Cluster cluster(sim, owner, 0, "mmc",
                                static_cast<std::size_t>(c));
  RngStream rng(7);
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += cbs::stats::sample_exponential(rng, lambda);
    const double service = cbs::stats::sample_exponential(rng, mu);
    events.at(t, [&cluster, service] { cluster.submit(service, 0, 0); });
  }
  sim.run();
  const double util =
      cluster.total_busy_time() / (static_cast<double>(c) * sim.now());
  EXPECT_NEAR(util, 0.6, 0.03);
}

TEST(QueueingTheoryTest, LinkIsProcessorSharing) {
  // M/M/1-PS at rho = 0.6: mean sojourn = (1/mu) / (1 - rho), identical to
  // M/M/1-FCFS — but realized through simultaneous sharing, which is what
  // the fluid link implements when every transfer can saturate the pipe.
  const double capacity = 1.0e6;             // bytes/s
  const double mean_bytes = 4.0e6;           // => mean service 4 s
  const double mu = capacity / mean_bytes;   // service rate 0.25 /s
  const double rho = 0.6;
  const double lambda = rho * mu;

  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  cbs::net::LinkConfig cfg;
  cfg.base_rate = capacity;
  cfg.per_connection_cap = capacity;  // each transfer can use the full pipe
  cfg.noise_sigma = 0.0;
  cfg.setup_latency = 0.0;
  RecordingOwner owner(sim);
  cbs::net::Link link(sim, owner, 0, cfg, RngStream(1));

  RngStream rng(99);
  double t = 0.0;
  const int n = 30000;
  for (int i = 0; i < n; ++i) {
    t += cbs::stats::sample_exponential(rng, lambda);
    const double bytes = capacity * cbs::stats::sample_exponential(rng, mu);
    events.at(t, [&link, bytes] { link.submit(bytes, 1, 0, 0); });
  }
  sim.run();
  cbs::stats::Summary sojourns;
  for (const auto& done : owner.transfers) {
    sojourns.add(done.rec.completed - done.rec.requested);
  }

  const double expected = (1.0 / mu) / (1.0 - rho);
  ASSERT_EQ(sojourns.count(), static_cast<std::size_t>(n));
  EXPECT_NEAR(sojourns.mean(), expected, 0.08 * expected)
      << "M/M/1-PS sojourn " << expected << " vs simulated " << sojourns.mean();
}

TEST(QueueingTheoryTest, LinkPsIsInsensitiveToServiceDistribution) {
  // The PS queue's mean sojourn depends on the service law only through its
  // mean (insensitivity property). Run deterministic sizes at the same load
  // and expect the same mean sojourn as the exponential case.
  const double capacity = 1.0e6;
  const double mean_bytes = 4.0e6;
  const double mu = capacity / mean_bytes;
  const double rho = 0.6;
  const double lambda = rho * mu;

  Simulation sim;
  cbs::testing::ClosureEvents events(sim);
  cbs::net::LinkConfig cfg;
  cfg.base_rate = capacity;
  cfg.per_connection_cap = capacity;
  cfg.noise_sigma = 0.0;
  cfg.setup_latency = 0.0;
  RecordingOwner owner(sim);
  cbs::net::Link link(sim, owner, 0, cfg, RngStream(2));

  RngStream rng(5);
  double t = 0.0;
  for (int i = 0; i < 30000; ++i) {
    t += cbs::stats::sample_exponential(rng, lambda);
    events.at(t, [&link] { link.submit(4.0e6, 1, 0, 0); });
  }
  sim.run();
  cbs::stats::Summary sojourns;
  for (const auto& done : owner.transfers) {
    sojourns.add(done.rec.completed - done.rec.requested);
  }
  const double expected = (1.0 / mu) / (1.0 - rho);
  EXPECT_NEAR(sojourns.mean(), expected, 0.10 * expected);
}

}  // namespace
