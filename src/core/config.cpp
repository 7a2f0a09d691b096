#include "core/config.hpp"

namespace cbs::core {

std::string_view to_string(SchedulerKind kind) noexcept {
  switch (kind) {
    case SchedulerKind::kIcOnly: return "ic-only";
    case SchedulerKind::kGreedy: return "greedy";
    case SchedulerKind::kOrderPreserving: return "order-preserving";
    case SchedulerKind::kBandwidthSplit: return "op-bandwidth-split";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kLookahead: return "lookahead";
  }
  return "?";
}

void set_link_noise(cbs::net::LinkConfig& link, bool high_network_variation) {
  // Normal regime: short-lived fluctuations (correlation time ~5 min).
  // High variation (Fig. 9/10): congestion epochs lasting tens of minutes —
  // the regime where transient-bandwidth decisions strand whole clusters of
  // bursted jobs behind a trough.
  link.noise_rho = high_network_variation ? 0.95 : 0.9;
  link.noise_sigma = high_network_variation ? 0.25 : 0.12;
  link.noise_step = high_network_variation ? 120.0 : 30.0;
}

ControllerConfig default_controller_config() {
  ControllerConfig cfg;

  // The pipe: a thin business line with a per-connection cap that requires
  // ~6 parallel threads to saturate (Fig. 4b), diurnal variation and AR(1)
  // noise. Calibrated against the default ground-truth law so a mean-size
  // document's one-way transfer is of the order of its processing time —
  // the paper's regime. (The paper quotes "250kbps" but moves hundreds of
  // MB per job in tens of minutes, so its unit is clearly not bits/s; we
  // keep everything in bytes/s.)
  EcSiteConfig& ec = cfg.ec_sites.front();
  ec.uplink.name = "uplink";
  ec.uplink.base_rate = 1.3e6;
  ec.uplink.per_connection_cap = 320.0e3;
  ec.uplink.profile = cbs::net::DiurnalProfile::business_pipe();
  set_link_noise(ec.uplink, false);
  ec.uplink.setup_latency = 0.3;

  ec.downlink = ec.uplink;
  ec.downlink.name = "downlink";
  ec.downlink.base_rate = 1.5e6;  // asymmetric line: downstream is wider

  cfg.bandwidth_prior_rate = 1.0e6;

  return cfg;
}

}  // namespace cbs::core
