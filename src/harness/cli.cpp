#include "harness/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace cbs::harness::cli {

namespace {

bool is_flag(const std::string& s) { return s.rfind("--", 0) == 0; }

/// parse(value of --key), or parse(fallback) when the flag is absent. An
/// error names the flag: a bare `--scheduler` reads as "true", and
/// "unknown scheduler: true" alone would not say where that came from.
template <typename Parse>
auto parse_flag(const Args& args, const std::string& key,
                const std::string& fallback, Parse parse) {
  try {
    return parse(args.get_or(key, fallback));
  } catch (const std::exception& e) {
    throw std::invalid_argument("--" + key + ": " + e.what());
  }
}

/// Digits only, so stoull cannot negate "-5" to 2^64 - 5; nullopt when
/// `token` is not a whole number in [0, 2^64).
std::optional<std::uint64_t> parse_u64(const std::string& token) {
  if (token.empty() ||
      std::isdigit(static_cast<unsigned char>(token.front())) == 0) {
    return std::nullopt;
  }
  std::size_t pos = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(token, &pos);
  } catch (const std::exception&) {
    return std::nullopt;  // out of range
  }
  if (pos != token.size()) return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

}  // namespace

std::uint64_t seed_from_args(const Args& args, std::uint64_t fallback) {
  const auto v = args.get("seed");
  if (!v) return fallback;
  if (!v->empty() && v->front() == '-') {
    throw std::invalid_argument("--seed must be >= 0");
  }
  const auto seed = parse_u64(*v);
  if (!seed) throw std::runtime_error("bad integer for --seed: '" + *v + "'");
  return *seed;
}

Args::Args(int argc, const char* const* argv,
           const std::vector<std::string>& known_flags) {
  for (int i = 1; i < argc; ++i) {
    std::string token = argv[i];
    if (!is_flag(token)) {
      positional_.push_back(std::move(token));
      continue;
    }
    token = token.substr(2);
    std::string key = token;
    std::string value;
    bool have_value = false;
    if (const auto eq = token.find('='); eq != std::string::npos) {
      key = token.substr(0, eq);
      value = token.substr(eq + 1);
      have_value = true;
    }
    if (std::find(known_flags.begin(), known_flags.end(), key) ==
        known_flags.end()) {
      throw std::runtime_error("unknown flag: --" + key);
    }
    if (!have_value && i + 1 < argc && !is_flag(argv[i + 1])) {
      value = argv[++i];
      have_value = true;
    }
    values_[key] = have_value ? value : "true";
  }
}

bool Args::has(const std::string& key) const { return values_.contains(key); }

std::optional<std::string> Args::get(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& key,
                         const std::string& fallback) const {
  return get(key).value_or(fallback);
}

double Args::get_double_or(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::size_t pos = 0;
  double out = 0.0;
  try {
    out = std::stod(*v, &pos);
  } catch (const std::exception&) {
    pos = 0;  // not a number, or out of double's range
  }
  if (pos == 0 || pos != v->size()) {
    throw std::runtime_error("bad number for --" + key + ": '" + *v + "'");
  }
  return out;
}

long Args::get_long_or(const std::string& key, long fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  std::size_t pos = 0;
  long out = 0;
  try {
    out = std::stol(*v, &pos);
  } catch (const std::exception&) {
    pos = 0;  // not an integer, or out of long's range
  }
  if (pos == 0 || pos != v->size()) {
    throw std::runtime_error("bad integer for --" + key + ": '" + *v + "'");
  }
  return out;
}

cbs::core::SchedulerKind parse_scheduler(const std::string& name) {
  using cbs::core::SchedulerKind;
  if (name == "ic-only") return SchedulerKind::kIcOnly;
  if (name == "greedy") return SchedulerKind::kGreedy;
  if (name == "order-preserving" || name == "op") {
    return SchedulerKind::kOrderPreserving;
  }
  if (name == "op-bandwidth-split" || name == "bandwidth-split") {
    return SchedulerKind::kBandwidthSplit;
  }
  if (name == "random") return SchedulerKind::kRandom;
  if (name == "lookahead") return SchedulerKind::kLookahead;
  throw std::runtime_error("unknown scheduler: " + name);
}

cbs::models::HazardPredictorKind parse_hazard_predictor(
    const std::string& name) {
  using cbs::models::HazardPredictorKind;
  if (name == "off") return HazardPredictorKind::kOff;
  if (name == "ewma") return HazardPredictorKind::kEwma;
  if (name == "bayes") return HazardPredictorKind::kBayes;
  throw std::runtime_error("unknown hazard predictor: " + name);
}

cbs::workload::SizeBucket parse_bucket(const std::string& name) {
  using cbs::workload::SizeBucket;
  if (name == "small") return SizeBucket::kSmallBiased;
  if (name == "uniform") return SizeBucket::kUniform;
  if (name == "large") return SizeBucket::kLargeBiased;
  throw std::runtime_error("unknown bucket: " + name);
}

const std::vector<std::string>& scenario_flags() {
  static const std::vector<std::string> flags = {
      "scheduler", "bucket",      "seed",      "batches",  "lambda",
      "interval",  "high-var",    "rescheduler", "elastic", "estimator",
      "tolerance", "oo-interval", "noise",     "csv",      "help",
      "seeds",     "threads",
      // Fault layer (simcore/fault_plan.hpp knobs).
      "ic-mtbf",   "ec-mtbf",     "vm-recovery", "retraction-factor",
      // Proactive resilience (models/hazard.hpp, DESIGN.md §13).
      "hazard-predictor", "drain-threshold",
      // Model-predictive lookahead (harness/world.hpp).
      "horizon",   "candidates",
  };
  return flags;
}

Scenario scenario_from_args(const Args& args) {
  // Signed values are range-checked before each cast: a batch count of -5
  // would wrap to 2^64 - 5, and 2^32 + 3 candidates would truncate to 3.
  Scenario s = make_scenario(
      parse_flag(args, "scheduler", "order-preserving", parse_scheduler),
      parse_flag(args, "bucket", "large", parse_bucket),
      seed_from_args(args, 42), args.has("high-var"));
  const long batches = args.get_long_or("batches", 8);
  if (batches < 0) throw std::invalid_argument("--batches must be >= 0");
  s.num_batches = static_cast<std::size_t>(batches);
  s.mean_jobs_per_batch = args.get_double_or("lambda", 15.0);
  s.batch_interval_seconds = args.get_double_or("interval", 180.0);
  s.enable_rescheduler = args.has("rescheduler");
  const long tolerance = args.get_long_or("tolerance", 4);
  if (tolerance < 0) throw std::invalid_argument("--tolerance must be >= 0");
  s.oo_tolerance = static_cast<std::uint64_t>(tolerance);
  s.oo_sampling_interval = args.get_double_or("oo-interval", 120.0);
  s.truth.noise_sigma = args.get_double_or("noise", s.truth.noise_sigma);

  s.estimator =
      parse_flag(args, "estimator", "qrsm", [](const std::string& name) {
        using cbs::core::EstimatorKind;
        if (name == "qrsm") return EstimatorKind::kQrsm;
        if (name == "oracle") return EstimatorKind::kOracle;
        if (name == "per-class") return EstimatorKind::kPerClassQrsm;
        throw std::runtime_error("unknown estimator: " + name);
      });

  if (args.has("elastic")) s.elastic_ec = {.enabled = true, .max_machines = 6};

  s.faults.ic_vm_mtbf = args.get_double_or("ic-mtbf", 0.0);
  s.faults.ec_vm_mtbf = args.get_double_or("ec-mtbf", 0.0);
  s.faults.vm_recovery_seconds =
      args.get_double_or("vm-recovery", s.faults.vm_recovery_seconds);
  s.faults.retraction_deadline_factor =
      args.get_double_or("retraction-factor", 0.0);

  s.resilience.hazard.kind =
      parse_flag(args, "hazard-predictor", "off", parse_hazard_predictor);
  s.resilience.drain_threshold =
      args.get_double_or("drain-threshold", s.resilience.drain_threshold);

  s.lookahead_horizon_seconds =
      args.get_double_or("horizon", s.lookahead_horizon_seconds);
  const long candidates =
      args.get_long_or("candidates", s.lookahead_candidates);
  if (candidates < 1 || candidates > kLookaheadCandidates) {
    std::string msg = "--candidates must be in [1, ";
    msg += std::to_string(kLookaheadCandidates);
    msg += "]";
    throw std::invalid_argument(msg);
  }
  s.lookahead_candidates = static_cast<int>(candidates);
  require_valid(s);
  return s;
}

std::vector<std::uint64_t> parse_seed_list(const std::string& csv) {
  std::vector<std::uint64_t> seeds;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t end = csv.find(',', start);
    if (end == std::string::npos) end = csv.size();
    const std::string token = csv.substr(start, end - start);
    if (token.empty()) throw std::runtime_error("empty seed in list: " + csv);
    const auto seed = parse_u64(token);
    if (!seed) throw std::invalid_argument("bad seed: " + token);
    seeds.push_back(*seed);
    start = end + 1;
  }
  if (seeds.empty()) throw std::runtime_error("empty seed list");
  return seeds;
}

std::vector<std::uint64_t> seeds_from_args(const Args& args,
                                           std::vector<std::uint64_t> fallback) {
  if (!args.has("seeds")) return fallback;
  return parse_flag(args, "seeds", "", parse_seed_list);
}

std::size_t threads_from_args(const Args& args) {
  const long n = args.get_long_or("threads", 0);
  if (n < 0) throw std::runtime_error("--threads must be >= 0");
  return static_cast<std::size_t>(n);
}

}  // namespace cbs::harness::cli
