#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness/scenario.hpp"

namespace cbs::harness::cli {

/// Minimal GNU-style flag parser for the scenario tools: supports
/// `--key=value`, `--key value` and boolean `--flag`. Unknown flags are an
/// error (typos should not silently change an experiment).
class Args {
 public:
  /// Parses argv. Throws std::runtime_error on malformed input.
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& known_flags);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const;
  /// The flag's value as a number, or `fallback` when the flag is absent.
  /// A value that is not wholly a number in range throws
  /// std::runtime_error naming both: "bad number for --lambda: 'abc'".
  [[nodiscard]] double get_double_or(const std::string& key,
                                     double fallback) const;
  [[nodiscard]] long get_long_or(const std::string& key, long fallback) const;

  /// Non-flag positional arguments, in order.
  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Parses a scheduler name ("ic-only", "greedy", "order-preserving",
/// "op-bandwidth-split", "random", "lookahead"); throws on anything else.
[[nodiscard]] cbs::core::SchedulerKind parse_scheduler(const std::string& name);

/// Parses a bucket name ("small", "uniform", "large"); throws otherwise.
[[nodiscard]] cbs::workload::SizeBucket parse_bucket(const std::string& name);

/// Parses a hazard-predictor name ("off", "ewma", "bayes"); throws
/// otherwise.
[[nodiscard]] cbs::models::HazardPredictorKind parse_hazard_predictor(
    const std::string& name);

/// Builds a Scenario from parsed flags. Recognized flags:
///   --scheduler --bucket --seed --batches --lambda --interval --high-var
///   --rescheduler --elastic --estimator (qrsm|oracle|per-class)
///   --tolerance --oo-interval --noise
///   --ic-mtbf --ec-mtbf --vm-recovery --retraction-factor (fault layer)
///   --hazard-predictor (off|ewma|bayes) --drain-threshold (proactive
///   resilience, DESIGN.md §13)
///   --horizon --candidates (model-predictive lookahead, harness/world.hpp;
///   --candidates in [1, 3]: order-preserving, greedy, ic-only)
[[nodiscard]] Scenario scenario_from_args(const Args& args);

/// The flag set scenario_from_args understands (for constructing Args).
/// Includes the sweep flags --seeds and --threads, so every bench binary
/// accepts them uniformly.
[[nodiscard]] const std::vector<std::string>& scenario_flags();

/// `--seed` over the whole uint64 range that Scenario::seed and --seeds
/// take, or `fallback` when the flag is absent. Throws
/// std::invalid_argument on a negative value ("--seed must be >= 0") and
/// std::runtime_error on anything else that is not an integer in range.
[[nodiscard]] std::uint64_t seed_from_args(const Args& args,
                                           std::uint64_t fallback);

/// Parses a comma-separated seed list ("42,7,1337"); throws on malformed
/// input or an empty list.
[[nodiscard]] std::vector<std::uint64_t> parse_seed_list(
    const std::string& csv);

/// The sweep's seed axis: `--seeds a,b,c` when given, else `fallback`.
[[nodiscard]] std::vector<std::uint64_t> seeds_from_args(
    const Args& args, std::vector<std::uint64_t> fallback);

/// Worker-thread count for the experiment runner: `--threads N` when
/// given (N >= 0), else 0; 0 means hardware concurrency.
[[nodiscard]] std::size_t threads_from_args(const Args& args);

}  // namespace cbs::harness::cli
