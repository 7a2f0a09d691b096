// Seeded mutation fuzzing of the scenario flag parser (harness/cli.hpp):
// valid cloudburst_sim argument vectors are mutated at the byte, token and
// flag level, and every mutant goes through cli::Args, scenario_from_args
// and the sweep flags. Each must either give a Scenario that passes
// require_valid or throw a std::exception whose message names one of the
// mutant's flags or values. No other exception type, no crash. The
// iteration count and seed are fixed, so the run is deterministic and fits
// the sanitizer job.

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hpp"
#include "harness/scenario.hpp"
#include "simcore/rng.hpp"

namespace {

using cbs::sim::RngStream;
namespace cli = cbs::harness::cli;

constexpr int kIterations = 4000;
constexpr std::uint64_t kSeed = 20102;

using Argv = std::vector<std::string>;

/// Valid argument vectors that between them use every scenario flag.
const std::vector<Argv>& valid_argvs() {
  static const std::vector<Argv> kArgvs = {
      {"--scheduler", "greedy", "--bucket", "large", "--seed", "7",
       "--batches", "20"},
      {"--scheduler=order-preserving", "--lambda=12.5", "--interval", "90",
       "--tolerance", "2", "--estimator", "per-class", "--csv", "out.csv"},
      {"--scheduler", "lookahead", "--horizon", "600", "--candidates", "2",
       "--ic-mtbf", "6000", "--ec-mtbf", "1200", "--vm-recovery", "300",
       "--retraction-factor", "3", "--hazard-predictor", "ewma",
       "--drain-threshold", "0.4"},
      {"--scheduler", "op-bandwidth-split", "--bucket=small", "--high-var",
       "--rescheduler", "--elastic", "--noise", "0.2", "--oo-interval", "60",
       "--seeds", "1,2,3", "--threads", "2", "--estimator", "oracle"},
      {"--scheduler", "random", "--hazard-predictor=bayes", "--batches=3",
       "--help"},
  };
  return kArgvs;
}

/// Values on the parser's edges: empty, signs, non-finite, out of range,
/// hex, whitespace, list separators, names of other kinds.
const std::vector<std::string>& edge_values() {
  static const std::vector<std::string> kValues = {
      "", "-", "+", "0", "-0", "+7", "-1", "-5", "1e999", "-1e999",
      "1e-320", "nan", "-nan", "inf", "-inf", "0x1p3", " 4", "4 ",
      "9223372036854775807", "9223372036854775808", "-9223372036854775809",
      "2147483647", "2147483648", "4294967299", "18446744073709551616",
      "1.5", ".", "e5", "1,2", "1,,2", ",", "-3,4", "greedy", "lookahead",
      "uniform", "frisbee", "true", "--", "=", "--=x"};
  return kValues;
}

class Mutator {
 public:
  explicit Mutator(std::uint64_t seed) : rng_(seed) {}

  Argv mutate(Argv argv) {
    const std::uint64_t rounds = rng_.uniform_int(1, 4);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      switch (rng_.uniform_int(0, 8)) {
        case 0: flip_byte(argv); break;
        case 1: drop_bytes(argv); break;
        case 2: splice_bytes(argv); break;
        case 3: replace_token(argv); break;
        case 4: drop_or_duplicate_token(argv); break;
        case 5: swap_tokens(argv); break;
        case 6: rename_flag(argv); break;
        case 7: split_or_join(argv); break;
        default: insert_flag(argv); break;
      }
    }
    return argv;
  }

 private:
  std::size_t pick(std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng_.uniform_int(0, n - 1));
  }
  std::string& any_token(Argv& argv) { return argv[pick(argv.size())]; }
  std::string any_flag_name() {
    const auto& flags = cli::scenario_flags();
    return flags[pick(flags.size())];
  }

  void flip_byte(Argv& argv) {
    if (argv.empty()) return;
    std::string& t = any_token(argv);
    if (t.empty()) return;
    t[pick(t.size())] ^= static_cast<char>(1U << pick(8));
  }

  void drop_bytes(Argv& argv) {
    if (argv.empty()) return;
    std::string& t = any_token(argv);
    if (t.empty()) return;
    t.erase(pick(t.size()), 1 + pick(4));
  }

  void splice_bytes(Argv& argv) {
    if (argv.size() < 2) return;
    const std::string& from = any_token(argv);
    const std::string piece = from.substr(pick(from.size() + 1), 1 + pick(6));
    std::string& to = any_token(argv);
    to.insert(pick(to.size() + 1), piece);
  }

  void replace_token(Argv& argv) {
    if (argv.empty()) return;
    const auto& values = edge_values();
    any_token(argv) = values[pick(values.size())];
  }

  void drop_or_duplicate_token(Argv& argv) {
    if (argv.empty()) return;
    const std::size_t at = pick(argv.size());
    if (pick(2) == 0) {
      argv.erase(argv.begin() + static_cast<std::ptrdiff_t>(at));
    } else {
      const std::string copy = argv[at];
      const auto to = static_cast<std::ptrdiff_t>(pick(argv.size() + 1));
      argv.insert(argv.begin() + to, copy);
    }
  }

  void swap_tokens(Argv& argv) {
    if (argv.size() < 2) return;
    std::string& a = any_token(argv);  // two statements: a fixed draw order
    std::string& b = any_token(argv);
    std::swap(a, b);
  }

  /// Gives a flag another known name, or an unknown one.
  void rename_flag(Argv& argv) {
    for (std::size_t tries = 0; tries < argv.size(); ++tries) {
      std::string& t = any_token(argv);
      if (t.rfind("--", 0) != 0) continue;
      const auto eq = t.find('=');
      const std::string value = eq == std::string::npos ? "" : t.substr(eq);
      const std::string name =
          pick(4) == 0 ? std::string("frisbee") : any_flag_name();
      t = "--" + name + value;
      return;
    }
  }

  /// "--k v" becomes "--k=v", or "--k=v" becomes "--k" "v".
  void split_or_join(Argv& argv) {
    if (argv.empty()) return;
    const std::size_t at = pick(argv.size());
    const auto eq = argv[at].find('=');
    if (eq != std::string::npos) {
      const std::string value = argv[at].substr(eq + 1);
      argv[at].erase(eq);
      argv.insert(argv.begin() + static_cast<std::ptrdiff_t>(at + 1), value);
    } else if (at + 1 < argv.size()) {
      argv[at] += "=" + argv[at + 1];
      argv.erase(argv.begin() + static_cast<std::ptrdiff_t>(at + 1));
    }
  }

  void insert_flag(Argv& argv) {
    const auto& values = edge_values();
    const auto at = static_cast<std::ptrdiff_t>(pick(argv.size() + 1));
    const std::string flag = "--" + any_flag_name();
    if (pick(2) == 0) {
      argv.insert(argv.begin() + at, flag + "=" + values[pick(values.size())]);
    } else {
      argv.insert(argv.begin() + at, {flag, values[pick(values.size())]});
    }
  }

  RngStream rng_;
};

/// require_valid names the Scenario field a flag sets, not the flag.
const std::map<std::string, std::string>& field_of_flag() {
  static const std::map<std::string, std::string> kFields = {
      {"batches", "num_batches"},
      {"lambda", "mean_jobs_per_batch"},
      {"interval", "batch_interval_seconds"},
      {"noise", "noise_sigma"},
      {"oo-interval", "oo_sampling_interval"},
      {"ic-mtbf", "ic_vm_mtbf"},
      {"ec-mtbf", "ec_vm_mtbf"},
      {"vm-recovery", "vm_recovery_seconds"},
      {"retraction-factor", "retraction_deadline_factor"},
      {"horizon", "lookahead_horizon_seconds"},
      {"drain-threshold", "drain_threshold"},
  };
  return kFields;
}

/// Whether `message` names one of argv's flags (as --name, or the field
/// that flag sets) or one of its non-empty values.
bool names_flag_or_value(const std::string& message, const Argv& argv) {
  const auto mentions = [&message](const std::string& s) {
    return !s.empty() && message.find(s) != std::string::npos;
  };
  for (const std::string& token : argv) {
    if (token.rfind("--", 0) != 0) {
      if (mentions(token)) return true;
      continue;
    }
    const auto eq = token.find('=');
    const std::string name = token.substr(2, eq == std::string::npos
                                                 ? std::string::npos
                                                 : eq - 2);
    if (mentions("--" + name)) return true;
    const auto field = field_of_flag().find(name);
    if (field != field_of_flag().end() && mentions(field->second)) return true;
    if (eq != std::string::npos && mentions(token.substr(eq + 1))) return true;
  }
  return false;
}

/// A main()'s view of argv: C strings end at the first NUL.
Argv as_c_strings(Argv argv) {
  for (std::string& t : argv) t = t.c_str();
  return argv;
}

/// Parses argv the way the tools do. Returns the error message, or "" when
/// the scenario was accepted (and then checks that it is valid).
std::string parse(const Argv& argv) {
  std::vector<const char*> ptrs = {"cloudburst_sim"};
  for (const std::string& t : argv) ptrs.push_back(t.c_str());
  try {
    const cli::Args args(static_cast<int>(ptrs.size()), ptrs.data(),
                         cli::scenario_flags());
    const cbs::harness::Scenario s = cli::scenario_from_args(args);
    EXPECT_TRUE(s.validate().empty());
    (void)cli::threads_from_args(args);
    (void)cli::seeds_from_args(args, {1});
    return "";
  } catch (const std::exception& e) {
    return std::string(e.what()).empty() ? "(empty message)" : e.what();
  }
}

TEST(CliFuzzTest, ValidArgvsParse) {
  for (const Argv& argv : valid_argvs()) {
    EXPECT_EQ(parse(argv), "") << argv.front();
  }
}

TEST(CliFuzzTest, MutantsParseOrNameTheirError) {
  Mutator mutator(kSeed);
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kIterations; ++i) {
    const auto& base = valid_argvs()[static_cast<std::size_t>(i) %
                                     valid_argvs().size()];
    const Argv argv = as_c_strings(mutator.mutate(base));
    std::string joined;
    for (const std::string& t : argv) joined += " [" + t + "]";
    SCOPED_TRACE("mutant " + std::to_string(i) + ":" + joined);
    const std::string error = parse(argv);
    if (error.empty()) {
      ++accepted;
    } else {
      ++rejected;
      EXPECT_TRUE(names_flag_or_value(error, argv)) << error;
    }
  }
  // Both outcomes are common, so both paths are exercised.
  EXPECT_GT(accepted, kIterations / 10);
  EXPECT_GT(rejected, kIterations / 10);
}

TEST(CliFuzzTest, OracleRecognisesNamedErrors) {
  EXPECT_TRUE(names_flag_or_value("bad number for --lambda: 'abc'",
                                  {"--lambda", "abc"}));
  EXPECT_TRUE(names_flag_or_value(
      "invalid scenario: num_batches must be > 0 (got 0)", {"--batches=0"}));
  EXPECT_TRUE(names_flag_or_value("unknown scheduler: grredy",
                                  {"--scheduler", "grredy"}));
  EXPECT_FALSE(names_flag_or_value("stod", {"--lambda", "abc"}));
  EXPECT_FALSE(names_flag_or_value("something broke", {"--seed", ""}));
}

}  // namespace
