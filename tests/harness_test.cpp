#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/cli.hpp"
#include "harness/csv.hpp"
#include "harness/experiment.hpp"
#include "harness/plot.hpp"
#include "harness/scenario.hpp"
#include "harness/world.hpp"
#include "sla/oo_metric.hpp"

namespace {

using namespace cbs;
using namespace cbs::harness;

// ---- cli::Args --------------------------------------------------------------

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  std::vector<const char*> v = {"prog"};
  v.insert(v.end(), args.begin(), args.end());
  return v;
}

const std::vector<std::string> kFlags = {"alpha", "beta", "gamma"};

TEST(CliArgsTest, ParsesEqualsForm) {
  auto argv = argv_of({"--alpha=3", "--beta=hello"});
  cli::Args args(static_cast<int>(argv.size()), argv.data(), kFlags);
  EXPECT_EQ(args.get_or("alpha", ""), "3");
  EXPECT_EQ(args.get_or("beta", ""), "hello");
  EXPECT_FALSE(args.has("gamma"));
}

TEST(CliArgsTest, ParsesSpaceForm) {
  auto argv = argv_of({"--alpha", "42"});
  cli::Args args(static_cast<int>(argv.size()), argv.data(), kFlags);
  EXPECT_EQ(args.get_long_or("alpha", 0), 42);
}

TEST(CliArgsTest, BooleanFlagDefaultsTrue) {
  auto argv = argv_of({"--gamma"});
  cli::Args args(static_cast<int>(argv.size()), argv.data(), kFlags);
  EXPECT_TRUE(args.has("gamma"));
  EXPECT_EQ(args.get_or("gamma", ""), "true");
}

TEST(CliArgsTest, PositionalArgumentsPreserved) {
  auto argv = argv_of({"input.csv", "--alpha=1", "output.csv"});
  cli::Args args(static_cast<int>(argv.size()), argv.data(), kFlags);
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "input.csv");
  EXPECT_EQ(args.positional()[1], "output.csv");
}

TEST(CliArgsTest, RejectsUnknownFlag) {
  auto argv = argv_of({"--delta=1"});
  EXPECT_THROW(
      cli::Args(static_cast<int>(argv.size()), argv.data(), kFlags),
      std::runtime_error);
}

TEST(CliArgsTest, RejectsMalformedNumbers) {
  auto argv = argv_of({"--alpha=12x"});
  cli::Args args(static_cast<int>(argv.size()), argv.data(), kFlags);
  EXPECT_THROW((void)args.get_long_or("alpha", 0), std::runtime_error);
  EXPECT_THROW((void)args.get_double_or("alpha", 0.0), std::runtime_error);
}

TEST(CliArgsTest, NumericDefaultsApply) {
  auto argv = argv_of({});
  cli::Args args(static_cast<int>(argv.size()), argv.data(), kFlags);
  EXPECT_EQ(args.get_long_or("alpha", 7), 7);
  EXPECT_DOUBLE_EQ(args.get_double_or("beta", 1.5), 1.5);
}

// ---- scenario parsing ---------------------------------------------------------

cli::Args scenario_args(std::initializer_list<const char*> extra) {
  static std::vector<const char*> argv;  // keep storage alive per test call
  argv = argv_of(extra);
  return cli::Args(static_cast<int>(argv.size()), argv.data(),
                   cli::scenario_flags());
}

TEST(ScenarioCliTest, DefaultsAreTheLargeOpScenario) {
  const Scenario s = cli::scenario_from_args(scenario_args({}));
  EXPECT_EQ(s.scheduler, core::SchedulerKind::kOrderPreserving);
  EXPECT_EQ(s.bucket, workload::SizeBucket::kLargeBiased);
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.num_batches, 8u);
}

TEST(ScenarioCliTest, ParsesEveryScheduler) {
  EXPECT_EQ(cli::parse_scheduler("ic-only"), core::SchedulerKind::kIcOnly);
  EXPECT_EQ(cli::parse_scheduler("greedy"), core::SchedulerKind::kGreedy);
  EXPECT_EQ(cli::parse_scheduler("op"), core::SchedulerKind::kOrderPreserving);
  EXPECT_EQ(cli::parse_scheduler("op-bandwidth-split"),
            core::SchedulerKind::kBandwidthSplit);
  EXPECT_THROW((void)cli::parse_scheduler("firstfit"), std::runtime_error);
}

TEST(ScenarioCliTest, ParsesBuckets) {
  EXPECT_EQ(cli::parse_bucket("small"), workload::SizeBucket::kSmallBiased);
  EXPECT_EQ(cli::parse_bucket("uniform"), workload::SizeBucket::kUniform);
  EXPECT_EQ(cli::parse_bucket("large"), workload::SizeBucket::kLargeBiased);
  EXPECT_THROW((void)cli::parse_bucket("huge"), std::runtime_error);
}

TEST(ScenarioCliTest, FlagsReachTheScenario) {
  const Scenario s = cli::scenario_from_args(scenario_args(
      {"--scheduler=greedy", "--bucket=small", "--seed=9", "--batches=3",
       "--lambda=5", "--rescheduler", "--estimator=oracle", "--tolerance=2",
       "--noise=0.3"}));
  EXPECT_EQ(s.scheduler, core::SchedulerKind::kGreedy);
  EXPECT_EQ(s.bucket, workload::SizeBucket::kSmallBiased);
  EXPECT_EQ(s.seed, 9u);
  EXPECT_EQ(s.num_batches, 3u);
  EXPECT_DOUBLE_EQ(s.mean_jobs_per_batch, 5.0);
  EXPECT_TRUE(s.enable_rescheduler);
  EXPECT_EQ(s.estimator, core::EstimatorKind::kOracle);
  EXPECT_EQ(s.oo_tolerance, 2u);
  EXPECT_DOUBLE_EQ(s.truth.noise_sigma, 0.3);
}

TEST(ScenarioCliTest, ElasticFlagConfiguresElasticEc) {
  const Scenario s = cli::scenario_from_args(scenario_args({"--elastic"}));
  EXPECT_TRUE(s.elastic_ec.enabled);
  EXPECT_EQ(s.elastic_ec.max_machines, 6u);
}

TEST(ScenarioCliTest, HighVarSurvivesElasticOverride) {
  const ScenarioWorld world(cli::scenario_from_args(
      scenario_args({"--elastic", "--high-var"})));
  const auto& cfg = world.controller().config();
  EXPECT_TRUE(cfg.elastic_ec.enabled);
  EXPECT_DOUBLE_EQ(cfg.ec_sites[0].uplink.noise_sigma, 0.25);
}

TEST(ScenarioValidateTest, DefaultScenarioIsValid) {
  EXPECT_TRUE(Scenario{}.validate().empty());
}

TEST(ScenarioValidateTest, NamesEveryBadField) {
  Scenario s;
  s.num_batches = 0;
  s.mean_jobs_per_batch = 0.0;
  s.batch_interval_seconds = -1.0;
  s.truth.noise_sigma = std::nan("");
  const std::vector<std::string> errors = s.validate();
  ASSERT_EQ(errors.size(), 4u);
  EXPECT_NE(errors[0].find("num_batches"), std::string::npos);
  EXPECT_NE(errors[1].find("mean_jobs_per_batch"), std::string::npos);
  EXPECT_NE(errors[2].find("batch_interval_seconds"), std::string::npos);
  EXPECT_NE(errors[3].find("noise_sigma"), std::string::npos);

  Scenario negative_noise;
  negative_noise.truth.noise_sigma = -0.1;
  EXPECT_EQ(negative_noise.validate().size(), 1u);

  // The OO sampling interval and every fault field; each of these once
  // passed validation and then aborted in an assert or ran fault-free.
  for (const double interval : {0.0, -1.0, std::nan("")}) {
    Scenario oo;
    oo.oo_sampling_interval = interval;
    const std::vector<std::string> oo_errors = oo.validate();
    ASSERT_EQ(oo_errors.size(), 1u) << interval;
    EXPECT_NE(oo_errors[0].find("oo_sampling_interval"), std::string::npos);
  }
  Scenario faults;
  faults.faults.ic_vm_mtbf = -5.0;
  faults.faults.ec_vm_mtbf = std::nan("");
  faults.faults.vm_recovery_seconds = -1.0;
  faults.faults.retraction_deadline_factor = -1.0;
  const std::vector<std::string> fault_errors = faults.validate();
  ASSERT_EQ(fault_errors.size(), 4u);
  EXPECT_NE(fault_errors[0].find("faults.ic_vm_mtbf"), std::string::npos);
  EXPECT_NE(fault_errors[1].find("faults.ec_vm_mtbf"), std::string::npos);
  EXPECT_NE(fault_errors[2].find("faults.vm_recovery_seconds"),
            std::string::npos);
  EXPECT_NE(fault_errors[3].find("faults.retraction_deadline_factor"),
            std::string::npos);
  Scenario infinite_mtbf;
  infinite_mtbf.faults.ic_vm_mtbf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(infinite_mtbf.validate().size(), 1u);

  // The lookahead horizon and the resilience knobs: each of these once ran
  // to exit 0, with NaN or zero-length rollouts or with bursting silently
  // off (a NaN risk weight).
  const double inf = std::numeric_limits<double>::infinity();
  for (const double horizon : {0.0, -100.0, std::nan(""), inf}) {
    Scenario la;
    la.lookahead_horizon_seconds = horizon;
    const std::vector<std::string> la_errors = la.validate();
    ASSERT_EQ(la_errors.size(), 1u) << horizon;
    EXPECT_NE(la_errors[0].find("lookahead_horizon_seconds"),
              std::string::npos);
  }
  // The candidate count: a 4th or 5th candidate (bandwidth-split, random)
  // once passed and aborted the run at its first decision.
  for (const int candidates : {0, -1, 4, 5}) {
    Scenario la;
    la.lookahead_candidates = candidates;
    const std::vector<std::string> la_errors = la.validate();
    ASSERT_EQ(la_errors.size(), 1u) << candidates;
    EXPECT_NE(la_errors[0].find("lookahead_candidates must be in [1, 3]"),
              std::string::npos);
  }
  Scenario resilience;
  resilience.resilience.drain_threshold = 1.5;
  const std::vector<std::string> res_errors = resilience.validate();
  ASSERT_EQ(res_errors.size(), 1u);
  EXPECT_NE(res_errors[0].find("resilience.drain_threshold"),
            std::string::npos);
  for (const double threshold : {-0.1, std::nan(""), inf}) {
    Scenario r;
    r.resilience.drain_threshold = threshold;
    EXPECT_EQ(r.validate().size(), 1u) << threshold;
  }
  // The edges of the range are valid.
  Scenario edges;
  edges.resilience.drain_threshold = 1.0;
  EXPECT_TRUE(edges.validate().empty());
  edges.resilience.drain_threshold = 0.0;
  EXPECT_TRUE(edges.validate().empty());

  // A non-finite interval once put batch 0 at 0 x inf = NaN; a huge rate
  // once failed on std::bad_alloc.
  Scenario infinite;
  infinite.batch_interval_seconds = inf;
  infinite.mean_jobs_per_batch = inf;
  const std::vector<std::string> inf_errors = infinite.validate();
  ASSERT_EQ(inf_errors.size(), 2u);
  EXPECT_EQ(inf_errors[0], "mean_jobs_per_batch must be finite (got inf)");
  EXPECT_EQ(inf_errors[1], "batch_interval_seconds must be finite (got inf)");

  // Both caps, named together.
  Scenario both;
  both.num_batches = 100'000'000;
  both.mean_jobs_per_batch = 0.5;  // a drawn batch still holds a document
  const std::vector<std::string> caps = both.validate();
  ASSERT_EQ(caps.size(), 2u);
  EXPECT_EQ(caps[0],
            "max(mean_jobs_per_batch, 1) * num_batches must be <= 4000000 "
            "(got 1e+08)");
  EXPECT_NE(caps[1].find("(num_batches - 1) * batch_interval_seconds must be "
                         "short enough for an OO series of fewer than "
                         "10000000 samples at oo_sampling_interval 120"),
            std::string::npos);

  // At the caps: exactly kMaxDrawnDocuments documents, and a last arrival
  // whose series takes one sample fewer than the cap.
  Scenario edge;
  edge.num_batches = 2;
  edge.mean_jobs_per_batch = static_cast<double>(kMaxDrawnDocuments) / 2.0;
  EXPECT_TRUE(edge.validate().empty());
  edge.mean_jobs_per_batch = 15.0;
  edge.oo_sampling_interval = 1.0;
  edge.batch_interval_seconds =
      static_cast<double>(cbs::sla::kMaxSeriesSamples) - 2.0;
  EXPECT_TRUE(edge.validate().empty());
  edge.batch_interval_seconds += 1.0;
  EXPECT_EQ(edge.validate().size(), 1u);

  // A coarse OO interval samples a far horizon in few samples, but the
  // clock cannot reach it: at 1e15 s the link aborted on an assert. The
  // last arrival plus the lookahead horizon may reach kMaxSimSeconds.
  Scenario far;
  far.num_batches = 2;
  far.batch_interval_seconds = 1e15;
  far.oo_sampling_interval = 1e14;
  EXPECT_EQ(far.validate(),
            std::vector<std::string>{
                "(num_batches - 1) * batch_interval_seconds + "
                "lookahead_horizon_seconds must be <= kMaxSimSeconds (1e+09) "
                "(got 1e+15)"});
  far.batch_interval_seconds = kMaxSimSeconds - far.lookahead_horizon_seconds;
  EXPECT_TRUE(far.validate().empty());
  far.lookahead_horizon_seconds += 1.0;
  EXPECT_EQ(far.validate().size(), 1u);

  // Every ControllerConfig field a constructor asserts on: each of these
  // once passed validation and then aborted the run in a cluster, link,
  // noise, estimator or thread-tuner constructor, or at the first slack
  // test. Now the world refuses it by name.
  using Edit = void (*)(Scenario&);
  const std::pair<const char*, Edit> controller_fields[] = {
      {"ic_machines", [](Scenario& c) { c.ic_machines = 0; }},
      {"ec_sites[0].machines", [](Scenario& c) { c.ec_sites[0].machines = 0; }},
      {"ec_sites[0].speed", [](Scenario& c) { c.ec_sites[0].speed = -1.0; }},
      {"ec_sites[1].speed",
       [](Scenario& c) { c.ec_sites.push_back({.speed = 0.0}); }},
      {"ec_sites[0].job_overhead_seconds",
       [](Scenario& c) { c.ec_sites[0].job_overhead_seconds = -1.0; }},
      {"ec_sites[0].uplink.base_rate",
       [](Scenario& c) { c.ec_sites[0].uplink.base_rate = 0.0; }},
      {"ec_sites[0].downlink.per_connection_cap",
       [](Scenario& c) { c.ec_sites[0].downlink.per_connection_cap = 0.0; }},
      {"ec_sites[0].uplink.noise_rho",
       [](Scenario& c) { c.ec_sites[0].uplink.noise_rho = 1.0; }},
      {"ec_sites[0].downlink.noise_sigma",
       [](Scenario& c) { c.ec_sites[0].downlink.noise_sigma = -0.1; }},
      {"ec_sites[0].uplink.noise_step",
       [](Scenario& c) { c.ec_sites[0].uplink.noise_step = 0.0; }},
      {"ec_sites[0].downlink.setup_latency",
       [](Scenario& c) { c.ec_sites[0].downlink.setup_latency = -1.0; }},
      {"bandwidth_prior_rate",
       [](Scenario& c) { c.bandwidth_prior_rate = 0.0; }},
      {"params.slack_safety_margin",
       [](Scenario& c) { c.params.slack_safety_margin = std::nan(""); }},
      {"probe_interval", [](Scenario& c) { c.probe_interval = std::nan(""); }},
  };
  for (const auto& [expected, edit] : controller_fields) {
    Scenario bad;
    edit(bad);
    const std::vector<std::string> bad_errors = bad.validate();
    ASSERT_EQ(bad_errors.size(), 1u) << expected;
    EXPECT_EQ(bad_errors[0].rfind(std::string(expected) + " must be", 0), 0u)
        << bad_errors[0];
    EXPECT_THROW(ScenarioWorld{bad}, std::invalid_argument) << expected;
  }
  // Probing off (a zero or negative interval) stays valid.
  Scenario no_probes;
  no_probes.probe_interval = 0.0;
  EXPECT_TRUE(no_probes.validate().empty());
}

TEST(ScenarioValidateTest, WorldAndRunRejectInvalidScenarios) {
  Scenario s;
  s.mean_jobs_per_batch = std::nan("");
  EXPECT_THROW(ScenarioWorld{s}, std::invalid_argument);
  EXPECT_THROW((void)run_scenario(s), std::invalid_argument);
}

TEST(ScenarioValidateTest, CliRejectsBadValuesBeforeCasting) {
  EXPECT_THROW((void)cli::scenario_from_args(scenario_args({"--tolerance=-3"})),
               std::invalid_argument);
  EXPECT_THROW((void)cli::scenario_from_args(scenario_args({"--batches=-1"})),
               std::invalid_argument);
  EXPECT_THROW((void)cli::scenario_from_args(scenario_args({"--batches=0"})),
               std::invalid_argument);
  EXPECT_THROW((void)cli::scenario_from_args(scenario_args({"--noise=nan"})),
               std::invalid_argument);
  for (const char* flag :
       {"--oo-interval=0", "--oo-interval=nan", "--ic-mtbf=-5",
        "--retraction-factor=-1", "--horizon=nan", "--horizon=-100",
        "--horizon=0", "--drain-threshold=1.5", "--drain-threshold=nan",
        "--candidates=0", "--candidates=4"}) {
    EXPECT_THROW((void)cli::scenario_from_args(scenario_args({flag})),
                 std::invalid_argument)
        << flag;
  }
  EXPECT_THROW((void)cli::scenario_from_args(
                   scenario_args({"--ic-mtbf=3600", "--vm-recovery=-1"})),
               std::invalid_argument);
  EXPECT_THROW((void)cli::scenario_from_args(scenario_args(
                   {"--scheduler=lookahead", "--horizon=nan"})),
               std::invalid_argument);
}

// ---- ScenarioWorld over given batches ---------------------------------------

/// The invalid_argument message of a world built over `batches` ("" when
/// none is thrown).
std::string world_error(std::vector<workload::Batch> batches) {
  try {
    const ScenarioWorld world(Scenario{}, std::move(batches));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Empty batches arriving at `times`, in order.
std::vector<workload::Batch> arriving_at(std::initializer_list<double> times) {
  std::vector<workload::Batch> batches;
  for (const double t : times) {
    workload::Batch batch;
    batch.batch_index = batches.size();
    batch.arrival_time = t;
    batches.push_back(batch);
  }
  return batches;
}

TEST(ScenarioWorldTest, GivenBatchesRejectEmptyNegativeAndDecreasingArrivals) {
  EXPECT_EQ(world_error({}), "ScenarioWorld: empty batch list");
  EXPECT_EQ(world_error(arriving_at({-5.0})),
            "ScenarioWorld: batch 0 arrival_time must be >= 0 (got -5)");
  EXPECT_EQ(world_error(arriving_at({0.0, 180.0, 60.0})),
            "ScenarioWorld: batch 2 arrival_time 60 is earlier than batch 1's "
            "180");
  EXPECT_EQ(world_error(arriving_at({0.0, std::nan("")})),
            "ScenarioWorld: batch 1 arrival_time must be finite (got nan)");
  EXPECT_EQ(world_error(arriving_at(
                {0.0, std::numeric_limits<double>::infinity()})),
            "ScenarioWorld: batch 1 arrival_time must be finite (got inf)");
  // The OO series runs at least through the last arrival; at 1e15 s the
  // link once aborted on an assert.
  EXPECT_EQ(world_error(arriving_at({0.0, 1e15})),
            "ScenarioWorld: batch 1 arrival_time 1e+15 needs an OO series of "
            "10000000 samples or more at oo_sampling_interval 120");
  // A coarse OO interval samples it, but the clock cannot reach it.
  Scenario coarse;
  coarse.oo_sampling_interval = 1e14;
  try {
    const ScenarioWorld world(coarse, arriving_at({0.0, 1e15}));
    ADD_FAILURE() << "a 1e15 s arrival was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "ScenarioWorld: batch 1 arrival_time 1e+15 + "
                 "lookahead_horizon_seconds 900 must be <= kMaxSimSeconds "
                 "(1e+09)");
  }
}

/// Batches at 0, 180, ... holding documents with the listed ids.
std::vector<workload::Batch> with_ids(
    std::initializer_list<std::initializer_list<std::uint64_t>> ids) {
  std::vector<workload::Batch> batches;
  for (const auto& batch_ids : ids) {
    workload::Batch batch;
    batch.batch_index = batches.size();
    batch.arrival_time = 180.0 * static_cast<double>(batches.size());
    for (const std::uint64_t id : batch_ids) {
      workload::Document doc;
      doc.doc_id = id;
      doc.features.size_mb = 10.0;
      batch.documents.push_back(doc);
    }
    batches.push_back(batch);
  }
  return batches;
}

TEST(ScenarioWorldTest, GivenBatchesRejectZeroChunkRangeAndRepeatedIds) {
  // Ids key each document's service noise, id 0 would make its chunks look
  // like originals, and ids from 2^32 up are the controller's chunk ids.
  EXPECT_EQ(world_error(with_ids({{1, 0}})),
            "ScenarioWorld: batch 0 document 1 doc_id must be in "
            "[1, 4294967296) (got 0)");
  EXPECT_EQ(world_error(with_ids({{1}, {4294967296}})),
            "ScenarioWorld: batch 1 document 0 doc_id must be in "
            "[1, 4294967296) (got 4294967296)");
  EXPECT_EQ(world_error(with_ids({{1, 2}, {3, 2}})),
            "ScenarioWorld: batch 1 document 1 doc_id 2 repeats batch 0 "
            "document 1");
  EXPECT_EQ(world_error(with_ids({{2, 1}, {4294967295}})), "");
}

TEST(ScenarioWorldTest, GivenBatchesIgnoreTheArrivalFields) {
  Scenario s = make_scenario(core::SchedulerKind::kGreedy,
                             workload::SizeBucket::kUniform, 7);
  s.num_batches = 6;
  ScenarioWorld drawn(s);
  // The drawing fields drive nothing when the batches are given, so a
  // caller replaying a list need not fill them in.
  Scenario replay = s;
  replay.num_batches = 0;
  replay.mean_jobs_per_batch = 0.0;
  replay.batch_interval_seconds = std::nan("");
  EXPECT_EQ(replay.validate().size(), 3u);
  ScenarioWorld given(replay, drawn.batches());
  drawn.run();
  given.run();
  EXPECT_EQ(given.result().outcomes.size(), drawn.result().outcomes.size());
  EXPECT_EQ(given.result().sim_end_time, drawn.result().sim_end_time);

  // Every other field is still checked, and drawing checks them all.
  replay.truth.noise_sigma = -1.0;
  try {
    const ScenarioWorld bad(replay, drawn.batches());
    ADD_FAILURE() << "a negative noise sigma was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "invalid scenario: truth.noise_sigma must be finite and "
                 ">= 0 (got -1)");
  }
  EXPECT_THROW(ScenarioWorld{replay}, std::invalid_argument);
}

TEST(ScenarioWorldTest, GivenTheDrawnBatchesReplaysTheDrawnRun) {
  Scenario s = make_scenario(core::SchedulerKind::kGreedy,
                             workload::SizeBucket::kUniform, 7);
  s.num_batches = 4;
  ScenarioWorld drawn(s);
  ScenarioWorld given(s, drawn.batches());
  drawn.run();
  given.run();
  const RunResult a = drawn.result();
  const RunResult b = given.result();
  EXPECT_EQ(a.events_processed, b.events_processed);
  EXPECT_EQ(a.sim_end_time, b.sim_end_time);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].seq_id, b.outcomes[i].seq_id) << i;
    EXPECT_EQ(a.outcomes[i].completed, b.outcomes[i].completed) << i;
    EXPECT_EQ(a.outcomes[i].placement, b.outcomes[i].placement) << i;
  }
}

// ---- csv / chart helpers -------------------------------------------------------

RunResult tiny_run() {
  Scenario s = make_scenario(core::SchedulerKind::kGreedy,
                             workload::SizeBucket::kUniform);
  s.num_batches = 2;
  return run_scenario(s);
}

TEST(CsvTest, CompletionSeriesIsOrderedBySeq) {
  const RunResult r = tiny_run();
  std::ostringstream out;
  csv::write_completion_series(out, r);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "seq,completed_seconds,placement");
  std::uint64_t prev = 0;
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    const auto seq = std::stoull(line.substr(0, line.find(',')));
    EXPECT_EQ(seq, prev + 1);
    prev = seq;
    ++rows;
  }
  EXPECT_EQ(rows, r.outcomes.size());
}

TEST(CsvTest, OoSeriesMatchesResult) {
  const RunResult r = tiny_run();
  std::ostringstream out;
  csv::write_oo_series(out, r);
  std::istringstream in(out.str());
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time_seconds,ordered_mb");
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, r.oo_series.size());
}

TEST(CsvTest, ReportRowPerResult) {
  const RunResult r = tiny_run();
  std::ostringstream out;
  csv::write_reports(out, {r, r});
  std::istringstream in(out.str());
  std::string line;
  std::size_t rows = 0;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 3u);  // header + 2
}

TEST(CsvTest, OverlayHasColumnPerResult) {
  const RunResult r = tiny_run();
  std::ostringstream out;
  csv::write_oo_overlay(out, {r, r}, 120.0);
  std::istringstream in(out.str());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(std::count(header.begin(), header.end(), ','), 2);
}

TEST(AsciiChartTest, RendersRequestedHeight) {
  const std::string chart = ascii_chart({1.0, 2.0, 3.0, 2.0, 5.0}, 6, 40);
  EXPECT_EQ(std::count(chart.begin(), chart.end(), '\n'), 6);
  EXPECT_NE(chart.find('#'), std::string::npos);
}

TEST(AsciiChartTest, EmptyInputIsEmptyOutput) {
  EXPECT_TRUE(ascii_chart({}, 5, 40).empty());
}

TEST(AsciiChartTest, FlatSeriesDrawsBaseline) {
  const std::string chart = ascii_chart({2.0, 2.0, 2.0}, 4, 40);
  // Only the bottom row is filled for a constant series.
  std::istringstream in(chart);
  std::string line;
  std::vector<std::string> lines;
  while (std::getline(in, line)) lines.push_back(line);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0].find('#'), std::string::npos);
  EXPECT_NE(lines[3].find('#'), std::string::npos);
}

// ---- gnuplot emitter -------------------------------------------------------

TEST(PlotTest, WritesDatAndScript) {
  plot::Figure fig;
  fig.title = "t";
  fig.xlabel = "x";
  fig.ylabel = "y";
  fig.series.push_back({"a", {0.0, 1.0, 2.0}, {1.0, 2.0, 3.0}});
  fig.series.push_back({"b", {0.0, 2.0}, {5.0, 6.0}});
  const std::string prefix = "/tmp/cbs_plot_test";
  const std::string gp = plot::write_gnuplot(prefix, fig);
  EXPECT_EQ(gp, prefix + ".gp");

  std::ifstream dat(prefix + ".dat");
  ASSERT_TRUE(dat.good());
  std::string line;
  std::getline(dat, line);  // header
  std::getline(dat, line);
  EXPECT_EQ(line, "0 1 5");
  std::getline(dat, line);
  EXPECT_EQ(line, "1 2 ?");  // series b missing at x=1
  std::getline(dat, line);
  EXPECT_EQ(line, "2 3 6");

  std::ifstream gps(gp);
  ASSERT_TRUE(gps.good());
  std::string all((std::istreambuf_iterator<char>(gps)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("set datafile missing '?'"), std::string::npos);
  EXPECT_NE(all.find("title 'a'"), std::string::npos);
  EXPECT_NE(all.find("title 'b'"), std::string::npos);
}

TEST(PlotTest, FromTimeSeries) {
  cbs::stats::TimeSeries ts;
  ts.add(1.0, 10.0);
  ts.add(2.0, 20.0);
  const auto s = plot::from_timeseries("x", ts);
  ASSERT_EQ(s.xs.size(), 2u);
  EXPECT_DOUBLE_EQ(s.xs[1], 2.0);
  EXPECT_DOUBLE_EQ(s.ys[1], 20.0);
}

TEST(PlotTest, RejectsUnwritablePath) {
  plot::Figure fig;
  fig.series.push_back({"a", {0.0}, {1.0}});
  EXPECT_THROW((void)plot::write_gnuplot("/nonexistent-dir/x", fig),
               std::runtime_error);
}

// ---- scenario helpers ------------------------------------------------------------

TEST(ScenarioTest, MakeScenarioNamesAreDescriptive) {
  const Scenario s = make_scenario(core::SchedulerKind::kGreedy,
                                   workload::SizeBucket::kLargeBiased, 1, true);
  EXPECT_EQ(s.name, "greedy/large/high-var");
}

TEST(ScenarioTest, ControllerConfigAppliesSchedulerFields) {
  Scenario s = make_scenario(core::SchedulerKind::kBandwidthSplit,
                             workload::SizeBucket::kUniform);
  s.enable_rescheduler = true;
  const ScenarioWorld world(s);
  const auto& cfg = world.controller().config();
  EXPECT_EQ(cfg.scheduler, core::SchedulerKind::kBandwidthSplit);
  EXPECT_TRUE(cfg.enable_rescheduler);
}

TEST(ScenarioTest, HighVarAppliesToEverySite) {
  Scenario s;
  s.ec_sites.push_back(s.ec_sites.front());
  s.ec_sites.back().name = "ec-2";
  s.high_network_variation = true;
  const ScenarioWorld world(s);
  const core::CloudBurstController& controller = world.controller();
  ASSERT_EQ(controller.site_count(), 2u);
  for (std::size_t i = 0; i < controller.site_count(); ++i) {
    for (const net::Link* link :
         {&controller.site(i).uplink, &controller.site(i).downlink}) {
      EXPECT_DOUBLE_EQ(link->config().noise_rho, 0.95);
      EXPECT_DOUBLE_EQ(link->config().noise_sigma, 0.25);
      EXPECT_DOUBLE_EQ(link->config().noise_step, 120.0);
    }
  }
}

}  // namespace
