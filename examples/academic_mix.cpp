// The paper's §VII extension target: "the extension of the scheduler
// techniques ... to multiple job classes would make the cloud bursting
// approach applicable to a multitude of environments like academic
// computing". This example runs a mixed-class workload and compares the
// pooled QRSM against the per-class surfaces on both prediction accuracy
// and the SLA metrics the better estimates buy.
#include <cmath>
#include <cstdio>

#include "harness/experiment.hpp"
#include "harness/scenario.hpp"
#include "models/per_class_qrsm.hpp"
#include "models/qrsm.hpp"
#include "workload/generator.hpp"

namespace {

double held_out_mape(const cbs::models::ProcessingTimeEstimator& estimator,
                     const std::vector<cbs::workload::Document>& docs,
                     const cbs::workload::GroundTruthModel& truth) {
  double total = 0.0;
  for (const auto& d : docs) {
    const double actual = truth.expected_seconds(d.features);
    total += std::abs(estimator.estimate_seconds(d) - actual) / actual;
  }
  return total / static_cast<double>(docs.size());
}

}  // namespace

int main() {
  using namespace cbs;
  sim::RngStream root(7001);
  workload::GroundTruthModel truth({}, root.substream("truth"));
  workload::WorkloadGenerator gen({}, truth, root.substream("gen"));

  // Train both estimators on the same observed stream. The class surfaces
  // see ~1/7 of the data each, so they carry a stronger ridge.
  models::QrsmEstimator pooled;
  models::PerClassQrsmEstimator per_class(
      {.model = {.ridge_lambda = 0.5}, .min_class_observations = 200});
  for (int i = 0; i < 4000; ++i) {
    const auto d = gen.next();
    const double observed = truth.sample_seconds(d.features);
    pooled.observe(d, observed);
    per_class.observe(d, observed);
  }

  workload::WorkloadGenerator held_gen({}, truth, root.substream("held"));
  const auto held = held_gen.batch(400);

  std::printf("=== multi-class estimation (academic-mix workload) ===\n\n");
  std::printf("held-out MAPE: pooled QRSM %.1f%%, per-class QRSM %.1f%%\n",
              held_out_mape(pooled, held, truth) * 100.0,
              held_out_mape(per_class, held, truth) * 100.0);
  std::printf(
      "(the pooled surface partially infers the class from correlated\n"
      " features, so per-class surfaces win only where their 1/7 share of\n"
      " the data outweighs the variance cost — exactly the trade-off the\n"
      " paper defers to future work)\n");

  std::printf("\nper-class breakdown (MAPE %%):\n");
  std::printf("%-24s %8s %10s %8s\n", "class", "pooled", "per-class", "active");
  for (const auto type : workload::kAllJobTypes) {
    std::vector<workload::Document> class_docs;
    for (const auto& d : held) {
      if (d.features.type == type) class_docs.push_back(d);
    }
    if (class_docs.empty()) continue;
    std::printf("%-24s %7.1f%% %9.1f%% %8s\n",
                std::string(workload::to_string(type)).c_str(),
                held_out_mape(pooled, class_docs, truth) * 100.0,
                held_out_mape(per_class, class_docs, truth) * 100.0,
                per_class.class_active(type) ? "yes" : "no");
  }

  // Do better estimates buy better SLAs? Same workload, two controllers.
  std::printf("\nscheduling impact (Order Preserving, uniform bucket):\n");
  std::printf("%-22s %10s %9s %9s\n", "estimator", "makespan", "speedup",
              "burst");
  for (const auto kind :
       {core::EstimatorKind::kQrsm, core::EstimatorKind::kPerClassQrsm}) {
    harness::Scenario scenario;
    scenario.seed = 4242;
    scenario.num_batches = 6;
    scenario.pretrain_samples = 400;
    scenario.scheduler = core::SchedulerKind::kOrderPreserving;
    scenario.estimator = kind;
    const harness::RunResult run = harness::run_scenario(scenario);
    std::printf("%-22s %9.1fs %9.2f %9.2f\n",
                kind == core::EstimatorKind::kQrsm ? "pooled-qrsm"
                                                   : "per-class-qrsm",
                run.report.makespan_seconds, run.report.speedup,
                run.report.burst_ratio);
  }
  return 0;
}
