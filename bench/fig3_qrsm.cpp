// Reproduces Fig. 3: the Quadratic Response Surface Model for processing
// time. Trains the QRSM on an observed production corpus and prints
//   (a) goodness of fit (R^2, RMSE, MAPE) on training and held-out data,
//   (b) the learned response surface over document size x image count
//       (the two dominant dimensions), alongside the true expectation,
//   (c) the online-tuning trajectory: prediction error as observations
//       accumulate (the autonomic loop of §III.A.1).
//
// Flags: --seed S (default 1234).
#include <cmath>
#include <cstdio>
#include <vector>

#include "harness/cli.hpp"
#include "models/estimator.hpp"
#include "models/qrsm.hpp"
#include "simcore/rng.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"

namespace {

/// Mean |predicted − actual| / actual over the documents `features`, with
/// predict()'s clamp at its 1 s floor.
double mape(const cbs::models::QrsmModel& model,
            const std::vector<cbs::workload::DocumentFeatures>& features,
            const std::vector<double>& actual) {
  double total = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    total += std::abs(model.predict(features[i]) - actual[i]) / actual[i];
  }
  return total / static_cast<double>(features.size());
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace cbs;
  const harness::cli::Args args(argc, argv, harness::cli::scenario_flags());
  sim::RngStream root(harness::cli::seed_from_args(args, 1234));
  workload::GroundTruthModel truth({}, root.substream("truth"));
  workload::WorkloadGenerator gen({}, truth, root.substream("gen"));

  // (a) fit on a noisy observed corpus, evaluate on held-out documents.
  const std::size_t train_n = 400;
  auto train_docs = gen.batch(train_n);
  std::vector<workload::DocumentFeatures> feats;
  std::vector<double> observed;
  for (const auto& d : train_docs) {
    feats.push_back(d.features);
    observed.push_back(truth.sample_seconds(d.features));
  }
  models::QrsmModel model;
  model.fit(feats, observed);
  const auto& fit = *model.last_fit();

  std::vector<workload::DocumentFeatures> held_out;
  std::vector<double> expected;
  for (const auto& d : gen.batch(200)) {
    held_out.push_back(d.features);
    expected.push_back(truth.expected_seconds(d.features));
  }
  std::printf("=== Fig. 3: QRSM for processing time ===\n\n");
  std::printf("training corpus: %zu documents (noisy observed runtimes)\n", train_n);
  std::printf("fit: R^2 = %.4f   RMSE = %.2fs   MAPE(train) = %.1f%%\n",
              fit.r_squared, fit.rmse, mape(model, feats, observed) * 100.0);
  std::printf("held-out MAPE vs true expectation: %.1f%%  (noise sigma %.2f)\n\n",
              mape(model, held_out, expected) * 100.0,
              truth.config().noise_sigma);

  // (b) the response surface over (size, images) with other features fixed
  // at a representative marketing document.
  std::printf("response surface: predicted (true) processing seconds\n");
  std::printf("%8s", "size\\img");
  for (int img = 0; img <= 160; img += 40) std::printf("  %12d", img);
  std::printf("\n");
  for (double size = 25.0; size <= 300.0; size += 55.0) {
    std::printf("%7.0fM", size);
    for (int img = 0; img <= 160; img += 40) {
      workload::DocumentFeatures f;
      f.size_mb = size;
      f.pages = static_cast<int>(size * 0.5);
      f.num_images = img;
      f.avg_image_mb = 1.5;
      f.resolution_dpi = 600.0;
      f.color_fraction = 0.8;
      f.text_ratio = 3.0;
      f.coverage = 0.85;
      f.type = workload::JobType::kMarketingMaterial;
      std::printf("  %5.0f (%4.0f)", model.predict(f), truth.expected_seconds(f));
    }
    std::printf("\n");
  }

  // (c) online tuning: start from a small prior, stream observations.
  std::printf("\nonline tuning (autonomic loop): held-out MAPE vs observations\n");
  models::QrsmModel online;
  workload::WorkloadGenerator stream_gen({}, truth, root.substream("stream"));
  std::printf("%14s %10s\n", "observations", "MAPE");
  for (int step = 0; step <= 8; ++step) {
    if (step > 0) {
      for (int i = 0; i < 64; ++i) {
        auto d = stream_gen.next();
        online.observe(d.features, truth.sample_seconds(d.features));
      }
    }
    std::printf("%14zu %9.1f%%\n", online.observations(),
                mape(online, held_out, expected) * 100.0);
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
}
