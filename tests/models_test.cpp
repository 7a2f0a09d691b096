#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <string>

#include "linalg/cholesky.hpp"
#include "models/estimator.hpp"
#include "models/feature_vector.hpp"
#include "models/qrsm.hpp"
#include "simcore/rng.hpp"
#include "workload/generator.hpp"
#include "workload/ground_truth.hpp"

namespace {

using namespace cbs::models;
using cbs::sim::RngStream;
using cbs::workload::Document;
using cbs::workload::DocumentFeatures;
using cbs::workload::GroundTruthModel;
using cbs::workload::WorkloadGenerator;

// ---- feature extraction ---------------------------------------------------

TEST(FeatureVectorTest, ExtractRawOrderMatchesNames) {
  DocumentFeatures f;
  f.size_mb = 1.0;
  f.pages = 2;
  f.num_images = 3;
  f.avg_image_mb = 4.0;
  f.resolution_dpi = 5.0;
  f.color_fraction = 6.0;
  f.text_ratio = 7.0;
  f.coverage = 8.0;
  const auto raw = extract_raw(f);
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    EXPECT_DOUBLE_EQ(raw[i], static_cast<double>(i + 1));
  }
  EXPECT_EQ(feature_names().size(), kNumRawFeatures);
}

TEST(FeatureVectorTest, QuadraticDimFormula) {
  EXPECT_EQ(quadratic_dim(2), 1u + 2u + 1u + 2u);
  EXPECT_EQ(quadratic_dim(8), 1u + 8u + 28u + 8u);
}

TEST(FeatureVectorTest, QuadraticExpandLayout) {
  std::array<double, kNumRawFeatures> x{};
  for (std::size_t i = 0; i < kNumRawFeatures; ++i) {
    x[i] = static_cast<double>(i + 1);
  }
  const auto row = quadratic_expand(x);
  ASSERT_EQ(row.size(), quadratic_dim(kNumRawFeatures));
  EXPECT_DOUBLE_EQ(row[0], 1.0);                    // intercept
  EXPECT_DOUBLE_EQ(row[1], 1.0);                    // x1
  EXPECT_DOUBLE_EQ(row[8], 8.0);                    // x8
  EXPECT_DOUBLE_EQ(row[9], 1.0 * 2.0);              // x1*x2
  EXPECT_DOUBLE_EQ(row[10], 1.0 * 3.0);             // x1*x3
  EXPECT_DOUBLE_EQ(row.back(), 8.0 * 8.0);          // x8^2
  EXPECT_DOUBLE_EQ(row[row.size() - kNumRawFeatures], 1.0);  // x1^2
}

TEST(FeatureVectorTest, ScalerStandardizes) {
  std::vector<std::array<double, kNumRawFeatures>> rows;
  for (int i = 0; i < 100; ++i) {
    std::array<double, kNumRawFeatures> r{};
    r[0] = static_cast<double>(i);  // varies
    r[1] = 5.0;                     // constant
    rows.push_back(r);
  }
  const auto scaler = FeatureScaler::fit(rows);
  EXPECT_NEAR(scaler.mean[0], 49.5, 1e-9);
  EXPECT_DOUBLE_EQ(scaler.scale[1], 1.0);  // constant features get scale 1
  const auto z = scaler.apply(rows[0]);
  EXPECT_LT(z[0], 0.0);  // below the mean
  EXPECT_DOUBLE_EQ(z[1], 0.0);
}

// ---- QrsmModel --------------------------------------------------------------

GroundTruthModel noiseless_truth() {
  GroundTruthModel::Config cfg;
  cfg.noise_sigma = 0.0;
  return GroundTruthModel(cfg, RngStream(1));
}

TEST(QrsmTest, RecoversNoiselessQuadraticLawExactly) {
  // Restricted to a single job class (constant type multiplier), the
  // ground-truth law is nearly quadratic in the raw features (one trilinear
  // term — size x resolution x color — is outside the model class), so a
  // QRSM fit on noiseless labels must be near-perfect.
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(2));
  std::vector<DocumentFeatures> feats;
  std::vector<double> y;
  for (int i = 0; i < 400; ++i) {
    Document d = gen.next();
    d.features.type = cbs::workload::JobType::kMailCampaign;
    feats.push_back(d.features);
    y.push_back(truth.expected_seconds(d.features));
  }
  QrsmModel model({.ridge_lambda = 1e-8});
  model.fit(feats, y);
  ASSERT_TRUE(model.is_fitted());
  EXPECT_GT(model.last_fit()->r_squared, 0.995);

  WorkloadGenerator held_out({}, truth, RngStream(3));
  for (int i = 0; i < 100; ++i) {
    Document d = held_out.next();
    d.features.type = cbs::workload::JobType::kMailCampaign;
    const double actual = truth.expected_seconds(d.features);
    EXPECT_NEAR(model.predict(d.features), actual, 0.10 * actual + 6.0);
  }
}

TEST(QrsmTest, UnfittedFallsBackToBufferMean) {
  QrsmModel model;
  DocumentFeatures f;
  f.size_mb = 10.0;
  EXPECT_DOUBLE_EQ(model.predict(f), 1.0);  // min_prediction floor
  model.observe(f, 100.0);
  model.observe(f, 200.0);
  EXPECT_DOUBLE_EQ(model.predict(f), 150.0);
}

TEST(QrsmTest, PredictionClampedToFloor) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(4));
  std::vector<DocumentFeatures> feats;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    feats.push_back(gen.next().features);
    y.push_back(1.5);  // constant tiny label
  }
  QrsmModel model({.min_prediction_seconds = 5.0});
  model.fit(feats, y);
  DocumentFeatures f = feats[0];
  EXPECT_GE(model.predict(f), 5.0);
}

TEST(QrsmTest, OnlineRefitHappensAtInterval) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(5));
  QrsmModel model({.refit_interval = 16});
  // Below the data requirement: no fit yet, regardless of interval.
  for (int i = 0; i < 32; ++i) {
    const Document d = gen.next();
    model.observe(d.features, truth.expected_seconds(d.features));
  }
  EXPECT_FALSE(model.is_fitted());
  for (int i = 0; i < 64; ++i) {
    const Document d = gen.next();
    model.observe(d.features, truth.expected_seconds(d.features));
  }
  EXPECT_TRUE(model.is_fitted());
}

TEST(QrsmTest, WindowBoundsBuffer) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(6));
  QrsmModel model({.refit_interval = 1000000, .window = 50});
  for (int i = 0; i < 200; ++i) {
    const Document d = gen.next();
    model.observe(d.features, 1.0);
  }
  EXPECT_EQ(model.buffered(), 50u);
  EXPECT_EQ(model.observations(), 200u);
}

TEST(QrsmTest, RankDeficientWindowKeepsLastFit) {
  // Without a ridge term, a window of identical documents makes the normal
  // equations singular. The refit must fail softly: keep the previous fit
  // and count the failure.
  const QrsmModel::Config cfg{.ridge_lambda = 0.0, .window = 64};
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(8));
  std::vector<DocumentFeatures> feats;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    const Document d = gen.next();
    feats.push_back(d.features);
    y.push_back(truth.expected_seconds(d.features));
  }
  QrsmModel model(cfg);
  model.fit(feats, y);
  ASSERT_TRUE(model.is_fitted());
  EXPECT_EQ(model.refit_failures(), 0u);
  const QrsmFit before = *model.last_fit();
  const double predicted_before = model.predict(feats[0]);

  // Once fewer than kQuadraticDim distinct rows remain, the window cannot
  // determine the surface; at the end it is 64 identical rows.
  const DocumentFeatures same{.size_mb = 100.0};
  for (std::size_t i = 0; i < cfg.window; ++i) model.observe(same, 10.0);
  EXPECT_GE(model.refit_failures(), 1u);
  ASSERT_TRUE(model.is_fitted());
  EXPECT_EQ(model.last_fit()->coefficients, before.coefficients);
  EXPECT_EQ(model.last_fit()->r_squared, before.r_squared);
  EXPECT_EQ(model.last_fit()->rmse, before.rmse);
  EXPECT_TRUE(std::isfinite(model.predict(same)));
  EXPECT_EQ(model.predict(feats[0]), predicted_before);
}

TEST(QrsmTest, AdaptsToRegimeChange) {
  // Labels double mid-stream; the windowed online fit must follow.
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(7));
  QrsmModel model({.refit_interval = 32, .window = 256});
  std::vector<Document> probe_docs;
  for (int i = 0; i < 20; ++i) probe_docs.push_back(gen.next());

  for (int i = 0; i < 300; ++i) {
    const Document d = gen.next();
    model.observe(d.features, truth.expected_seconds(d.features));
  }
  const double before = model.predict(probe_docs[0].features);
  for (int i = 0; i < 400; ++i) {
    const Document d = gen.next();
    model.observe(d.features, 2.0 * truth.expected_seconds(d.features));
  }
  const double after = model.predict(probe_docs[0].features);
  EXPECT_GT(after, 1.5 * before);
}

// ---- incremental QRSM against a batch fit ----------------------------------

struct Labeled {
  DocumentFeatures features;
  double y = 0.0;
};

/// The batch reference, independent of the model's moments: FeatureScaler::fit
/// and quadratic_expand give the explicit design rows of `window`; the ridge
/// normal equations XᵀX + λI = Xᵀy are formed from those rows and solved by
/// Cholesky, and R² and RMSE come from the explicit residuals.
QrsmFit batch_fit(const std::deque<Labeled>& window, double lambda) {
  constexpr std::size_t n = kQuadraticDim;
  std::vector<std::array<double, kNumRawFeatures>> raws;
  for (const Labeled& ex : window) raws.push_back(extract_raw(ex.features));
  const FeatureScaler scaler = FeatureScaler::fit(raws);
  std::vector<QuadraticRow> design;
  for (const auto& raw : raws) design.push_back(quadratic_expand(scaler.apply(raw)));

  // Only the lower triangle of XᵀX + λI is formed: cholesky_in_place reads
  // nothing else.
  std::vector<double> gram(n * n, 0.0);
  QrsmFit fit;
  for (std::size_t r = 0; r < design.size(); ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j <= i; ++j) {
        gram[i * n + j] += design[r][i] * design[r][j];
      }
      fit.coefficients[i] += design[r][i] * window[r].y;
    }
  }
  for (std::size_t i = 0; i < n; ++i) gram[i * n + i] += lambda;
  EXPECT_TRUE(cbs::linalg::cholesky_in_place(gram, n));
  cbs::linalg::cholesky_solve_in_place(gram, n, fit.coefficients);

  double mean_y = 0.0;
  for (const Labeled& ex : window) mean_y += ex.y;
  mean_y /= static_cast<double>(window.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t r = 0; r < design.size(); ++r) {
    double pred = 0.0;
    for (std::size_t i = 0; i < n; ++i) pred += design[r][i] * fit.coefficients[i];
    const double y = window[r].y;
    ss_res += (y - pred) * (y - pred);
    ss_tot += (y - mean_y) * (y - mean_y);
  }
  fit.rmse = std::sqrt(ss_res / static_cast<double>(window.size()));
  fit.r_squared = ss_tot <= 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

void expect_matches_batch(const QrsmFit& got, const QrsmFit& want) {
  double diff2 = 0.0;
  double want2 = 0.0;
  for (std::size_t i = 0; i < kQuadraticDim; ++i) {
    const double d = got.coefficients[i] - want.coefficients[i];
    diff2 += d * d;
    want2 += want.coefficients[i] * want.coefficients[i];
  }
  EXPECT_LE(std::sqrt(diff2) / std::sqrt(want2), 1e-8);
  EXPECT_NEAR(got.r_squared, want.r_squared, 1e-8);
  EXPECT_NEAR(got.rmse, want.rmse, 1e-8);
}

/// `n` documents with noisy labels; from `regime_change_at` on the labels
/// are scaled by `factor`.
std::vector<Labeled> labeled_stream(std::size_t n, std::uint64_t seed,
                                    std::size_t regime_change_at = SIZE_MAX,
                                    double factor = 1.7) {
  GroundTruthModel truth({}, RngStream(seed));
  WorkloadGenerator gen({}, truth, RngStream(seed + 1));
  std::vector<Labeled> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Document d = gen.next();
    const double y = truth.sample_seconds(d.features);
    out.push_back({d.features, i >= regime_change_at ? factor * y : y});
  }
  return out;
}

/// Streams `data` through observe() on `model`, built with `cfg`, and
/// checks every automatic refit against the batch fit on the same window.
/// Returns the refits checked.
std::size_t stream_against_batch(QrsmModel& model,
                                 const QrsmModel::Config& cfg,
                                 const std::vector<Labeled>& data) {
  std::deque<Labeled> window;
  std::size_t checked = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    model.observe(data[i].features, data[i].y);
    window.push_back(data[i]);
    if (cfg.window > 0 && window.size() > cfg.window) window.pop_front();
    EXPECT_EQ(model.buffered(), window.size());
    const bool refitted = (i + 1) % cfg.refit_interval == 0 &&
                          window.size() >= kQuadraticDim + kQuadraticDim / 4;
    if (!refitted) continue;
    SCOPED_TRACE("after observation " + std::to_string(i + 1));
    EXPECT_NO_FATAL_FAILURE(expect_matches_batch(
        *model.last_fit(), batch_fit(window, cfg.ridge_lambda)));
    ++checked;
  }
  EXPECT_EQ(model.refit_failures(), 0u);
  return checked;
}

std::size_t stream_against_batch(const QrsmModel::Config& cfg,
                                 const std::vector<Labeled>& data) {
  QrsmModel model(cfg);
  return stream_against_batch(model, cfg, data);
}

TEST(QrsmIncrementalTest, MatchesBatchBeforeTheWindowFills) {
  const auto data = labeled_stream(1000, 21);
  EXPECT_EQ(stream_against_batch({.refit_interval = 16, .window = 4096}, data),
            (1000 - 64) / 16 + 1);
}

TEST(QrsmIncrementalTest, MatchesBatchAcrossManyWindowWraps) {
  // A 256-row window wraps after 256 observations, so 4000 observations
  // replace the whole window fifteen times over, each row entering the
  // moments by one update and leaving by one downdate.
  const auto data = labeled_stream(4000, 22);
  EXPECT_EQ(stream_against_batch({.refit_interval = 16, .window = 256}, data),
            (4000 - 64) / 16 + 1);
}

TEST(QrsmIncrementalTest, LongStreamNeedsNoPeriodicRebuild) {
  // 100 000 observations on a 256-row window, labels jumping x1.7 halfway:
  // 200 000 updates and downdates of the same moments, and 6 250 refits.
  // A stationary stream neither strays from the reference scaling nor
  // comes near the rounding bound, so the moments are built once, at the
  // first refit, and every refit still matches the batch fit.
  constexpr std::size_t kObservations = 100000;
  const QrsmModel::Config cfg{.refit_interval = 16, .window = 256};
  const auto data = labeled_stream(kObservations, 27, kObservations / 2);
  QrsmModel model(cfg);
  EXPECT_EQ(stream_against_batch(model, cfg, data),
            (kObservations - 64) / cfg.refit_interval + 1);
  // 64 rows at the first refit, then one update per observation and one
  // downdate per observation past the window.
  EXPECT_EQ(model.moment_rows(), 64 + (kObservations - 64) +
                                     (kObservations - cfg.window));
}

TEST(QrsmIncrementalTest, LabelCollapseTriggersARebuild) {
  // Labels shrink 10⁴× halfway. Once the large ones have left the window,
  // the rounding their updates left in the label sums is large next to
  // what remains (R² would be off by ~1e-7 without a rebuild); the drift
  // bound sees the window's Σy² collapse and rebuilds. The features do
  // not move, so the scaling guard never fires.
  constexpr std::size_t kObservations = 3000;
  const QrsmModel::Config cfg{.refit_interval = 16, .window = 256};
  const auto data =
      labeled_stream(kObservations, 28, kObservations / 2, /*factor=*/1e-4);
  QrsmModel model(cfg);
  stream_against_batch(model, cfg, data);
  const std::size_t without_rebuild =
      64 + (kObservations - 64) + (kObservations - cfg.window);
  EXPECT_GE(model.moment_rows(), without_rebuild + cfg.window);
}

TEST(QrsmIncrementalTest, MatchesBatchThroughRegimeChange) {
  // Labels jump by x1.7 halfway and two features drift: the spread of
  // size_mb collapses 1000x and resolution shifts. The window's scaling
  // then moves far from the reference one; carried across by the change
  // of basis alone, the moments' rounding would grow with the map's
  // quartic terms to a coefficient error of several percent, so the refit
  // must rebuild instead.
  auto data = labeled_stream(2400, 23, /*regime_change_at=*/1200);
  for (std::size_t i = 1200; i < data.size(); ++i) {
    data[i].features.size_mb *= 0.001;
    data[i].features.resolution_dpi += 300.0;
  }
  stream_against_batch({.refit_interval = 32, .window = 512}, data);
}

TEST(QrsmIncrementalTest, MatchesBatchWhenKeepingAll) {
  const auto data = labeled_stream(1500, 24);
  stream_against_batch({.refit_interval = 32, .window = 0}, data);
}

TEST(QrsmIncrementalTest, MatchesBatchWithAConstantFeature) {
  auto data = labeled_stream(1200, 25);
  for (Labeled& ex : data) ex.features.coverage = 0.5;  // scale 1
  stream_against_batch({.refit_interval = 16, .window = 300}, data);
}

TEST(QrsmIncrementalTest, MatchesBatchWithTinyRidge) {
  // The ridge term of RecoversNoiselessQuadraticLawExactly, on a stream.
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(2));
  std::vector<Labeled> data;
  for (int i = 0; i < 1500; ++i) {
    Document d = gen.next();
    d.features.type = cbs::workload::JobType::kMailCampaign;
    data.push_back({d.features, truth.expected_seconds(d.features)});
  }
  stream_against_batch({.ridge_lambda = 1e-8, .refit_interval = 32,
                        .window = 400},
                       data);
}

TEST(QrsmIncrementalTest, LastFitDescribesTheWindowItWasFittedOn) {
  // The fit is read only after later observations pushed rows of its
  // window out: it must still describe that window.
  const QrsmModel::Config cfg{.refit_interval = 32, .window = 128};
  const auto data = labeled_stream(400, 26);
  QrsmModel model(cfg);
  std::deque<Labeled> fit_window;
  for (std::size_t i = 0; i < 320; ++i) {
    model.observe(data[i].features, data[i].y);
    fit_window.push_back(data[i]);
    if (fit_window.size() > cfg.window) fit_window.pop_front();
  }
  for (std::size_t i = 320; i < 340; ++i) {
    model.observe(data[i].features, data[i].y);
  }
  EXPECT_EQ(model.buffered(), cfg.window);
  expect_matches_batch(*model.last_fit(),
                       batch_fit(fit_window, cfg.ridge_lambda));
}

// ---- estimators --------------------------------------------------------------

TEST(EstimatorTest, OracleReturnsExpectation) {
  const auto truth = noiseless_truth();
  OracleEstimator oracle(truth);
  Document d;
  d.features.size_mb = 120.0;
  EXPECT_DOUBLE_EQ(oracle.estimate_seconds(d),
                   truth.expected_seconds(d.features));
}

TEST(EstimatorTest, QrsmEstimatorLearnsFromObserve) {
  const auto truth = noiseless_truth();
  WorkloadGenerator gen({}, truth, RngStream(8));
  QrsmEstimator estimator({.refit_interval = 32});
  for (int i = 0; i < 200; ++i) {
    const Document d = gen.next();
    estimator.observe(d, truth.expected_seconds(d.features));
  }
  EXPECT_TRUE(estimator.model().is_fitted());
  const Document probe = gen.next();
  const double actual = truth.expected_seconds(probe.features);
  EXPECT_NEAR(estimator.estimate_seconds(probe), actual, 0.1 * actual + 1.0);
}

}  // namespace
