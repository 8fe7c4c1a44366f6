#include <gtest/gtest.h>

#include "hdfs/types.h"
#include "judge/predictor.h"

namespace erms::judge {
namespace {

constexpr hdfs::FileId kX{1};
constexpr hdfs::FileId kA{1};
constexpr hdfs::FileId kB{2};

Thresholds thresholds() {
  Thresholds t;
  t.tau_M = 8.0;
  return t;
}

TEST(Predictor, UnseenFilePredictsZero) {
  AccessPredictor p;
  EXPECT_EQ(p.predict(kX), 0.0);
  EXPECT_EQ(p.tracked_files(), 0u);
}

TEST(Predictor, FirstObservationPrimesLevel) {
  AccessPredictor p;
  p.observe(kX, 10.0);
  EXPECT_DOUBLE_EQ(p.level(kX), 10.0);
  EXPECT_DOUBLE_EQ(p.trend(kX), 0.0);
  EXPECT_DOUBLE_EQ(p.predict(kX), 10.0);
}

TEST(Predictor, RisingSeriesPredictsAboveLast) {
  AccessPredictor p;
  for (const double v : {10.0, 20.0, 30.0, 40.0, 50.0}) {
    p.observe(kX, v);
  }
  EXPECT_GT(p.trend(kX), 0.0);
  EXPECT_GT(p.predict(kX), 50.0);
}

TEST(Predictor, FallingSeriesPredictsBelowLast) {
  AccessPredictor p;
  for (const double v : {50.0, 40.0, 30.0, 20.0, 10.0}) {
    p.observe(kX, v);
  }
  EXPECT_LT(p.trend(kX), 0.0);
  EXPECT_LT(p.predict(kX), 10.0);
}

TEST(Predictor, PredictionNeverNegative) {
  AccessPredictor p;
  for (const double v : {100.0, 50.0, 10.0, 1.0, 0.0, 0.0}) {
    p.observe(kX, v);
  }
  EXPECT_GE(p.predict(kX), 0.0);
}

TEST(Predictor, FlatSeriesConverges) {
  AccessPredictor p;
  for (int i = 0; i < 50; ++i) {
    p.observe(kX, 7.0);
  }
  EXPECT_NEAR(p.level(kX), 7.0, 0.01);
  EXPECT_NEAR(p.trend(kX), 0.0, 0.01);
  EXPECT_NEAR(p.predict(kX), 7.0, 0.05);
}

TEST(Predictor, IndependentFiles) {
  AccessPredictor p;
  p.observe(kA, 5.0);
  p.observe(kB, 100.0);
  EXPECT_DOUBLE_EQ(p.predict(kA), 5.0);
  EXPECT_DOUBLE_EQ(p.predict(kB), 100.0);
  EXPECT_EQ(p.tracked_files(), 2u);
}

TEST(Predictor, Forget) {
  AccessPredictor p;
  p.observe(kA, 5.0);
  p.forget(kA);
  EXPECT_EQ(p.predict(kA), 0.0);
  EXPECT_EQ(p.tracked_files(), 0u);
}

TEST(Predictor, LongerHorizonExtrapolatesFurther) {
  AccessPredictor::Config near;
  near.horizon_periods = 1.0;
  AccessPredictor::Config far;
  far.horizon_periods = 4.0;
  AccessPredictor pn{near};
  AccessPredictor pf{far};
  for (const double v : {10.0, 20.0, 30.0}) {
    pn.observe(kX, v);
    pf.observe(kX, v);
  }
  EXPECT_GT(pf.predict(kX), pn.predict(kX));
}

/// Property sweep: for any smoothing configuration, a strictly rising
/// series yields a positive trend and a forecast above the smoothed level.
class PredictorConfigSweep
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(PredictorConfigSweep, RisingSeriesForecastsUpward) {
  const auto [alpha, beta, horizon] = GetParam();
  AccessPredictor::Config cfg;
  cfg.alpha = alpha;
  cfg.beta = beta;
  cfg.horizon_periods = horizon;
  AccessPredictor p{cfg};
  for (int i = 1; i <= 20; ++i) {
    p.observe(kX, i * 10.0);
  }
  EXPECT_GT(p.trend(kX), 0.0);
  EXPECT_GT(p.predict(kX), p.level(kX));
  EXPECT_GT(p.predict(kX), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PredictorConfigSweep,
    ::testing::Combine(::testing::Values(0.2, 0.5, 0.8), ::testing::Values(0.1, 0.5),
                       ::testing::Values(1.0, 3.0)));

// ---------- PredictiveJudge ----------

FileObservation obs(std::uint64_t accesses) {
  FileObservation o;
  o.file = kX;
  o.accesses = accesses;
  o.replication = 3;
  o.block_count = 4;
  o.last_access = sim::SimTime{0};
  return o;
}

TEST(PredictiveJudge, PromotesRisingFileBeforeThreshold) {
  AccessPredictor::Config cfg;
  cfg.horizon_periods = 3.0;
  PredictiveJudge judge{thresholds(), cfg};
  const sim::SimTime now{1};
  // Ramp: 4, 10, 16, 22 accesses. τ_M·r = 24, so none of these is hot on
  // observed counts — but the trend forecasts past the threshold.
  Classification last;
  bool promoted_early = false;
  for (const std::uint64_t n : {4u, 10u, 16u, 22u}) {
    last = judge.classify(obs(n), now, 3, 10);
    if (n < 24 && last.type == DataType::kHot) {
      promoted_early = true;
    }
  }
  EXPECT_TRUE(promoted_early);
  EXPECT_GT(judge.predictive_promotions(), 0u);
}

TEST(PredictiveJudge, SteadyColdFileNotPromoted) {
  PredictiveJudge judge{thresholds()};
  const sim::SimTime now{sim::hours(30.0).micros()};
  Classification c;
  for (int i = 0; i < 10; ++i) {
    c = judge.classify(obs(0), now, 3, 10);
  }
  EXPECT_EQ(c.type, DataType::kCold);  // facts, not forecasts, drive cooling
  EXPECT_EQ(judge.predictive_promotions(), 0u);
}

TEST(PredictiveJudge, ObservedHotDoesNotCountAsPredictive) {
  PredictiveJudge judge{thresholds()};
  const sim::SimTime now{1};
  const Classification c = judge.classify(obs(100), now, 3, 10);
  EXPECT_EQ(c.type, DataType::kHot);
  EXPECT_EQ(judge.predictive_promotions(), 0u);
}

TEST(PredictiveJudge, FallingFileUsesObservedCounts) {
  PredictiveJudge judge{thresholds()};
  const sim::SimTime now{1};
  // A file that was hot and is crashing down must not stay "hot" because of
  // stale forecasts.
  ASSERT_EQ(judge.classify(obs(100), now, 3, 10).type, DataType::kHot);
  Classification c;
  for (const std::uint64_t n : {10u, 2u, 0u}) {
    c = judge.classify(obs(n), now, 3, 10);
  }
  EXPECT_NE(c.type, DataType::kHot);
}

}  // namespace
}  // namespace erms::judge
