#include <gtest/gtest.h>

#include <cmath>

#include "rainshine/core/prediction.hpp"
#include "rainshine/core/repair_analytics.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::core {
namespace {

class AnalyticsTest : public ::testing::Test {
 protected:
  static simdc::FleetSpec spec() {
    simdc::FleetSpec s = simdc::FleetSpec::test_default();
    s.num_days = 240;
    return s;
  }

  AnalyticsTest()
      : fleet_(spec()),
        env_(fleet_, fleet_.spec().seed),
        hazard_(fleet_, env_),
        log_(simulate(fleet_, env_, hazard_, {.seed = 11})),
        metrics_(fleet_, log_) {}

  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
  simdc::TicketLog log_;
  FailureMetrics metrics_;
};

TEST_F(AnalyticsTest, MttrByFaultCoversHardwareTypes) {
  const auto rows = mttr_by_fault(fleet_, log_);
  ASSERT_GE(rows.size(), 3U);
  std::size_t total = 0;
  for (const auto& r : rows) {
    EXPECT_GT(r.mttr_hours, 0.0);
    EXPECT_LE(r.median_hours, r.p95_hours);
    total += r.tickets;
  }
  EXPECT_EQ(total, log_.hardware_true_positives().size());
}

TEST_F(AnalyticsTest, MttrBySkuPartitionsTickets) {
  const auto rows = mttr_by_sku(fleet_, log_);
  std::size_t total = 0;
  for (const auto& r : rows) total += r.tickets;
  EXPECT_EQ(total, log_.hardware_true_positives().size());
}

TEST_F(AnalyticsTest, RackAvailabilityBounds) {
  const auto rows = rack_availability(metrics_, log_);
  ASSERT_EQ(rows.size(), fleet_.num_racks());
  std::size_t with_failures = 0;
  for (const auto& r : rows) {
    EXPECT_GE(r.server_downtime_fraction, 0.0);
    EXPECT_LT(r.server_downtime_fraction, 1.0);
    if (r.hardware_tickets > 0) {
      ++with_failures;
      EXPECT_GT(r.mtbf_days, 0.0);
      EXPECT_LE(r.mtbf_days, fleet_.spec().num_days);
    } else {
      EXPECT_DOUBLE_EQ(r.mtbf_days, 0.0);
      EXPECT_DOUBLE_EQ(r.server_downtime_fraction, 0.0);
    }
  }
  EXPECT_GT(with_failures, fleet_.num_racks() / 2);
}

TEST_F(AnalyticsTest, ServerSurvivalCurvesAreValid) {
  const auto cohorts = server_survival_by(fleet_, log_, Cohort::kDataCenter);
  ASSERT_EQ(cohorts.size(), 2U);
  std::size_t servers = 0;
  for (const auto& c : cohorts) {
    servers += c.servers;
    EXPECT_LE(c.failures, c.servers);
    EXPECT_GT(c.rmst_days, 0.0);
    EXPECT_LE(c.rmst_days, fleet_.spec().num_days);
    double prev = 1.0;
    for (const auto& p : c.curve) {
      EXPECT_LE(p.survival, prev);
      EXPECT_GE(p.survival, 0.0);
      prev = p.survival;
    }
  }
  EXPECT_EQ(servers, fleet_.num_servers());
}

TEST_F(AnalyticsTest, SurvivalSeparatesSkuQuality) {
  const auto cohorts = server_survival_by(fleet_, log_, Cohort::kSku);
  const CohortSurvival* s2 = nullptr;
  const CohortSurvival* s4 = nullptr;
  for (const auto& c : cohorts) {
    if (c.label == "S2") s2 = &c;
    if (c.label == "S4") s4 = &c;
  }
  if (s2 == nullptr || s4 == nullptr) {
    GTEST_SKIP() << "test fleet lacks S2/S4 pair";
  }
  // S4 (planted 4x more reliable) must show longer failure-free time.
  EXPECT_GT(s4->rmst_days, s2->rmst_days);
}

TEST_F(AnalyticsTest, PredictionBeatsPrevalenceBaseline) {
  PredictionOptions opt;
  opt.day_stride = 4;
  opt.horizon_days = 7;
  const PredictionStudy study = predict_rack_failures(metrics_, env_, opt);

  EXPECT_GT(study.train_rows, 100U);
  EXPECT_GT(study.test_rows, 100U);
  EXPECT_EQ(study.test.total(), study.test_rows);

  // The classifier must carry real signal: recall well above zero while
  // precision beats the base rate (predicting "fail" for everyone would have
  // precision == prevalence).
  EXPECT_GT(study.test.recall(), 0.3);
  EXPECT_GT(study.test.precision(), study.test_positive_rate);
  EXPECT_GT(study.test.f1(), 0.3);
  EXPECT_FALSE(study.factors.empty());
}

TEST_F(AnalyticsTest, PredictionTrainSplitIgnoresTestPeriodTickets) {
  PredictionOptions opt;
  opt.day_stride = 1;
  opt.horizon_days = 14;
  // The split day predict_rack_failures derives from these options.
  const util::DayIndex first_day = opt.history_days;
  const util::DayIndex last_day = fleet_.spec().num_days - opt.horizon_days;
  const auto split_day = static_cast<util::DayIndex>(
      first_day + opt.train_fraction * (last_day - first_day));

  // A log identical before the split and empty from it on: every label the
  // train split may read is unchanged, every test-period ticket is gone.
  std::vector<simdc::Ticket> before;
  for (const simdc::Ticket& t : log_.tickets()) {
    if (t.open_day() < split_day) before.push_back(t);
  }
  ASSERT_LT(before.size(), log_.size());
  const simdc::TicketLog truncated(std::move(before));
  const FailureMetrics truncated_metrics(fleet_, truncated);

  const PredictionStudy full = predict_rack_failures(metrics_, env_, opt);
  const PredictionStudy cut = predict_rack_failures(truncated_metrics, env_, opt);
  EXPECT_EQ(full.train_rows, cut.train_rows);
  EXPECT_EQ(full.train.tp, cut.train.tp);
  EXPECT_EQ(full.train.fp, cut.train.fp);
  EXPECT_EQ(full.train.tn, cut.train.tn);
  EXPECT_EQ(full.train.fn, cut.train.fn);
  EXPECT_TRUE(full.tree == cut.tree);
  // The test split does see the difference.
  EXPECT_NE(full.test_positive_rate, cut.test_positive_rate);
}

TEST_F(AnalyticsTest, PredictionValidatesOptions) {
  PredictionOptions bad;
  bad.horizon_days = 0;
  EXPECT_THROW(predict_rack_failures(metrics_, env_, bad), util::precondition_error);
  PredictionOptions too_long;
  too_long.horizon_days = 10000;
  EXPECT_THROW(predict_rack_failures(metrics_, env_, too_long),
               util::precondition_error);
  PredictionOptions bad_fraction;
  bad_fraction.train_fraction = 1.5;
  EXPECT_THROW(predict_rack_failures(metrics_, env_, bad_fraction),
               util::precondition_error);
}

TEST_F(AnalyticsTest, ConfusionMatrixArithmetic) {
  ConfusionMatrix m;
  m.tp = 30;
  m.fp = 10;
  m.tn = 50;
  m.fn = 10;
  EXPECT_DOUBLE_EQ(m.accuracy(), 0.8);
  EXPECT_DOUBLE_EQ(m.precision(), 0.75);
  EXPECT_DOUBLE_EQ(m.recall(), 0.75);
  EXPECT_DOUBLE_EQ(m.f1(), 0.75);
  const ConfusionMatrix empty;
  EXPECT_DOUBLE_EQ(empty.accuracy(), 0.0);
  EXPECT_DOUBLE_EQ(empty.f1(), 0.0);
}

}  // namespace
}  // namespace rainshine::core
