#include "rainshine/cart/partial.hpp"

#include <gtest/gtest.h>

#include "rainshine/util/check.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::cart {
namespace {

using table::Column;
using table::Table;

/// Multiplicative two-factor world mirroring the paper's Q2 setup:
/// y = base * sku_effect * workload_effect * noise, with SKU "bad" 4x worse
/// than "good", and a confound — workload "heavy" (2.5x) runs mostly on the
/// bad SKU. The raw per-SKU means then exaggerate the SKU gap; the
/// normalized view must recover ~4x.
struct ConfoundedWorld {
  Table data;
  static constexpr double kTrueRatio = 4.0;

  explicit ConfoundedWorld(std::size_t n, util::Rng& rng) {
    Column sku(table::ColumnType::kNominal);
    Column workload(table::ColumnType::kNominal);
    std::vector<double> y;
    for (std::size_t i = 0; i < n; ++i) {
      const bool heavy = rng.bernoulli(0.4);
      // Heavy workload runs on the bad SKU 95% of the time; light workload
      // splits evenly, so the bad SKU is observable under both workloads.
      const bool bad = heavy ? rng.bernoulli(0.95) : rng.bernoulli(0.5);
      sku.push_nominal(bad ? "bad" : "good");
      workload.push_nominal(heavy ? "heavy" : "light");
      const double rate = 1.0 * (bad ? 4.0 : 1.0) * (heavy ? 2.5 : 1.0);
      y.push_back(rate * rng.uniform(0.7, 1.3));
    }
    data.add_column("sku", std::move(sku));
    data.add_column("workload", std::move(workload));
    data.add_column("y", Column::continuous(std::move(y)));
  }
};

double level_mean(const std::vector<EffectLevel>& levels, const std::string& label) {
  for (const auto& l : levels) {
    if (l.label == label) return l.mean;
  }
  throw std::runtime_error("missing level " + label);
}

TEST(RawEffect, ReportsConfoundedRatio) {
  util::Rng rng(1);
  const ConfoundedWorld world(4000, rng);
  const auto raw = raw_effect(world.data, "y", "sku");
  const double ratio = level_mean(raw, "bad") / level_mean(raw, "good");
  // The workload confound inflates the apparent SKU gap well beyond 4x.
  EXPECT_GT(ratio, ConfoundedWorld::kTrueRatio * 1.3);
}

TEST(ResidualizedEffect, RecoversTrueMultiplierUnderConfounding) {
  util::Rng rng(2);
  const ConfoundedWorld world(4000, rng);
  const auto mf = residualized_effect(world.data, "y", "sku", {"workload"},
                                      Config{.min_samples_split = 50,
                                             .min_samples_leaf = 20,
                                             .max_depth = 6,
                                             .cp = 0.001});
  const double ratio = level_mean(mf, "bad") / level_mean(mf, "good");
  EXPECT_NEAR(ratio, ConfoundedWorld::kTrueRatio, 1.0);
  // And it must be much closer to the truth than the raw view.
  const auto raw = raw_effect(world.data, "y", "sku");
  const double raw_ratio = level_mean(raw, "bad") / level_mean(raw, "good");
  EXPECT_LT(std::abs(ratio - 4.0), std::abs(raw_ratio - 4.0));
}

TEST(ResidualizedEffect, ReducesWithinLevelSpread) {
  util::Rng rng(3);
  const ConfoundedWorld world(4000, rng);
  const auto raw = raw_effect(world.data, "y", "sku");
  const auto mf = residualized_effect(world.data, "y", "sku", {"workload"});
  for (const auto& level : mf) {
    for (const auto& r : raw) {
      if (r.label == level.label && r.label == "bad") {
        // The workload mix inflates the raw spread; normalization removes it.
        EXPECT_LT(level.stddev, r.stddev);
      }
    }
  }
}

TEST(ResidualizedEffect, AdditiveScaleCentersResiduals) {
  util::Rng rng(4);
  Table t;
  Column g(table::ColumnType::kNominal);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 2000; ++i) {
    const bool b = rng.bernoulli(0.5);
    g.push_nominal(b ? "B" : "A");
    x.push_back(rng.uniform(0, 1));
    y.push_back((x.back() > 0.5 ? 5.0 : 0.0) + (b ? 2.0 : 0.0) +
                rng.uniform(-0.2, 0.2));
  }
  t.add_column("g", std::move(g));
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("y", Column::continuous(std::move(y)));
  const auto levels = residualized_effect(t, "y", "g", {"x"}, Config{},
                                          EffectScale::kAdditive);
  // Additive effect difference B - A should be ~2.
  EXPECT_NEAR(level_mean(levels, "B") - level_mean(levels, "A"), 2.0, 0.4);
}

TEST(ResidualizedEffect, ValidatesArguments) {
  util::Rng rng(5);
  const ConfoundedWorld world(200, rng);
  EXPECT_THROW(
      residualized_effect(world.data, "y", "sku", {"sku", "workload"}),
      util::precondition_error);
  EXPECT_THROW(residualized_effect(world.data, "y", "y", {"workload"}),
               util::precondition_error);
}

TEST(ResidualizedEffect, AllZeroLevelDeflatesToNaNAndThrows) {
  // Level "Z" never fails, so the first backfit sets its effect to 0 and
  // the second deflates its rows by 0/0: the NaN response is refused, as a
  // freshly built Dataset would refuse it.
  util::Rng rng(8);
  const ConfoundedWorld world(400, rng);
  Table t = world.data;
  std::vector<std::string> levels;
  std::vector<double> y;
  const Column& y_col = t.column("y");
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    const bool zero = r % 4 == 0;
    levels.push_back(zero ? "Z" : "N");
    y.push_back(zero ? 0.0 : y_col.as_double(r));
  }
  t.add_column("level", Column::nominal(levels));
  t.add_column("y0", Column::continuous(std::move(y)));
  EXPECT_THROW(residualized_effect(t, "y0", "level", {"sku", "workload"}),
               util::precondition_error);
  EXPECT_NO_THROW(residualized_effect(t, "y0", "level", {"sku", "workload"},
                                      Config{}, EffectScale::kAdditive));
}

TEST(PartialDependence, TracksStepFunction) {
  util::Rng rng(6);
  std::vector<double> x(1000);
  std::vector<double> z(1000);
  std::vector<double> y(1000);
  for (std::size_t i = 0; i < 1000; ++i) {
    x[i] = rng.uniform(0, 10);
    z[i] = rng.uniform(0, 10);
    y[i] = (x[i] < 5 ? 1.0 : 3.0) + 0.1 * z[i] + rng.uniform(-0.1, 0.1);
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("z", Column::continuous(std::move(z)));
  t.add_column("y", Column::continuous(std::move(y)));
  const Dataset data(t, "y", {"x", "z"}, Task::kRegression);
  const Tree tree = grow(data, Config{.cp = 0.001});
  const auto pd = partial_dependence(tree, data, "x", 10);
  ASSERT_GE(pd.size(), 4U);
  // PD at low x ~ 1 + E[0.1 z] = 1.5; at high x ~ 3.5.
  EXPECT_NEAR(pd.front().yhat, 1.5, 0.3);
  EXPECT_NEAR(pd.back().yhat, 3.5, 0.3);
  // The jump concentrates around x = 5.
  for (const auto& p : pd) {
    if (p.x < 4.0) {
      EXPECT_LT(p.yhat, 2.0);
    }
    if (p.x > 6.0) {
      EXPECT_GT(p.yhat, 3.0);
    }
  }
}

TEST(PartialDependence, CategoricalGridCoversLevels) {
  util::Rng rng(7);
  Column g(table::ColumnType::kNominal);
  std::vector<double> y;
  for (int i = 0; i < 500; ++i) {
    const bool b = rng.bernoulli(0.5);
    g.push_nominal(b ? "hi" : "lo");
    y.push_back(b ? 10.0 : 2.0);
  }
  Table t;
  t.add_column("g", std::move(g));
  t.add_column("y", Column::continuous(std::move(y)));
  const Dataset data(t, "y", {"g"}, Task::kRegression);
  const Tree tree = grow(data, Config{});
  const auto pd = partial_dependence(tree, data, "g");
  ASSERT_EQ(pd.size(), 2U);
  double hi = 0.0;
  double lo = 0.0;
  for (const auto& p : pd) (p.label == "hi" ? hi : lo) = p.yhat;
  EXPECT_NEAR(hi, 10.0, 0.5);
  EXPECT_NEAR(lo, 2.0, 0.5);
}

TEST(PartialDependence, ValidatesArguments) {
  util::Rng rng(8);
  const ConfoundedWorld world(100, rng);
  const Dataset data(world.data, "y", {"workload"}, Task::kRegression);
  const Tree tree = grow(data, Config{});
  EXPECT_THROW(partial_dependence(tree, data, "no_such"), util::precondition_error);
  EXPECT_THROW(partial_dependence(tree, data, "workload", 1),
               util::precondition_error);
}

TEST(PdBackgroundRows, NeverExceedsRequestedCap) {
  // Regression: floor-division strides selected nearly 2x the cap
  // (n=1999, max=1000 gave stride 1 and thus all 1999 rows).
  const auto rows = pd_background_rows(1999, 1000);
  EXPECT_LE(rows.size(), 1000U);
  EXPECT_EQ(rows.front(), 0U);
  EXPECT_LT(rows.back(), 1999U);

  // Sweep odd n/max combinations: the cap must always hold, the subsample
  // must stay sorted, unique and in range.
  for (const std::size_t n : {1UL, 2UL, 99UL, 1000UL, 1999UL, 2001UL, 10000UL}) {
    for (const std::size_t max_rows : {1UL, 3UL, 999UL, 1000UL, 20000UL}) {
      const auto sel = pd_background_rows(n, max_rows);
      EXPECT_LE(sel.size(), max_rows) << "n=" << n << " max=" << max_rows;
      EXPECT_GE(sel.size(), std::min(n, max_rows) / 2)
          << "subsample surprisingly sparse: n=" << n << " max=" << max_rows;
      for (std::size_t i = 1; i < sel.size(); ++i) {
        EXPECT_GT(sel[i], sel[i - 1]);
      }
      EXPECT_LT(sel.back(), n);
    }
  }
  EXPECT_THROW(pd_background_rows(0, 10), util::precondition_error);
  EXPECT_THROW(pd_background_rows(10, 0), util::precondition_error);
}

TEST(PdBackgroundRows, SmallBackgroundsKeepEveryRow) {
  const auto rows = pd_background_rows(50, 100);
  ASSERT_EQ(rows.size(), 50U);
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(rows[i], i);
}

}  // namespace
}  // namespace rainshine::cart
