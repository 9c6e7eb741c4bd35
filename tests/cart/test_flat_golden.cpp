// Golden-equality suite for the flat batch-major scorer.
//
// FlatForest (the kernel behind batch Forest::predict) must predict EXACTLY
// what the pointer walker (the single-row Forest::predict(data, row), the
// seed implementation) predicts — bit-identical doubles, not approximately
// equal — across every feature shape the walker handles: all-numeric fast
// path, adjacent and extreme doubles (signed zeros, ±DBL_MAX, ±inf),
// missing values routed by the recorded default side, categorical subset
// tests with out-of-dictionary codes, single-node trees, and ties in
// classification votes. Same pattern as the presort-vs-exhaustive
// split-engine suite.
#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "rainshine/cart/forest.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::cart {
namespace {

using table::Column;
using table::Table;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Bitwise comparison so that NaNs and signed zeros cannot hide drift.
void expect_bit_identical(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]), std::bit_cast<std::uint64_t>(b[i]))
        << "row " << i << ": flat " << a[i] << " vs walker " << b[i];
  }
}

/// The golden reference: the pointer walker, one row at a time.
std::vector<double> walker_predict(const Forest& forest, const Dataset& data) {
  std::vector<double> out(data.num_rows());
  for (std::size_t r = 0; r < out.size(); ++r) out[r] = forest.predict(data, r);
  return out;
}

void expect_flat_matches_walker(const Forest& forest, const Dataset& data) {
  expect_bit_identical(forest.predict(data), walker_predict(forest, data));
}

Table numeric_fixture(std::size_t n, util::Rng& rng, double missing_rate = 0.0) {
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> x3(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = std::floor(rng.uniform(0.0, 12.0)) / 2.0;
    x2[i] = rng.uniform(-3.0, 3.0);
    x3[i] = static_cast<double>(rng.below(40));
    y[i] = 2.0 * x1[i] - std::abs(x2[i]) + 0.05 * x3[i] + rng.uniform(-0.4, 0.4);
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) x1[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) x2[i] = kNaN;
  }
  Table t;
  t.add_column("x1", Column::continuous(std::move(x1)));
  t.add_column("x2", Column::continuous(std::move(x2)));
  t.add_column("x3", Column::continuous(std::move(x3)));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

Table mixed_fixture(std::size_t n, util::Rng& rng, double missing_rate = 0.0) {
  const char* skus[] = {"sku_a", "sku_b", "sku_c", "sku_d", "sku_e"};
  std::vector<double> temp(n);
  std::vector<double> age(n);
  std::vector<double> y(n);
  Column sku(table::ColumnType::kNominal);
  Column label(table::ColumnType::kNominal);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(rng.below(5));
    temp[i] = std::floor(rng.uniform(15.0, 35.0));
    age[i] = static_cast<double>(rng.below(60));
    y[i] = (s >= 3 ? 4.0 : 1.0) + 0.1 * temp[i] + 0.02 * age[i] +
           rng.uniform(-0.3, 0.3);
    label.push_nominal(y[i] > 5.0 ? "hot" : (y[i] > 3.5 ? "warm" : "cool"));
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) temp[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) {
      sku.push_missing();
    } else {
      sku.push_nominal(skus[s]);
    }
  }
  Table t;
  t.add_column("temp", Column::continuous(std::move(temp)));
  t.add_column("age", Column::continuous(std::move(age)));
  t.add_column("sku", std::move(sku));
  t.add_column("y", Column::continuous(std::move(y)));
  t.add_column("label", std::move(label));
  return t;
}

ForestConfig small_forest(std::size_t trees = 12) {
  ForestConfig cfg;
  cfg.num_trees = trees;
  cfg.tree.min_samples_split = 10;
  cfg.tree.min_samples_leaf = 4;
  cfg.tree.cp = 0.0005;
  cfg.seed = 7;
  return cfg;
}

/// Columns whose cuts sit on rounding edges (the CutPlacement inputs of
/// test_grow_golden.cpp), each with a 0/1 response "y01" (grown by
/// histogram) and a fractional one "yfrac" (grown by the sweep): 40 rows
/// alternating between two adjacent or extreme values per pair, then 600
/// seeded rows over ±0.0, ±inf, ±DBL_MAX, DBL_MIN and runs of adjacent
/// doubles around 1.0 and 0.3.
std::vector<Table> extreme_value_fixtures() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<Table> out;
  const std::pair<double, double> pairs[] = {
      {std::nextafter(0.3, 0.0), 0.3},
      {1.0, std::nextafter(1.0, 2.0)},
      {-kInf, -DBL_MAX},
      {DBL_MAX, kInf},
  };
  for (const auto& [lo, hi] : pairs) {
    std::vector<double> x;
    std::vector<double> y01;
    std::vector<double> yfrac;
    for (std::size_t i = 0; i < 40; ++i) {
      x.push_back(i % 2 == 0 ? lo : hi);
      y01.push_back(static_cast<double>(i % 2));
      yfrac.push_back(0.25 + static_cast<double>(i % 2));
    }
    Table t;
    t.add_column("x", Column::continuous(std::move(x)));
    t.add_column("y01", Column::continuous(std::move(y01)));
    t.add_column("yfrac", Column::continuous(std::move(yfrac)));
    out.push_back(std::move(t));
  }

  std::vector<double> pool = {-kInf, -DBL_MAX, std::nextafter(-DBL_MAX, 0.0), -0.0, 0.0,
                              DBL_MIN, DBL_MAX, kInf};
  for (const double base : {1.0, 0.3}) {
    double v = base;
    for (int k = 0; k < 4; ++k) {
      pool.push_back(v);
      v = std::nextafter(v, 2.0);
    }
  }
  util::Rng rng(601);
  std::vector<double> x(600);
  std::vector<double> y01(600);
  std::vector<double> yfrac(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto k = static_cast<std::size_t>(rng.below(pool.size()));
    x[i] = pool[k];
    y01[i] = static_cast<double>((k * 7) % 5 >= 2);
    yfrac[i] = 0.3 * static_cast<double>((k * 7) % 5) +
               0.1 * static_cast<double>(rng.below(2));
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("y01", Column::continuous(std::move(y01)));
  t.add_column("yfrac", Column::continuous(std::move(yfrac)));
  out.push_back(std::move(t));
  return out;
}

TEST(FlatGolden, NumericRegressionFastPath) {
  util::Rng rng(11);
  // 700 rows spans multiple 256-row blocks plus a ragged tail.
  const Table t = numeric_fixture(700, rng);
  const Dataset data(t, "y", {"x1", "x2", "x3"}, Task::kRegression);
  const Forest forest = grow_forest(data, small_forest());
  EXPECT_FALSE(forest.flat().has_categorical());
  expect_flat_matches_walker(forest, data);

  // Cuts between adjacent and extreme doubles, grown to single-row leaves.
  ForestConfig deep = small_forest(8);
  deep.tree.min_samples_split = 2;
  deep.tree.min_samples_leaf = 1;
  deep.tree.cp = 0.0;
  for (const Table& extreme : extreme_value_fixtures()) {
    for (const bool binary : {true, false}) {
      const Dataset d(extreme, binary ? "y01" : "yfrac", {"x"}, Task::kRegression);
      const std::uint64_t before =
          obs::registry().counter("cart.histogram_features").value();
      const Forest f = grow_forest(d, deep);
      EXPECT_EQ(obs::registry().counter("cart.histogram_features").value() - before,
                binary ? deep.num_trees : 0U);
      EXPECT_GT(f.flat().nodes().size(), f.size()) << "no tree split";
      expect_flat_matches_walker(f, d);
    }
  }
}

TEST(FlatGolden, NumericRegressionWithMissingValues) {
  util::Rng rng(12);
  const Table t = numeric_fixture(600, rng, 0.15);
  const Dataset data(t, "y", {"x1", "x2", "x3"}, Task::kRegression);
  const Forest forest = grow_forest(data, small_forest());
  expect_flat_matches_walker(forest, data);
}

TEST(FlatGolden, MixedCategoricalRegression) {
  util::Rng rng(13);
  const Table t = mixed_fixture(500, rng, 0.1);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  const Forest forest = grow_forest(data, small_forest());
  EXPECT_TRUE(forest.flat().has_categorical());
  expect_flat_matches_walker(forest, data);
}

TEST(FlatGolden, ClassificationWithCategoricalAndMissing) {
  util::Rng rng(14);
  const Table t = mixed_fixture(500, rng, 0.1);
  const Dataset data(t, "label", {"temp", "age", "sku"}, Task::kClassification);
  const Forest forest = grow_forest(data, small_forest(16));
  expect_flat_matches_walker(forest, data);
}

TEST(FlatGolden, UnseenCategoricalLabelsScoreAsMissing) {
  util::Rng rng(15);
  const Table train = mixed_fixture(400, rng);
  const Dataset fitted(train, "y", {"temp", "age", "sku"}, Task::kRegression);
  const Forest forest = grow_forest(fitted, small_forest());

  // Scoring table re-encoded against the fitted dictionary: one sku the
  // model never saw (-> NaN feature) plus explicitly missing cells.
  Column sku(table::ColumnType::kNominal);
  std::vector<double> temp;
  std::vector<double> age;
  util::Rng srng(16);
  for (std::size_t i = 0; i < 300; ++i) {
    temp.push_back(std::floor(srng.uniform(15.0, 35.0)));
    age.push_back(static_cast<double>(srng.below(60)));
    const auto pick = srng.below(4);
    if (pick == 0) {
      sku.push_nominal("sku_never_seen");
    } else if (pick == 1) {
      sku.push_missing();
    } else {
      sku.push_nominal(pick == 2 ? "sku_a" : "sku_d");
    }
  }
  Table t;
  t.add_column("temp", Column::continuous(std::move(temp)));
  t.add_column("age", Column::continuous(std::move(age)));
  t.add_column("sku", std::move(sku));
  const Dataset scoring(t, fitted.infos());
  expect_flat_matches_walker(forest, scoring);
}

TEST(FlatGolden, SingleNodeTrees) {
  util::Rng rng(17);
  const Table t = numeric_fixture(80, rng);
  const Dataset data(t, "y", {"x1", "x2", "x3"}, Task::kRegression);
  ForestConfig cfg = small_forest(4);
  cfg.tree.min_samples_split = 10000;  // every tree is a lone root leaf
  const Forest forest = grow_forest(data, cfg);
  for (const Tree& tree : forest.trees()) {
    ASSERT_EQ(tree.nodes().size(), 1u);
  }
  for (const std::uint32_t d : forest.flat().depths()) EXPECT_EQ(d, 0u);
  expect_flat_matches_walker(forest, data);
}

TEST(FlatGolden, SingleRowPredictMatchesBatch) {
  util::Rng rng(18);
  const Table t = mixed_fixture(300, rng, 0.1);
  const Dataset data(t, "label", {"temp", "age", "sku"}, Task::kClassification);
  const Forest forest = grow_forest(data, small_forest());
  const std::vector<double> flat = forest.predict(data);
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    EXPECT_EQ(forest.predict(data, r), flat[r]) << "row " << r;
  }
}

TEST(FlatGolden, CompiledLayoutInvariants) {
  util::Rng rng(19);
  const Table t = mixed_fixture(300, rng, 0.05);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  const Forest forest = grow_forest(data, small_forest(6));
  const FlatForest& flat = forest.flat();

  ASSERT_EQ(flat.num_trees(), forest.size());
  ASSERT_EQ(flat.roots().size(), flat.depths().size());
  std::size_t total = 0;
  for (std::size_t tr = 0; tr < forest.size(); ++tr) {
    EXPECT_EQ(flat.roots()[tr], total);
    total += forest.trees()[tr].nodes().size();
  }
  EXPECT_EQ(flat.nodes().size(), total);

  for (std::size_t tr = 0; tr < flat.num_trees(); ++tr) {
    const std::size_t begin = flat.roots()[tr];
    const std::size_t end =
        tr + 1 < flat.num_trees() ? flat.roots()[tr + 1] : flat.nodes().size();
    for (std::size_t i = begin; i < end; ++i) {
      const FlatNode& nd = flat.nodes()[i];
      if (nd.child[0] == i) {
        // Leaves self-loop so the fixed-depth walk needs no leaf branch.
        EXPECT_EQ(nd.child[1], i);
        EXPECT_EQ(nd.missing_goes_left, 1);
        EXPECT_EQ(nd.categorical, 0);
      } else {
        // BFS layout: children strictly after the parent, inside the tree.
        EXPECT_GT(nd.child[0], i);
        EXPECT_GT(nd.child[1], i);
        EXPECT_LT(nd.child[0], end);
        EXPECT_LT(nd.child[1], end);
        EXPECT_LT(nd.feature, data.num_features());
      }
    }
  }
}

TEST(FlatGolden, DeterministicAcrossThreadCounts) {
  util::Rng rng(20);
  const Table t = mixed_fixture(600, rng, 0.1);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  const Forest forest = grow_forest(data, small_forest());

  util::set_num_threads(1);
  const std::vector<double> serial = forest.predict(data);
  for (const std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{5}}) {
    util::set_num_threads(threads);
    expect_bit_identical(forest.predict(data), serial);
  }
  util::set_num_threads(0);
}

}  // namespace
}  // namespace rainshine::cart
