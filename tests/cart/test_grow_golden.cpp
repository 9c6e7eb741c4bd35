// Golden-equality suite for the split-search engines.
//
// The presorted engine (SplitEngine::kPresort, the default) must grow trees
// and forests EXACTLY equal — operator==, i.e. bit-identical node statistics,
// thresholds, improvements and structure — to the exhaustive per-node-sort
// reference (SplitEngine::kExhaustive, the seed implementation). Both engines
// feed one shared sweep the same (value, row id)-ordered row sequence, so any
// divergence is a bug in the order threading, not floating-point noise.
//
// The weighted half pins the zero-copy bootstrap contract: a weight-w row
// behaves like w stacked copies, all-ones weights are bit-identical to the
// unweighted overload, and zero-weight rows match physically dropped rows.
//
// The SharedPresort half pins the dataset-level order: a tree that filters
// one SharedOrder must equal both the tree that presorts for itself and the
// exhaustive reference, whatever the weights and feature subsets. The order
// itself comes from a radix sort over bit-level keys, so its fixtures cover
// the values whose bits are unusual: signed zeros, infinities, subnormals,
// the extremes of double and NaNs with the sign bit set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <numeric>

#include "rainshine/cart/forest.hpp"
#include "rainshine/cart/partial.hpp"
#include "rainshine/cart/prune.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::cart {
namespace {

using table::Column;
using table::Table;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Numeric regression rows with heavy value ties (quantized x) so the
/// deterministic tie-break is actually exercised.
Table regression_fixture(std::size_t n, util::Rng& rng, double missing_rate = 0.0) {
  std::vector<double> x1(n);
  std::vector<double> x2(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x1[i] = std::floor(rng.uniform(0.0, 12.0)) / 2.0;  // ties galore
    x2[i] = rng.uniform(-3.0, 3.0);
    y[i] = 2.0 * x1[i] - std::abs(x2[i]) + rng.uniform(-0.4, 0.4);
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) x1[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) x2[i] = kNaN;
  }
  Table t;
  t.add_column("x1", Column::continuous(std::move(x1)));
  t.add_column("x2", Column::continuous(std::move(x2)));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

/// Mixed numeric + categorical rows, optionally with missing cells, for both
/// a regression response ("y") and a nominal response ("label").
Table mixed_fixture(std::size_t n, util::Rng& rng, double missing_rate = 0.0) {
  const char* skus[] = {"sku_a", "sku_b", "sku_c", "sku_d"};
  std::vector<double> temp(n);
  std::vector<double> age(n);
  std::vector<double> y(n);
  Column sku(table::ColumnType::kNominal);
  Column label(table::ColumnType::kNominal);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t s = static_cast<std::size_t>(rng.below(4));
    temp[i] = std::floor(rng.uniform(15.0, 35.0));
    age[i] = static_cast<double>(rng.below(60));
    y[i] = (s == 2 ? 4.0 : 1.0) + 0.1 * temp[i] + 0.02 * age[i] +
           rng.uniform(-0.3, 0.3);
    sku.push_nominal(skus[s]);
    label.push_nominal(y[i] > 4.0 ? "hot" : "cool");
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) temp[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) {
      age[i] = kNaN;
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

Config deep_config(SplitEngine engine) {
  Config cfg;
  cfg.cp = 0.0005;
  cfg.min_samples_split = 6;
  cfg.min_samples_leaf = 2;
  cfg.engine = engine;
  return cfg;
}

void expect_engines_agree(const Dataset& data, const Config& base) {
  Config presort = base;
  presort.engine = SplitEngine::kPresort;
  Config exhaustive = base;
  exhaustive.engine = SplitEngine::kExhaustive;
  const Tree a = grow(data, presort);
  const Tree b = grow(data, exhaustive);
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  EXPECT_TRUE(a == b);
}

TEST(SplitEngineGolden, RegressionWithTies) {
  util::Rng rng(101);
  const Table t = regression_fixture(600, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, RegressionWithMissingValues) {
  util::Rng rng(102);
  const Table t = regression_fixture(600, rng, 0.15);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, ClassificationMixedFeatures) {
  util::Rng rng(103);
  const Table t = mixed_fixture(700, rng);
  const Dataset data(t, "label", {"temp", "age", "sku"}, Task::kClassification);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, CategoricalRegressionWithMissing) {
  util::Rng rng(104);
  const Table t = mixed_fixture(700, rng, 0.12);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  expect_engines_agree(data, deep_config(SplitEngine::kPresort));
}

TEST(SplitEngineGolden, DefaultConfigShallowTrees) {
  util::Rng rng(105);
  const Table t = mixed_fixture(400, rng, 0.05);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  expect_engines_agree(data, Config{});
}

TEST(SplitEngineGolden, ForestsAreBitIdenticalAcrossEngines) {
  util::Rng rng(106);
  const Table t = mixed_fixture(500, rng, 0.08);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  ForestConfig presort;
  presort.num_trees = 12;
  presort.features_per_tree = 2;
  presort.tree.cp = 0.001;
  ForestConfig exhaustive = presort;
  presort.tree.engine = SplitEngine::kPresort;
  exhaustive.tree.engine = SplitEngine::kExhaustive;
  const Forest a = grow_forest(data, presort);
  const Forest b = grow_forest(data, exhaustive);
  EXPECT_TRUE(a == b);  // trees, task and oob error, all bit-compared
}

TEST(SplitEngineGolden, ClassificationForestAcrossEngines) {
  util::Rng rng(107);
  const Table t = mixed_fixture(500, rng);
  const Dataset data(t, "label", {"temp", "age", "sku"}, Task::kClassification);
  ForestConfig presort;
  presort.num_trees = 8;
  presort.tree.engine = SplitEngine::kPresort;
  ForestConfig exhaustive = presort;
  exhaustive.tree.engine = SplitEngine::kExhaustive;
  EXPECT_TRUE(grow_forest(data, presort) == grow_forest(data, exhaustive));
}

// ---- Weighted (bootstrap-multiplicity) view -----------------------------

TEST(WeightedGrow, AllOnesIsBitIdenticalToUnweighted) {
  util::Rng rng(201);
  const Table t = regression_fixture(400, rng, 0.1);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  const Config cfg = deep_config(SplitEngine::kPresort);
  const std::vector<double> ones(data.num_rows(), 1.0);
  EXPECT_TRUE(grow(data, cfg) == grow(data, cfg, ones));
}

TEST(WeightedGrow, ZeroWeightRowsMatchDroppedRows) {
  util::Rng rng(202);
  const Table t = regression_fixture(300, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  // Keep every third row out of the fitting view.
  std::vector<double> weights(data.num_rows(), 1.0);
  std::vector<std::size_t> kept;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    if (r % 3 == 0) {
      weights[r] = 0.0;
    } else {
      kept.push_back(r);
    }
  }
  const Config cfg = deep_config(SplitEngine::kPresort);
  const Tree masked = grow(data, cfg, weights);
  const Tree dropped = grow(data.subset(kept), cfg);
  // Same (y, w) sequences node for node => exactly the same tree.
  EXPECT_TRUE(masked == dropped);
}

TEST(WeightedGrow, MultiplicityMatchesStackedCopies) {
  // A weight-w row must act like w stacked copies in every count and every
  // split decision. Counts are exact; predictions/impurities may differ in
  // accumulation order (w*y versus y+y+y), hence the near-comparison there.
  util::Rng rng(203);
  const Table t = regression_fixture(250, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  std::vector<double> weights(data.num_rows());
  std::vector<std::size_t> expanded;
  double total = 0.0;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    weights[r] = static_cast<double>(r % 4);  // 0,1,2,3,0,...
    total += weights[r];
    for (std::size_t c = 0; c < r % 4; ++c) expanded.push_back(r);
  }
  // Default (moderate) depth: the comparison crosses accumulation orders, so
  // keep the fit away from noise-level splits where last-ulp differences in
  // `improve` could legitimately pick a different tie winner.
  const Config cfg;
  const Tree weighted = grow(data, cfg, weights);
  const Tree stacked = grow(data.subset(expanded), cfg);

  ASSERT_EQ(weighted.nodes().size(), stacked.nodes().size());
  EXPECT_EQ(weighted.nodes().front().n, static_cast<std::size_t>(total));
  for (std::size_t i = 0; i < weighted.nodes().size(); ++i) {
    const Node& a = weighted.nodes()[i];
    const Node& b = stacked.nodes()[i];
    EXPECT_EQ(a.left, b.left) << "node " << i;
    EXPECT_EQ(a.right, b.right) << "node " << i;
    EXPECT_EQ(a.feature, b.feature) << "node " << i;
    EXPECT_EQ(a.categorical, b.categorical) << "node " << i;
    EXPECT_DOUBLE_EQ(a.threshold, b.threshold) << "node " << i;
    EXPECT_EQ(a.n, b.n) << "node " << i;
    EXPECT_EQ(a.missing_goes_left, b.missing_goes_left) << "node " << i;
    EXPECT_NEAR(a.prediction, b.prediction, 1e-9 * (1.0 + std::abs(b.prediction)))
        << "node " << i;
  }
}

TEST(WeightedGrow, WeightedEnginesAgree) {
  // Bootstrap-like integer multiplicities through BOTH engines.
  util::Rng rng(204);
  const Table t = mixed_fixture(500, rng, 0.1);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  std::vector<double> weights(data.num_rows(), 0.0);
  util::Rng draw(7);
  for (std::size_t i = 0; i < data.num_rows(); ++i) {
    weights[static_cast<std::size_t>(draw.below(data.num_rows()))] += 1.0;
  }
  Config presort = deep_config(SplitEngine::kPresort);
  Config exhaustive = deep_config(SplitEngine::kExhaustive);
  EXPECT_TRUE(grow(data, presort, weights) == grow(data, exhaustive, weights));
}

TEST(WeightedGrow, ValidatesWeights) {
  util::Rng rng(205);
  const Table t = regression_fixture(50, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  const Config cfg;
  const std::vector<double> short_w(10, 1.0);
  EXPECT_THROW(grow(data, cfg, short_w), util::precondition_error);
  std::vector<double> negative(data.num_rows(), 1.0);
  negative[3] = -1.0;
  EXPECT_THROW(grow(data, cfg, negative), util::precondition_error);
  std::vector<double> nan_w(data.num_rows(), 1.0);
  nan_w[3] = kNaN;
  EXPECT_THROW(grow(data, cfg, nan_w), util::precondition_error);
  const std::vector<double> zeros(data.num_rows(), 0.0);
  EXPECT_THROW(grow(data, cfg, zeros), util::precondition_error);
}

// ---- Dataset-level presort shared across trees --------------------------

/// The tree grown from `order` must equal the self-presorting tree and the
/// exhaustive reference under the same weights.
void expect_shared_matches(const Dataset& data, const Config& base,
                           std::span<const double> weights,
                           const SharedOrder& order) {
  Config presort = base;
  presort.engine = SplitEngine::kPresort;
  Config exhaustive = base;
  exhaustive.engine = SplitEngine::kExhaustive;
  const Tree shared = grow(data, presort, weights, order);
  const Tree own = grow(data, presort, weights);
  const Tree reference = grow(data, exhaustive, weights);
  ASSERT_EQ(shared.nodes().size(), reference.nodes().size());
  EXPECT_GT(shared.nodes().size(), 1U);
  EXPECT_TRUE(shared == own);
  EXPECT_TRUE(shared == reference);
}

/// Bootstrap multiplicities (about a third of the rows get weight 0).
std::vector<double> bag_weights(std::size_t n, std::uint64_t seed) {
  std::vector<double> weights(n, 0.0);
  util::Rng draw(seed);
  for (std::size_t i = 0; i < n; ++i) {
    weights[static_cast<std::size_t>(draw.below(n))] += 1.0;
  }
  return weights;
}

/// The order the exhaustive engine's comparator defines, spelled out
/// independently: present rows by (value, row id) with == ties, then
/// missing rows by row id.
std::vector<std::uint32_t> reference_order(const Dataset& data, std::size_t f) {
  std::vector<std::uint32_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), std::uint32_t{0});
  std::sort(rows.begin(), rows.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double xa = data.x(a, f);
    const double xb = data.x(b, f);
    if (std::isnan(xa) != std::isnan(xb)) return std::isnan(xb);
    if (!std::isnan(xa) && xa != xb) return xa < xb;
    return a < b;
  });
  return rows;
}

/// Few distinct values, signed zeros mixed in, and missing cells: every
/// tie-break path of the (value, row id) order is hit.
Table signed_zero_fixture(std::size_t n, util::Rng& rng) {
  std::vector<double> z(n);
  std::vector<double> q(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto k = rng.below(5);
    z[i] = k == 0 ? -0.0 : k == 1 ? 0.0 : k == 2 ? -1.0 : k == 3 ? 1.0 : kNaN;
    q[i] = static_cast<double>(rng.below(3)) - (rng.uniform() < 0.5 ? 0.0 : 1.0);
    if (q[i] == 0.0 && rng.uniform() < 0.5) q[i] = -0.0;
    const double zv = std::isnan(z[i]) ? 0.5 : z[i];
    y[i] = 3.0 * zv + q[i] + rng.uniform(-0.2, 0.2);
  }
  Table t;
  t.add_column("z", Column::continuous(std::move(z)));
  t.add_column("q", Column::continuous(std::move(q)));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

TEST(SharedPresort, FeatureOrderMatchesExhaustiveComparator) {
  util::Rng rng(301);
  const Table t = signed_zero_fixture(500, rng);
  const Dataset data(t, "y", {"z", "q"}, Task::kRegression);
  const SharedOrder order(data);
  ASSERT_EQ(order.num_rows(), data.num_rows());
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    const std::span<const std::uint32_t> got = order.feature(f);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              reference_order(data, f))
        << "feature " << f;
  }
}

/// Every feature of `order` equals the comparator-defined reference order.
void expect_reference_orders(const Dataset& data, const SharedOrder& order) {
  ASSERT_EQ(order.num_rows(), data.num_rows());
  for (std::size_t f = 0; f < data.num_features(); ++f) {
    if (data.info(f).categorical) continue;
    const std::span<const std::uint32_t> got = order.feature(f);
    EXPECT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              reference_order(data, f))
        << "feature " << f;
  }
}

TEST(SharedPresort, RadixOrderOnExtremeBitPatterns) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kSub = std::numeric_limits<double>::denorm_min();
  const double neg_nan = std::copysign(kNaN, -1.0);
  const std::vector<double> pool = {
      0.0,      -0.0,     kInf,     -kInf,    kSub,      -kSub,
      4 * kSub, DBL_MIN,  -DBL_MIN, DBL_MAX,  -DBL_MAX,  1.0,
      -1.0,     0.5,      -0.5,     kNaN,     neg_nan,   DBL_MIN / 2};
  util::Rng rng(310);
  std::vector<double> x(400);
  std::vector<double> y(400);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = pool[static_cast<std::size_t>(rng.below(pool.size()))];
    y[i] = rng.uniform();
  }
  // The sign bit must survive into the column for the fixture to test it.
  ASSERT_TRUE(std::any_of(x.begin(), x.end(), [](double v) {
    return std::isnan(v) && std::signbit(v);
  }));
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("y", Column::continuous(std::move(y)));
  const Dataset data(t, "y", {"x"}, Task::kRegression);
  expect_reference_orders(data, SharedOrder(data));
}

TEST(SharedPresort, DegenerateColumnsAndSizes) {
  util::Rng rng(311);
  // A constant column, one with a single outlier (a digit pass that only
  // one key needs must still run), an all-missing column and a column with
  // a few distinct values over more than 2^16 rows.
  const std::size_t n = 70'000;
  std::vector<double> constant(n, 3.25);
  std::vector<double> outlier(n, 3.25);
  outlier[n / 2] = -7.5;
  std::vector<double> missing(n, kNaN);
  std::vector<double> few(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    few[i] = 2010.0 + static_cast<double>(rng.below(7));
    if (rng.uniform() < 0.01) few[i] = kNaN;
    y[i] = rng.uniform();
  }
  Table t;
  t.add_column("constant", Column::continuous(std::move(constant)));
  t.add_column("outlier", Column::continuous(std::move(outlier)));
  t.add_column("missing", Column::continuous(std::move(missing)));
  t.add_column("few", Column::continuous(std::move(few)));
  t.add_column("y", Column::continuous(std::move(y)));
  const Dataset data(t, "y", {"constant", "outlier", "missing", "few"},
                     Task::kRegression);
  expect_reference_orders(data, SharedOrder(data));

  Table one;
  one.add_column("x", Column::continuous({-0.0}));
  one.add_column("y", Column::continuous({1.0}));
  const Dataset single(one, "y", {"x"}, Task::kRegression);
  const SharedOrder single_order(single);
  ASSERT_EQ(single_order.feature(0).size(), 1U);
  EXPECT_EQ(single_order.feature(0)[0], 0U);
}

TEST(SharedPresort, SameOrderAtEveryThreadCount) {
  util::Rng rng(312);
  // Five numeric features (not a multiple of 2, 3 or 4) and a categorical.
  Table wide = mixed_fixture(900, rng, 0.1);
  std::vector<double> z(900);
  std::vector<double> w(900);
  std::vector<double> v(900);
  for (std::size_t i = 0; i < z.size(); ++i) {
    z[i] = rng.uniform(-1.0, 1.0);
    w[i] = static_cast<double>(rng.below(4)) - 1.5;
    v[i] = rng.uniform() < 0.3 ? kNaN : rng.uniform(0.0, 1e-300);
  }
  wide.add_column("z", Column::continuous(std::move(z)));
  wide.add_column("w", Column::continuous(std::move(w)));
  wide.add_column("v", Column::continuous(std::move(v)));
  const Dataset data(wide, "y", {"temp", "z", "sku", "age", "w", "v"},
                     Task::kRegression);
  util::set_num_threads(1);
  const SharedOrder serial(data);
  expect_reference_orders(data, serial);
  for (const std::size_t threads : {2U, 3U, 4U}) {
    util::set_num_threads(threads);
    const SharedOrder parallel(data);
    for (std::size_t f = 0; f < data.num_features(); ++f) {
      const auto a = serial.feature(f);
      const auto b = parallel.feature(f);
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "feature " << f << " at " << threads << " threads";
    }
  }
  util::clear_thread_override();
}

TEST(SharedPresort, SignedZeroAndHeavyTies) {
  util::Rng rng(302);
  const Table t = signed_zero_fixture(600, rng);
  const Dataset data(t, "y", {"z", "q"}, Task::kRegression);
  const SharedOrder order(data);
  expect_shared_matches(data, deep_config(SplitEngine::kPresort), {}, order);
  expect_shared_matches(data, deep_config(SplitEngine::kPresort),
                        bag_weights(data.num_rows(), 31), order);
}

TEST(SharedPresort, MissingValuesWithBootstrapWeights) {
  util::Rng rng(303);
  const Table t = regression_fixture(700, rng, 0.15);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  const SharedOrder order(data);
  expect_shared_matches(data, deep_config(SplitEngine::kPresort), {}, order);
  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    expect_shared_matches(data, deep_config(SplitEngine::kPresort),
                          bag_weights(data.num_rows(), seed), order);
  }
}

TEST(SharedPresort, CategoricalColumnsHoldNoOrder) {
  util::Rng rng(304);
  const Table t = mixed_fixture(700, rng, 0.1);
  const Dataset reg(t, "y", {"temp", "sku", "age"}, Task::kRegression);
  const SharedOrder order(reg);
  EXPECT_TRUE(order.feature(1).empty());
  EXPECT_EQ(order.feature(0).size(), reg.num_rows());
  EXPECT_EQ(order.feature(2).size(), reg.num_rows());
  expect_shared_matches(reg, deep_config(SplitEngine::kPresort),
                        bag_weights(reg.num_rows(), 4), order);

  const Dataset cls(t, "label", {"temp", "sku", "age"}, Task::kClassification);
  expect_shared_matches(cls, deep_config(SplitEngine::kPresort),
                        bag_weights(cls.num_rows(), 5), SharedOrder(cls));
}

TEST(SharedPresort, AllowedFeatureSubsets) {
  util::Rng rng(305);
  const Table t = mixed_fixture(600, rng, 0.08);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  const SharedOrder order(data);
  for (const std::vector<std::uint8_t>& allowed :
       {std::vector<std::uint8_t>{1, 0, 0}, std::vector<std::uint8_t>{0, 1, 1},
        std::vector<std::uint8_t>{1, 1, 0}}) {
    Config cfg = deep_config(SplitEngine::kPresort);
    cfg.allowed_features = allowed;
    expect_shared_matches(data, cfg, bag_weights(data.num_rows(), 6), order);
  }
}

TEST(SharedPresort, ForestWithFeatureSubspaces) {
  util::Rng rng(306);
  const Table t = mixed_fixture(600, rng, 0.1);
  const Dataset data(t, "label", {"temp", "age", "sku"}, Task::kClassification);
  ForestConfig presort_cfg;
  presort_cfg.num_trees = 10;
  presort_cfg.features_per_tree = 2;
  presort_cfg.tree.cp = 0.001;
  ForestConfig exhaustive_cfg = presort_cfg;
  exhaustive_cfg.tree.engine = SplitEngine::kExhaustive;
  EXPECT_TRUE(grow_forest(data, presort_cfg) == grow_forest(data, exhaustive_cfg));
}

TEST(SharedPresort, FitPrunedReusesOneOrderAcrossFolds) {
  util::Rng rng(307);
  const Table t = mixed_fixture(500, rng, 0.1);
  const Dataset data(t, "y", {"temp", "age", "sku"}, Task::kRegression);
  Config presort_cfg;
  Config exhaustive_cfg;
  exhaustive_cfg.engine = SplitEngine::kExhaustive;
  util::Rng a(9);
  util::Rng b(9);
  const FitResult shared = fit_pruned(data, presort_cfg, 5, a);
  const FitResult reference = fit_pruned(data, exhaustive_cfg, 5, b);
  EXPECT_TRUE(shared.tree == reference.tree);
  EXPECT_EQ(shared.chosen_cp, reference.chosen_cp);
  ASSERT_EQ(shared.cv_curve.size(), reference.cv_curve.size());
  for (std::size_t i = 0; i < shared.cv_curve.size(); ++i) {
    EXPECT_EQ(shared.cv_curve[i].cp, reference.cv_curve[i].cp);
    EXPECT_EQ(shared.cv_curve[i].mean_error, reference.cv_curve[i].mean_error);
    EXPECT_EQ(shared.cv_curve[i].std_error, reference.cv_curve[i].std_error);
    EXPECT_EQ(shared.cv_curve[i].leaves, reference.cv_curve[i].leaves);
  }
}

TEST(SharedPresort, PresortTimerCoversSharedSortAndEveryTreeFilter) {
  util::Rng rng(308);
  const Table t = regression_fixture(300, rng, 0.05);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  obs::Histogram& presort_us = obs::registry().histogram("cart.presort_us");
  const std::uint64_t before = presort_us.snapshot().count;
  ForestConfig cfg;
  cfg.num_trees = 6;
  (void)grow_forest(data, cfg);
  // One observation for the shared sort, one per tree's filter pass.
  EXPECT_EQ(presort_us.snapshot().count - before, cfg.num_trees + 1);
}

TEST(SharedPresort, RejectsMismatchedOrder) {
  util::Rng rng(309);
  const Table t = regression_fixture(120, rng);
  const Dataset data(t, "y", {"x1", "x2"}, Task::kRegression);
  const Table other_t = regression_fixture(119, rng);
  const Dataset other(other_t, "y", {"x1", "x2"}, Task::kRegression);
  const Dataset fewer_features(t, "y", {"x1"}, Task::kRegression);
  const Config cfg;
  EXPECT_THROW((void)grow(data, cfg, {}, SharedOrder(other)), util::precondition_error);
  EXPECT_THROW((void)grow(data, cfg, {}, SharedOrder(fewer_features)),
               util::precondition_error);
  EXPECT_NO_THROW((void)grow(data, cfg, {}, SharedOrder(data)));
}

// ---- Residualized effects over one backfit order -------------------------

/// A positive rate whose level effect ("sku") is confounded with two numeric
/// nuisance factors and a categorical one, with a few missing cells.
Table confounded_rate_fixture(std::size_t n, util::Rng& rng) {
  const char* skus[] = {"S1", "S2", "S3"};
  const char* dcs[] = {"DC1", "DC2"};
  std::vector<double> power(n);
  std::vector<double> year(n);
  std::vector<double> rate(n);
  Column sku(table::ColumnType::kNominal);
  Column dc(table::ColumnType::kNominal);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(rng.below(3));
    const auto d = static_cast<std::size_t>(rng.below(2));
    power[i] = 6.0 + 2.0 * static_cast<double>(s + rng.below(3));
    year[i] = 2012.0 + static_cast<double>(rng.below(5));
    rate[i] = (s == 1 ? 2.0 : 1.0) * (1.0 + 0.1 * power[i]) *
              (d == 0 ? 1.3 : 0.8) * rng.uniform(0.5, 1.5);
    if (rng.uniform() < 0.05) year[i] = kNaN;
    sku.push_nominal(skus[s]);
    dc.push_nominal(dcs[d]);
  }
  Table t;
  t.add_column("power", Column::continuous(std::move(power)));
  t.add_column("year", Column::continuous(std::move(year)));
  t.add_column("dc", std::move(dc));
  t.add_column("sku", std::move(sku));
  t.add_column("rate", Column::continuous(std::move(rate)));
  return t;
}

TEST(ResidualizedEffect, PresortEqualsExhaustiveOnBothScales) {
  util::Rng rng(401);
  const Table t = confounded_rate_fixture(3000, rng);
  for (const EffectScale scale : {EffectScale::kAdditive, EffectScale::kMultiplicative}) {
    Config presort;
    presort.cp = 0.002;
    Config exhaustive = presort;
    exhaustive.engine = SplitEngine::kExhaustive;
    const std::vector<EffectLevel> a =
        residualized_effect(t, "rate", "sku", {"power", "year", "dc"}, presort, scale);
    const std::vector<EffectLevel> b = residualized_effect(
        t, "rate", "sku", {"power", "year", "dc"}, exhaustive, scale);
    ASSERT_EQ(a.size(), 3U);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].label, b[i].label);
      EXPECT_EQ(a[i].n, b[i].n);
      EXPECT_EQ(a[i].mean, b[i].mean) << a[i].label;
      EXPECT_EQ(a[i].stddev, b[i].stddev) << a[i].label;
    }
  }
}

// ---- Histogram split search for integer responses ------------------------

/// Features searched by histogram so far, over every tree in the process.
std::uint64_t histogram_features() {
  return obs::registry().counter("cart.histogram_features").value();
}

/// An integer count response over features on both sides of the bin cutoff,
/// with heavy ties, signed zeros and optional missing cells:
///   * "level": 7 values including -0.0 and +0.0, so 6 bins;
///   * "code": n / 20 values, so deep nodes hold fewer rows than it has
///     bins and sort their own codes;
///   * "reading": every value distinct, past the cutoff (stays on the sweep);
///   * "sku": categorical.
Table count_fixture(std::size_t n, util::Rng& rng, double missing_rate = 0.0) {
  const char* skus[] = {"sku_a", "sku_b", "sku_c"};
  const double levels[] = {-1.5, -0.0, 0.0, 0.5, 1.0, 2.5, 4.0};
  std::vector<double> level(n);
  std::vector<double> code(n);
  std::vector<double> reading(n);
  std::vector<double> y(n);
  Column sku(table::ColumnType::kNominal);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(rng.below(3));
    level[i] = levels[rng.below(7)];
    code[i] = static_cast<double>(rng.below(n / 20));
    reading[i] = rng.uniform(-3.0, 3.0);
    const double rate = 0.5 + level[i] * level[i] + (s == 1 ? 2.0 : 0.0) +
                        0.02 * code[i] + std::abs(reading[i]);
    y[i] = std::floor(rng.uniform(0.0, 2.0 * rate));
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) level[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) code[i] = kNaN;
    if (missing_rate > 0.0 && rng.uniform() < missing_rate) reading[i] = kNaN;
    sku.push_nominal(skus[s]);
  }
  Table t;
  t.add_column("level", Column::continuous(std::move(level)));
  t.add_column("code", Column::continuous(std::move(code)));
  t.add_column("reading", Column::continuous(std::move(reading)));
  t.add_column("sku", std::move(sku));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

const std::vector<std::string> kCountFeatures = {"level", "code", "reading", "sku"};

TEST(HistogramSearch, SharedOrderBinsOnlyFewValuedFeatures) {
  util::Rng rng(501);
  const Table t = count_fixture(2000, rng, 0.1);
  const Dataset data(t, "y", kCountFeatures, Task::kRegression);
  const SharedOrder order(data);
  const BinCodes& bins = order.bins();
  // "reading" is ranked too, past the cutoff: its column stays unused.
  ASSERT_EQ(bins.stride, 3U);
  EXPECT_EQ(bins.features, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(bins.columns, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(bins.bins(0), 6U);  // -0.0 and +0.0 share a bin
  EXPECT_EQ(bins.bins(1), 100U);
  ASSERT_EQ(bins.codes.size(), data.num_rows() * bins.stride);
  for (std::size_t j = 0; j < bins.features.size(); ++j) {
    const double* values = bins.values.data() + bins.offsets[j];
    EXPECT_TRUE(std::is_sorted(values, values + bins.bins(j)));
    for (std::size_t r = 0; r < data.num_rows(); ++r) {
      const std::size_t code = bins.codes[r * bins.stride + bins.columns[j]];
      const double x = data.x(r, bins.features[j]);
      if (std::isnan(x)) {
        EXPECT_EQ(code, bins.bins(j));
      } else {
        ASSERT_LT(code, bins.bins(j));
        EXPECT_EQ(values[code], x);
      }
    }
  }
  // Classification and fractional responses never search by histogram, so
  // their orders hold no codes.
  const Dataset labels(t, "sku", {"level", "code"}, Task::kClassification);
  EXPECT_TRUE(SharedOrder(labels).bins().codes.empty());
  const Dataset fractional(t, "reading", {"level", "code"}, Task::kRegression,
                           MissingResponse::kDropRows);
  EXPECT_TRUE(SharedOrder(fractional).bins().codes.empty());
}

TEST(HistogramSearch, CountResponseMatchesExhaustive) {
  util::Rng rng(502);
  for (const double missing : {0.0, 0.12}) {
    const Table t = count_fixture(2000, rng, missing);
    const Dataset data(t, "y", kCountFeatures, Task::kRegression);
    // Leaf floors on both sides of the bins' row counts.
    for (const std::size_t leaf : {1U, 2U, 7U, 40U, 333U}) {
      Config cfg = deep_config(SplitEngine::kPresort);
      cfg.min_samples_leaf = leaf;
      cfg.min_samples_split = 2 * leaf;
      const std::uint64_t before = histogram_features();
      expect_engines_agree(data, cfg);
      EXPECT_EQ(histogram_features() - before, 2U) << "leaf " << leaf;
    }
  }
}

TEST(HistogramSearch, BootstrapWeightsOverASharedOrder) {
  util::Rng rng(503);
  const Table t = count_fixture(3000, rng, 0.08);
  const Dataset data(t, "y", kCountFeatures, Task::kRegression);
  const SharedOrder order(data);
  for (const std::uint64_t seed : {1U, 2U, 3U}) {
    const std::vector<double> weights = bag_weights(data.num_rows(), seed);
    const std::uint64_t before = histogram_features();
    expect_shared_matches(data, deep_config(SplitEngine::kPresort), weights, order);
    // The shared tree and the self-presorting tree both bin "level" and "code".
    EXPECT_EQ(histogram_features() - before, 4U);
  }
  Config subset = deep_config(SplitEngine::kPresort);
  subset.allowed_features = {0, 1, 0, 1};
  const std::uint64_t before = histogram_features();
  expect_shared_matches(data, subset, bag_weights(data.num_rows(), 4), order);
  EXPECT_EQ(histogram_features() - before, 2U);
}

TEST(HistogramSearch, NonIntegerResponseOrWeightKeepsTheSweep) {
  util::Rng rng(504);
  Table t = count_fixture(1500, rng, 0.05);
  const Dataset counts(t, "y", kCountFeatures, Task::kRegression);
  std::vector<double> shifted(counts.responses().begin(), counts.responses().end());
  std::vector<double> huge = shifted;
  for (double& y : shifted) y += 0.5;
  huge[7] = 134217728.0;  // 2^27: w·y² reaches 2^54
  t.add_column("shifted", Column::continuous(std::move(shifted)));
  t.add_column("huge", Column::continuous(std::move(huge)));
  const Config cfg = deep_config(SplitEngine::kPresort);

  std::uint64_t before = histogram_features();
  expect_engines_agree(Dataset(t, "shifted", kCountFeatures, Task::kRegression), cfg);
  expect_engines_agree(Dataset(t, "huge", kCountFeatures, Task::kRegression), cfg);
  EXPECT_EQ(histogram_features(), before);

  std::vector<double> weights = bag_weights(counts.num_rows(), 5);
  const SharedOrder order(counts);
  before = histogram_features();
  expect_shared_matches(counts, cfg, weights, order);
  EXPECT_GT(histogram_features(), before);
  weights[11] = 0.5;
  before = histogram_features();
  expect_shared_matches(counts, cfg, weights, order);
  EXPECT_EQ(histogram_features(), before);
}

/// Shaped like the early-warning feature set: three nominal columns, ticket
/// counts with a few values, hour totals with a few hundred, an age with
/// more values than deep nodes have rows, and two 30-day means with more
/// distinct values than the bin cutoff; a 0/1 label.
Table early_warning_fixture(std::size_t n, util::Rng& rng) {
  const char* dcs[] = {"DC1", "DC2", "DC3"};
  const char* skus[] = {"S1", "S2", "S3", "S4"};
  const char* workloads[] = {"W1", "W2"};
  Column dc(table::ColumnType::kNominal);
  Column sku(table::ColumnType::kNominal);
  Column workload(table::ColumnType::kNominal);
  std::vector<std::vector<double>> counts(6, std::vector<double>(n));
  std::vector<double> hot(n);
  std::vector<double> age(n);
  std::vector<double> temp(n);
  std::vector<double> rh(n);
  std::vector<double> label(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto s = static_cast<std::size_t>(rng.below(4));
    dc.push_nominal(dcs[rng.below(3)]);
    sku.push_nominal(skus[s]);
    workload.push_nominal(workloads[rng.below(2)]);
    double risk = s == 3 ? 0.15 : 0.03;
    for (std::size_t c = 0; c < counts.size(); ++c) {
      counts[c][i] = static_cast<double>(rng.below(2 + 3 * c));
      risk += 0.01 * counts[c][i];
    }
    hot[i] = rng.uniform() < 0.6 ? 0.0 : static_cast<double>(rng.below(300));
    age[i] = rng.uniform() < 0.02 ? kNaN : static_cast<double>(rng.below(360));
    temp[i] = std::round(rng.uniform(15.0, 35.0) * 100.0) / 100.0;
    rh[i] = rng.uniform() < 0.02 ? kNaN : std::round(rng.uniform(10.0, 90.0) * 100.0) / 100.0;
    risk += hot[i] / 2000.0 + (temp[i] > 30.0 ? 0.05 : 0.0);
    label[i] = rng.uniform() < risk ? 1.0 : 0.0;
  }
  Table t;
  t.add_column("dc", std::move(dc));
  t.add_column("sku", std::move(sku));
  t.add_column("workload", std::move(workload));
  for (std::size_t c = 0; c < counts.size(); ++c) {
    t.add_column("count_" + std::to_string(c), Column::continuous(std::move(counts[c])));
  }
  t.add_column("hot_hours", Column::continuous(std::move(hot)));
  t.add_column("age_months", Column::continuous(std::move(age)));
  t.add_column("temp_mean", Column::continuous(std::move(temp)));
  t.add_column("rh_mean", Column::continuous(std::move(rh)));
  t.add_column("label", Column::continuous(std::move(label)));
  return t;
}

TEST(HistogramSearch, EarlyWarningForestsAcrossThreadCounts) {
  util::Rng rng(505);
  const Table t = early_warning_fixture(6000, rng);
  std::vector<std::string> features = t.column_names();
  features.pop_back();  // the label
  const Dataset data(t, "label", features, Task::kRegression);
  ForestConfig presort;
  presort.num_trees = 6;
  presort.seed = 17;
  ForestConfig exhaustive = presort;
  exhaustive.tree.engine = SplitEngine::kExhaustive;
  util::set_num_threads(1);
  const Forest reference = grow_forest(data, exhaustive);
  for (const std::size_t threads : {1U, 2U, 4U}) {
    util::set_num_threads(threads);
    const std::uint64_t before = histogram_features();
    const Forest forest = grow_forest(data, presort);
    // Counts and hours are binned; the two means, past the cutoff, are not.
    EXPECT_EQ(histogram_features() - before, presort.num_trees * 8U);
    EXPECT_TRUE(forest == reference) << threads << " threads";
  }
  util::clear_thread_override();
}

// ---- Cut placement between adjacent and extreme values --------------------

/// 20 rows at `lo` then 20 at `hi`, interleaved, with response `y_lo` or
/// `y_hi`: the only split worth making separates the two values.
Table two_value_fixture(double lo, double hi, double y_lo, double y_hi) {
  std::vector<double> x;
  std::vector<double> y;
  for (std::size_t i = 0; i < 40; ++i) {
    x.push_back(i % 2 == 0 ? lo : hi);
    y.push_back(i % 2 == 0 ? y_lo : y_hi);
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

TEST(CutPlacement, AdjacentAndExtremeValuesSplitCleanly) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> pairs[] = {
      {std::nextafter(0.3, 0.0), 0.3},
      {1.0, std::nextafter(1.0, 2.0)},
      {-kInf, -DBL_MAX},
  };
  for (const auto& [lo, hi] : pairs) {
    // A 0/1 response takes the histogram path, a fractional one the sweep.
    for (const double y_lo : {0.0, 0.25}) {
      const Table t = two_value_fixture(lo, hi, y_lo, y_lo + 1.0);
      const Dataset data(t, "y", {"x"}, Task::kRegression);
      const std::uint64_t before = histogram_features();
      Tree tree = grow(data, Config{});
      EXPECT_EQ(histogram_features() - before, y_lo == 0.0 ? 1U : 0U);
      ASSERT_EQ(tree.nodes().size(), 3U) << lo << " " << hi;
      const Node& root = tree.nodes()[0];
      EXPECT_LT(lo, root.threshold);
      EXPECT_LE(root.threshold, hi);
      EXPECT_EQ(tree.nodes()[1].n, 20U);
      EXPECT_EQ(tree.nodes()[2].n, 20U);
      Config exhaustive;
      exhaustive.engine = SplitEngine::kExhaustive;
      EXPECT_TRUE(tree == grow(data, exhaustive));
      EXPECT_TRUE(tree == grow(data, Config{}, {}, SharedOrder(data)));
    }
  }
}

TEST(CutPlacement, SeededAdjacentAndExtremeColumns) {
  // Runs of adjacent doubles around 1.0, 0.3 and the extremes, with signed
  // zeros and infinities: every cut lands between neighbours.
  constexpr double kInf = std::numeric_limits<double>::infinity();
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
  std::vector<double> y(600);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto k = static_cast<std::size_t>(rng.below(pool.size()));
    x[i] = pool[k];
    y[i] = static_cast<double>((k * 7) % 5) + static_cast<double>(rng.below(2));
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  std::vector<double> fractional = y;
  for (double& f : fractional) f *= 0.3;
  t.add_column("y", Column::continuous(std::move(y)));
  t.add_column("f", Column::continuous(std::move(fractional)));
  Config cfg = deep_config(SplitEngine::kPresort);
  cfg.min_samples_leaf = 1;
  cfg.min_samples_split = 2;
  for (const char* response : {"y", "f"}) {
    const Dataset data(t, response, {"x"}, Task::kRegression);
    expect_engines_agree(data, cfg);
    const Tree tree = grow(data, cfg);
    EXPECT_GT(tree.num_leaves(), pool.size() / 2) << response;
  }
}

}  // namespace
}  // namespace rainshine::cart
