#include "rainshine/cart/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "rainshine/cart/tree.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::cart {
namespace {

using table::Column;
using table::Table;

Table train_table() {
  Table t;
  t.add_column("color",
               Column::nominal(std::vector<std::string>{"red", "blue", "red",
                                                        "green", "blue", "red"}));
  t.add_column("size", Column::continuous({1, 2, 3, 4, 5, 6}));
  t.add_column("y", Column::continuous({1, 9, 1, 5, 9, 1}));
  return t;
}

TEST(Dataset, MaterializesTypesAndResponse) {
  const Table t = train_table();
  const Dataset data(t, "y", {"color", "size"}, Task::kRegression);
  EXPECT_EQ(data.num_rows(), 6U);
  EXPECT_EQ(data.num_features(), 2U);
  EXPECT_TRUE(data.info(0).categorical);
  EXPECT_FALSE(data.info(1).categorical);
  EXPECT_EQ(data.info(0).labels.size(), 3U);
  EXPECT_DOUBLE_EQ(data.x(0, 0), 0.0);  // "red" = code 0
  EXPECT_DOUBLE_EQ(data.x(1, 0), 1.0);  // "blue" = code 1
  EXPECT_DOUBLE_EQ(data.y(1), 9.0);
  EXPECT_EQ(*data.feature_index("size"), 1U);
  EXPECT_FALSE(data.feature_index("nope").has_value());
}

TEST(Dataset, ReferenceReencodingAlignsCodes) {
  const Table train = train_table();
  const Dataset fit(train, "y", {"color", "size"}, Task::kRegression);

  // New table whose dictionary order DIFFERS ("blue" first) and which
  // contains an unseen label.
  Table fresh;
  fresh.add_column("color", Column::nominal(std::vector<std::string>{
                                "blue", "red", "violet"}));
  fresh.add_column("size", Column::continuous({1, 2, 3}));
  const Dataset bound(fresh, fit.infos());

  // Codes must follow the TRAINING dictionary, not the new table's.
  EXPECT_DOUBLE_EQ(bound.x(0, 0), 1.0);  // blue
  EXPECT_DOUBLE_EQ(bound.x(1, 0), 0.0);  // red
  // Unseen labels become missing.
  EXPECT_TRUE(bound.x_missing(2, 0));
  EXPECT_FALSE(bound.has_response());
}

TEST(Dataset, ReferenceReencodingRejectsTypeMismatch) {
  const Table train = train_table();
  const Dataset fit(train, "y", {"color", "size"}, Task::kRegression);
  Table wrong;
  wrong.add_column("color", Column::continuous({1, 2}));  // was nominal
  wrong.add_column("size", Column::continuous({1, 2}));
  EXPECT_THROW(Dataset(wrong, fit.infos()), util::precondition_error);
}

TEST(Dataset, PredictionThroughReboundTableUsesTrainingSemantics) {
  // Fit on the training dictionary, predict through a differently-ordered
  // table: leaves must match what the raw codes would give.
  const Table train = train_table();
  const Dataset fit(train, "y", {"color", "size"}, Task::kRegression);
  Config cfg;
  cfg.min_samples_split = 2;
  cfg.min_samples_leaf = 1;
  cfg.cp = 0.0;
  const Tree tree = grow(fit, cfg);

  Table fresh;
  fresh.add_column("color",
                   Column::nominal(std::vector<std::string>{"blue", "red"}));
  fresh.add_column("size", Column::continuous({2, 1}));
  const Dataset bound(fresh, tree.features());
  // Training rows ("blue", 2) -> 9 and ("red", 1) -> 1.
  EXPECT_NEAR(tree.predict(bound, 0), 9.0, 1e-9);
  EXPECT_NEAR(tree.predict(bound, 1), 1.0, 1e-9);
}

TEST(Dataset, RejectsMissingResponseValues) {
  Table t;
  Column y(table::ColumnType::kContinuous);
  y.push_continuous(1.0);
  y.push_missing();
  t.add_column("x", Column::continuous({1.0, 2.0}));
  t.add_column("y", std::move(y));
  EXPECT_THROW(Dataset(t, "y", {"x"}, Task::kRegression), util::precondition_error);
}

TEST(Dataset, SetResponsesKeepsFeaturesAndChecksLikeTheConstructor) {
  const Table t = train_table();
  Dataset data(t, "y", {"color", "size"}, Task::kRegression);
  const std::vector<double> y = {0.5, -1.0, std::numeric_limits<double>::infinity(),
                                 2.0, 0.0, 7.25};
  data.set_responses(y);
  ASSERT_EQ(data.num_rows(), y.size());
  for (std::size_t r = 0; r < y.size(); ++r) {
    EXPECT_EQ(data.y(r), y[r]);
    EXPECT_DOUBLE_EQ(data.x(r, 1), static_cast<double>(r + 1));
  }
  // One value per row, no NaN (the only missing marker), regression only.
  EXPECT_THROW(data.set_responses(std::vector<double>(5, 1.0)),
               util::precondition_error);
  std::vector<double> nan_at_3(6, 1.0);
  nan_at_3[3] = std::nan("");
  EXPECT_THROW(data.set_responses(nan_at_3), util::precondition_error);
  EXPECT_EQ(data.y(3), 2.0);  // a refused swap leaves the response alone
  Table labelled = t;
  labelled.add_column("label", Column::nominal(std::vector<std::string>{
                                   "a", "b", "a", "b", "a", "b"}));
  Dataset classes(labelled, "label", {"size"}, Task::kClassification);
  EXPECT_THROW(classes.set_responses(std::vector<double>(6, 0.0)),
               util::precondition_error);
}

TEST(Dataset, DropRowsSkipsMissingResponses) {
  // Quarantining pipelines hand the tree whatever rows survived ingest;
  // kDropRows silently removes rows whose response is missing and keeps the
  // feature columns aligned with the survivors.
  Table t;
  Column y(table::ColumnType::kContinuous);
  y.push_continuous(1.0);
  y.push_missing();
  y.push_continuous(3.0);
  t.add_column("x", Column::continuous({10.0, 20.0, 30.0}));
  t.add_column("color", Column::nominal(
                            std::vector<std::string>{"red", "blue", "green"}));
  t.add_column("y", std::move(y));
  const Dataset data(t, "y", {"x", "color"}, Task::kRegression,
                     MissingResponse::kDropRows);
  ASSERT_EQ(data.num_rows(), 2U);
  EXPECT_DOUBLE_EQ(data.y(0), 1.0);
  EXPECT_DOUBLE_EQ(data.y(1), 3.0);
  EXPECT_DOUBLE_EQ(data.x(0, 0), 10.0);
  EXPECT_DOUBLE_EQ(data.x(1, 0), 30.0);  // row 1 is gone, features realigned
  const auto& labels = data.info(1).labels;
  EXPECT_DOUBLE_EQ(data.x(1, 1),
                   static_cast<double>(std::find(labels.begin(), labels.end(),
                                                 "green") -
                                       labels.begin()));
}

TEST(Dataset, DropRowsWithNothingMissingIsIdentity) {
  const Table t = train_table();
  const Dataset strict(t, "y", {"color", "size"}, Task::kRegression);
  const Dataset lenient(t, "y", {"color", "size"}, Task::kRegression,
                        MissingResponse::kDropRows);
  ASSERT_EQ(lenient.num_rows(), strict.num_rows());
  for (std::size_t r = 0; r < strict.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(lenient.y(r), strict.y(r));
    EXPECT_DOUBLE_EQ(lenient.x(r, 0), strict.x(r, 0));
    EXPECT_DOUBLE_EQ(lenient.x(r, 1), strict.x(r, 1));
  }
}

TEST(Dataset, MissingFeaturesRouteDeterministicallyAtPredictTime) {
  // Feature cells (unlike responses) may be missing on both sides of the
  // fit/predict boundary: prediction follows the recorded child.
  const Table train = train_table();
  const Dataset fit(train, "y", {"color", "size"}, Task::kRegression);
  Config cfg;
  cfg.min_samples_split = 2;
  cfg.min_samples_leaf = 1;
  cfg.cp = 0.0;
  const Tree tree = grow(fit, cfg);

  Table fresh;
  Column size(table::ColumnType::kContinuous);
  size.push_missing();
  fresh.add_column("color",
                   Column::nominal(std::vector<std::string>{"red"}));
  fresh.add_column("size", std::move(size));
  const Dataset bound(fresh, tree.features());
  const double a = tree.predict(bound, 0);
  const double b = tree.predict(bound, 0);
  EXPECT_EQ(a, b);           // deterministic routing
  EXPECT_FALSE(std::isnan(a));  // lands in a real leaf
}

TEST(Dataset, ClassificationNeedsTwoClasses) {
  Table t;
  t.add_column("x", Column::continuous({1.0, 2.0}));
  t.add_column("label",
               Column::nominal(std::vector<std::string>{"only", "only"}));
  EXPECT_THROW(Dataset(t, "label", {"x"}, Task::kClassification),
               util::precondition_error);
}

}  // namespace
}  // namespace rainshine::cart
