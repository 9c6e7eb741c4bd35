// .rsf artifact round-trip fidelity: load_forest(save_forest(f)) must yield
// a structurally equal forest whose predictions are bit-identical to the
// original on a reference dataset, at any thread-pool width.
#include "rainshine/serve/artifact.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::serve {
namespace {

using table::Column;
using table::Table;

/// Mixed-type reference data: numeric + categorical features, missing cells.
Table reference_table(std::size_t n, util::Rng& rng) {
  std::vector<double> x(n);
  std::vector<double> y(n);
  std::vector<std::string> dc(n);
  std::vector<std::int32_t> age(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 6.0);
    dc[i] = rng.bernoulli(0.5) ? "DC1" : "DC2";
    age[i] = static_cast<std::int32_t>(rng.below(48));
    y[i] = 5.0 * std::sin(x[i]) + (dc[i] == "DC1" ? 1.0 : -1.0) +
           0.05 * age[i] + rng.uniform(-0.5, 0.5);
    if (i % 17 == 0) x[i] = std::nan("");
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("dc", Column::nominal(dc));
  t.add_column("age", Column::ordinal(std::move(age)));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

cart::Forest fit_reference_forest(const cart::Dataset& data) {
  cart::ForestConfig cfg;
  cfg.num_trees = 12;
  cfg.tree.cp = 0.001;
  return cart::grow_forest(data, cfg);
}

ModelArtifact round_trip(const cart::Forest& forest, const ModelMetadata& meta) {
  std::stringstream buf;
  save_forest(forest, meta, buf);
  return load_forest(buf);
}

TEST(Artifact, RoundTripIsStructurallyEqual) {
  util::Rng rng(11);
  const Table t = reference_table(500, rng);
  const cart::Dataset data(t, "y", {"x", "dc", "age"}, cart::Task::kRegression);
  const cart::Forest forest = fit_reference_forest(data);

  const ModelArtifact back =
      round_trip(forest, {.name = "ref", .version = 3, .config = {}});
  EXPECT_EQ(*back.forest, forest);
  EXPECT_EQ(back.meta.name, "ref");
  EXPECT_EQ(back.meta.version, 3u);
  EXPECT_EQ(back.meta.task, cart::Task::kRegression);
  EXPECT_EQ(back.meta.schema, forest.trees().front().features());
  EXPECT_DOUBLE_EQ(back.meta.oob_error, forest.oob_error());
}

TEST(Artifact, RoundTripPredictionsBitIdenticalAtAnyThreadCount) {
  util::Rng rng(12);
  const Table t = reference_table(600, rng);
  const cart::Dataset data(t, "y", {"x", "dc", "age"}, cart::Task::kRegression);
  const cart::Forest forest = fit_reference_forest(data);
  const ModelArtifact back = round_trip(forest, {.name = "ref"});

  const cart::Dataset scoring(t, forest.trees().front().features());
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
    util::set_num_threads(threads);
    const std::vector<double> original = forest.predict(scoring);
    const std::vector<double> loaded = back.forest->predict(scoring);
    ASSERT_EQ(original.size(), loaded.size());
    for (std::size_t r = 0; r < original.size(); ++r) {
      // Bit-identical, not just close: compare the representations.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(original[r]),
                std::bit_cast<std::uint64_t>(loaded[r]))
          << "row " << r << " at " << threads << " threads";
    }
  }
  util::clear_thread_override();
}

TEST(Artifact, ClassificationRoundTripKeepsLabelsAndVotes) {
  util::Rng rng(13);
  const std::size_t n = 400;
  std::vector<double> x(n);
  std::vector<std::string> label(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 1.0);
    label[i] = x[i] < 0.33 ? "low" : x[i] < 0.66 ? "mid" : "high";
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("label", Column::nominal(label));
  const cart::Dataset data(t, "label", {"x"}, cart::Task::kClassification);
  cart::ForestConfig cfg;
  cfg.num_trees = 9;
  const cart::Forest forest = cart::grow_forest(data, cfg);

  const ModelArtifact back = round_trip(forest, {.name = "cls"});
  EXPECT_EQ(*back.forest, forest);
  EXPECT_EQ(back.meta.class_labels,
            (std::vector<std::string>{"low", "mid", "high"}));
  const cart::Dataset scoring(t, forest.trees().front().features());
  const auto original = forest.predict(scoring);
  const auto loaded = back.forest->predict(scoring);
  EXPECT_EQ(original, loaded);
}

TEST(Artifact, MetadataConfigRoundTrips) {
  util::Rng rng(14);
  const Table t = reference_table(300, rng);
  const cart::Dataset data(t, "y", {"x", "dc", "age"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 5;
  cfg.tree.min_samples_split = 11;
  cfg.tree.min_samples_leaf = 4;
  cfg.tree.max_depth = 9;
  cfg.tree.cp = 0.0025;
  cfg.sample_fraction = 0.8;
  cfg.features_per_tree = 2;
  cfg.seed = 77;
  const cart::Forest forest = cart::grow_forest(data, cfg);

  const ModelArtifact back = round_trip(forest, {.name = "m", .config = cfg});
  EXPECT_EQ(back.meta.config.num_trees, cfg.num_trees);
  EXPECT_EQ(back.meta.config.tree.min_samples_split, cfg.tree.min_samples_split);
  EXPECT_EQ(back.meta.config.tree.min_samples_leaf, cfg.tree.min_samples_leaf);
  EXPECT_EQ(back.meta.config.tree.max_depth, cfg.tree.max_depth);
  EXPECT_DOUBLE_EQ(back.meta.config.tree.cp, cfg.tree.cp);
  EXPECT_DOUBLE_EQ(back.meta.config.sample_fraction, cfg.sample_fraction);
  EXPECT_EQ(back.meta.config.features_per_tree, cfg.features_per_tree);
  EXPECT_EQ(back.meta.config.seed, cfg.seed);
}

TEST(Artifact, FileRoundTrip) {
  util::Rng rng(15);
  const Table t = reference_table(200, rng);
  const cart::Dataset data(t, "y", {"x", "dc", "age"}, cart::Task::kRegression);
  const cart::Forest forest = fit_reference_forest(data);

  const std::string path = testing::TempDir() + "rainshine_artifact_test.rsf";
  save_forest_file(forest, {.name = "file-model", .version = 2}, path);
  const ModelArtifact back = load_forest_file(path);
  EXPECT_EQ(*back.forest, forest);
  EXPECT_EQ(back.meta.version, 2u);
  std::remove(path.c_str());
}

TEST(Artifact, FailedSaveKeepsPreviousArtifact) {
  namespace fs = std::filesystem;
  util::Rng rng(16);
  const Table t = reference_table(200, rng);
  const cart::Dataset data(t, "y", {"x", "dc", "age"}, cart::Task::kRegression);
  const cart::Forest forest = fit_reference_forest(data);

  const fs::path dir = fs::path(testing::TempDir()) / "rainshine_atomic_save";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "model.rsf").string();
  save_forest_file(forest, {.name = "good", .version = 1}, path);
  EXPECT_FALSE(fs::exists(path + ".tmp"));

  // A directory squatting on the temp path makes the next save fail.
  fs::create_directory(path + ".tmp");
  EXPECT_THROW(save_forest_file(forest, {.name = "newer", .version = 2}, path),
               util::precondition_error);
  const ModelArtifact back = load_forest_file(path);
  EXPECT_EQ(*back.forest, forest);
  EXPECT_EQ(back.meta.name, "good");
  EXPECT_EQ(back.meta.version, 1u);
  fs::remove_all(dir);
}

TEST(Artifact, V2AdoptedFlatLayoutEqualsCompiled) {
  // A v2 load adopts the serialized flat section instead of recompiling it
  // from the trees; the adopted layout must be indistinguishable from what
  // FlatForest::compile would have produced (nodes, roots, depths, pool —
  // and the derived traversal state, via FlatForest::operator==).
  util::Rng rng(16);
  const Table t = reference_table(400, rng);
  const cart::Dataset data(t, "y", {"x", "dc", "age"}, cart::Task::kRegression);
  const cart::Forest forest = fit_reference_forest(data);
  const ModelArtifact back = round_trip(forest, {.name = "v2"});
  EXPECT_EQ(back.forest->flat(), forest.flat());

  const cart::Dataset scoring(t, forest.trees().front().features());
  const auto flat = back.forest->predict(scoring);
  ASSERT_EQ(flat.size(), scoring.num_rows());
  for (std::size_t r = 0; r < flat.size(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(flat[r]),
              std::bit_cast<std::uint64_t>(back.forest->predict(scoring, r)))
        << "row " << r;
  }
}

TEST(Artifact, V1CompatWriterRoundTrips) {
  // save_forest_v1 emits the old trees-only format; loading it must compile
  // an equivalent flat layout and predict identically to the v2 load.
  util::Rng rng(17);
  const Table t = reference_table(350, rng);
  const cart::Dataset data(t, "y", {"x", "dc", "age"}, cart::Task::kRegression);
  const cart::Forest forest = fit_reference_forest(data);

  std::stringstream v1;
  save_forest_v1(forest, {.name = "compat"}, v1);
  // Version byte in the header must actually say 1.
  EXPECT_EQ(v1.str()[4], '\x01');
  std::stringstream v2;
  save_forest(forest, {.name = "compat"}, v2);
  EXPECT_EQ(v2.str()[4], '\x02');
  // v2 = v1 + flat section; the compat file must be strictly smaller.
  EXPECT_LT(v1.str().size(), v2.str().size());

  const ModelArtifact from_v1 = load_forest(v1);
  EXPECT_EQ(*from_v1.forest, forest);
  EXPECT_EQ(from_v1.forest->flat(), forest.flat());
}

TEST(Artifact, V1GoldenArtifactStillLoads) {
  // tests/data/golden_v1.rsf is a committed version-1 artifact (written by
  // save_forest_v1 from a 4-tree forest over {x numeric, dc nominal}). It
  // pins backward compatibility: if this load breaks, a format change broke
  // every artifact already on disk in the fleet. Regenerate only for an
  // intentional, documented break (see tests/data/README.md).
  const ModelArtifact art =
      load_forest_file(std::string(RAINSHINE_TEST_DATA_DIR) + "/golden_v1.rsf");
  EXPECT_EQ(art.meta.name, "golden-v1");
  EXPECT_EQ(art.meta.task, cart::Task::kRegression);
  ASSERT_EQ(art.meta.schema.size(), 2u);
  EXPECT_EQ(art.meta.schema[0].name, "x");
  EXPECT_EQ(art.meta.schema[1].name, "dc");
  EXPECT_TRUE(art.meta.schema[1].categorical);
  EXPECT_EQ(art.forest->size(), 4u);

  // Score it on fresh data covering both dc levels plus missing cells: the
  // compiled flat layout must agree with the walker bit-for-bit even for a
  // forest this build did not grow.
  std::vector<double> x;
  Column dc(table::ColumnType::kNominal);
  for (std::size_t i = 0; i < 64; ++i) {
    x.push_back(i % 9 == 0 ? std::nan("") : 0.1 * static_cast<double>(i));
    if (i % 7 == 0) {
      dc.push_missing();
    } else {
      dc.push_nominal(i % 2 == 0 ? "DC1" : "DC2");
    }
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("dc", std::move(dc));
  const cart::Dataset scoring(t, art.meta.schema);
  const auto flat = art.forest->predict(scoring);
  std::vector<double> walker(scoring.num_rows());
  for (std::size_t r = 0; r < walker.size(); ++r) {
    walker[r] = art.forest->predict(scoring, r);
  }
  EXPECT_EQ(flat, walker);

  // Upgrading the golden file in place: re-saving writes v2 and the adopted
  // flat layout round-trips.
  std::stringstream buf;
  save_forest(*art.forest, art.meta, buf);
  const ModelArtifact upgraded = load_forest(buf);
  EXPECT_EQ(*upgraded.forest, *art.forest);
  EXPECT_EQ(upgraded.forest->flat(), art.forest->flat());
}

TEST(Artifact, MissingFileIsTypedIoError) {
  try {
    (void)load_forest_file("/nonexistent/path/model.rsf");
    FAIL() << "expected artifact_error";
  } catch (const artifact_error& e) {
    EXPECT_EQ(e.reason(), ArtifactError::kIoError);
  }
}

TEST(Artifact, Crc32MatchesKnownVectors) {
  // The classic IEEE check value: crc32("123456789") == 0xCBF43926.
  const unsigned char digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(digits), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
}

}  // namespace
}  // namespace rainshine::serve
