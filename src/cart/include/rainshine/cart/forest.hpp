// Bagged tree ensembles (random forests).
//
// Single CART trees are interpretable — which is why the paper's cluster
// and split analyses use them — but their predictions and partial
// dependences are high-variance. For the *quantitative* side of the MF
// framework (normalized effects, dependence curves), bagging B bootstrap
// trees with per-tree random feature subspaces stabilizes the estimates,
// and out-of-bag rows give an honest generalization error without a
// hold-out. This is the natural extension of the paper's "repertoire of
// statistical and machine learning methods" (§III) and is compared against
// a single tree in bench_ablation_forest.
#pragma once

#include <bit>

#include "rainshine/cart/flat.hpp"
#include "rainshine/cart/partial.hpp"
#include "rainshine/cart/tree.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::cart {

struct ForestConfig {
  std::size_t num_trees = 50;
  Config tree{.min_samples_split = 20, .min_samples_leaf = 7,
              .max_depth = 30, .cp = 0.0005};
  /// Bootstrap sample size as a fraction of the dataset (sampling with
  /// replacement; 1.0 = classic bagging).
  double sample_fraction = 1.0;
  /// Features tried per tree (random-subspace). 0 = all features;
  /// otherwise min(feature_count, this many) are drawn per tree.
  std::size_t features_per_tree = 0;
  std::uint64_t seed = 1;
};

class Forest {
 public:
  /// Compiles the flat inference layout (see flat.hpp) as part of
  /// construction, so every Forest — grown, loaded, or test-built — scores
  /// batches with it.
  Forest(Task task, std::vector<Tree> trees, double oob_error);

  /// Adopts a pre-built flat layout instead of compiling one (the `.rsf` v2
  /// load path, where the artifact carries the validated flat section).
  Forest(Task task, std::vector<Tree> trees, double oob_error, FlatForest flat);

  [[nodiscard]] Task task() const noexcept { return task_; }
  [[nodiscard]] const std::vector<Tree>& trees() const noexcept { return trees_; }
  [[nodiscard]] std::size_t size() const noexcept { return trees_.size(); }
  [[nodiscard]] const FlatForest& flat() const noexcept { return flat_; }

  /// Regression: mean of tree predictions. Classification: plurality vote.
  /// The single-row form walks the pointer trees and is the golden
  /// reference; the batch form runs the flat kernel (flat.hpp) and is
  /// bit-identical to calling the single-row form on every row.
  [[nodiscard]] double predict(const Dataset& data, std::size_t row) const;
  [[nodiscard]] std::vector<double> predict(const Dataset& data) const;

  /// Out-of-bag error from fitting: mean squared error (regression) or
  /// error rate (classification) over rows, each predicted only by trees
  /// that did not see it. NaN if no row was ever out of bag.
  [[nodiscard]] double oob_error() const noexcept { return oob_error_; }

  /// Split-improvement importance averaged over trees, normalized to sum 1.
  [[nodiscard]] std::vector<Importance> variable_importance() const;

  /// Partial dependence of the ensemble on `feature` (averaged over trees;
  /// same grid semantics as cart::partial_dependence).
  [[nodiscard]] std::vector<PdPoint> partial_dependence(
      const Dataset& data, std::string_view feature, std::size_t grid_size = 20,
      std::size_t max_background_rows = 10000) const;

  /// Structural equality for round-trip asserts (serve::save_forest /
  /// load_forest). oob_error is compared bit-wise so a NaN (no row ever out
  /// of bag) round-trips as equal.
  friend bool operator==(const Forest& a, const Forest& b) {
    return a.task_ == b.task_ &&
           std::bit_cast<std::uint64_t>(a.oob_error_) ==
               std::bit_cast<std::uint64_t>(b.oob_error_) &&
           a.trees_ == b.trees_;
  }

 private:
  Task task_;
  std::vector<Tree> trees_;
  double oob_error_ = 0.0;
  std::size_t num_classes_ = 0;  ///< classification vote-tally width
  FlatForest flat_;              ///< derived from trees_; excluded from operator==
};

/// Grows a bagged forest. Deterministic for a fixed (data, config): trees
/// grow concurrently on the shared pool, but each tree's bootstrap/feature
/// RNG is derived from (config.seed, tree_index) and the out-of-bag merge
/// runs serially in tree order, so the result is bit-identical at any
/// thread count (see util/parallel.hpp).
[[nodiscard]] Forest grow_forest(const Dataset& data, const ForestConfig& config = {});

}  // namespace rainshine::cart
