// Classification and regression trees (Breiman et al., 1984) — the paper's
// multi-factor analysis engine (§V.C: "we use CART because it is
// non-parametric, captures non-linearities, models both numeric and
// categorical data, and naturally splits a population into groups with
// similar failure properties").
//
// Capabilities mirror what the paper relies on from rpart:
//   * regression (SSE) and classification (Gini) splits,
//   * numeric/ordinal threshold splits and nominal subset splits (via the
//     sort-by-mean optimality trick),
//   * rpart-style complexity stopping (a split must improve the root's
//     relative error by at least `cp`),
//   * cost-complexity (weakest-link) pruning with K-fold cross-validated cp
//     selection (prune.hpp),
//   * variable importance from accumulated split improvements,
//   * leaf grouping — the cluster extraction behind the Q1 provisioning
//     study (each leaf = one rack cluster with homogeneous failure needs).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "rainshine/cart/dataset.hpp"

namespace rainshine::cart {

/// How numeric/ordinal split candidates are enumerated. Both engines share
/// one sweep over one row sequence contract — rows ascending by (value, row
/// id), missing compacted to a tail ascending by row id — so they grow
/// bit-identical trees (asserted by tests/cart/test_grow_golden.cpp).
enum class SplitEngine : std::uint8_t {
  /// Sort each feature once per dataset (SharedOrder), filter that order
  /// per tree down to its rows with weight > 0, then thread the orders down
  /// the recursion by stable partitioning (O(d·n) per level). The default.
  /// When a tree's response and weights are integers, features with few
  /// distinct values are searched from per-node histograms instead (BinCodes),
  /// with the same result.
  kPresort,
  /// Re-sort the node's rows per feature at every node (O(d·n log n) per
  /// level) — the seed implementation, kept as the golden reference.
  kExhaustive,
};

/// Growth hyper-parameters (defaults follow rpart's).
struct Config {
  std::size_t min_samples_split = 20;  ///< don't split smaller nodes
  std::size_t min_samples_leaf = 7;    ///< children must be at least this big
  std::size_t max_depth = 30;
  /// Complexity parameter: a split must reduce overall relative impurity
  /// (relative to the root) by at least this much.
  double cp = 0.01;
  /// When non-empty, only features whose index is flagged may be used for
  /// splits (random-subspace trees in cart/forest.hpp). Must match the
  /// dataset's feature count.
  std::vector<std::uint8_t> allowed_features;
  SplitEngine engine = SplitEngine::kPresort;
};

inline constexpr std::int32_t kNoChild = -1;

/// One tree node. Leaves have left == kNoChild.
struct Node {
  std::int32_t left = kNoChild;
  std::int32_t right = kNoChild;
  std::int32_t parent = kNoChild;
  std::uint32_t depth = 0;

  // Split definition (internal nodes).
  std::size_t feature = 0;
  bool categorical = false;
  double threshold = 0.0;             ///< numeric: go left iff x < threshold
  std::vector<std::uint8_t> go_left;  ///< categorical: go left iff go_left[code]
  bool missing_goes_left = true;      ///< rows with missing split value

  // Node statistics.
  std::size_t n = 0;
  double prediction = 0.0;            ///< mean (regression) / majority code (classification)
  std::vector<double> class_counts;   ///< classification only
  double impurity = 0.0;              ///< SSE (regression) or n * Gini (classification)
  double improve = 0.0;               ///< impurity decrease achieved by this node's split

  [[nodiscard]] bool is_leaf() const noexcept { return left == kNoChild; }

  friend bool operator==(const Node&, const Node&) = default;
};

/// Per-feature importance (sum of split improvements), normalized to sum 1.
struct Importance {
  std::string feature;
  double importance = 0.0;
};

/// A fitted tree. Immutable once grown (pruning returns a new Tree).
class Tree {
 public:
  Tree(Task task, std::vector<FeatureInfo> features, std::vector<Node> nodes,
       std::vector<std::string> class_labels);

  [[nodiscard]] Task task() const noexcept { return task_; }
  [[nodiscard]] const std::vector<Node>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] const std::vector<FeatureInfo>& features() const noexcept {
    return features_;
  }
  [[nodiscard]] const std::vector<std::string>& class_labels() const noexcept {
    return class_labels_;
  }

  [[nodiscard]] std::size_t num_leaves() const noexcept;
  [[nodiscard]] std::size_t depth() const noexcept;

  /// Index of the leaf `row` falls into.
  [[nodiscard]] std::size_t leaf_of(const Dataset& data, std::size_t row) const;
  /// Same, but with feature `override_f` forced to `override_x` — the
  /// primitive behind partial dependence.
  [[nodiscard]] std::size_t leaf_of_with_override(const Dataset& data, std::size_t row,
                                                  std::size_t override_f,
                                                  double override_x) const;

  /// Regression: leaf mean. Classification: majority class code.
  [[nodiscard]] double predict(const Dataset& data, std::size_t row) const;
  [[nodiscard]] std::vector<double> predict(const Dataset& data) const;

  /// Training-set relative error: sum of leaf impurities / root impurity.
  [[nodiscard]] double relative_error() const;

  /// Split-improvement variable importance, descending, normalized to sum 1.
  [[nodiscard]] std::vector<Importance> variable_importance() const;

  /// Leaf ids in stable order (left-to-right), for cluster labelling.
  [[nodiscard]] std::vector<std::size_t> leaf_ids() const;

  /// Human-readable rendering with feature names and category labels.
  [[nodiscard]] std::string to_string() const;

  /// Root-to-node split path, e.g. for explaining a cluster
  /// ("dc=DC1 & power>=12 & age<6").
  [[nodiscard]] std::string path_to(std::size_t node_id) const;

  /// Structural equality (task, feature schema, nodes, labels) — the
  /// round-trip contract serve::load_forest(save_forest(f)) asserts against.
  friend bool operator==(const Tree&, const Tree&) = default;

 private:
  Task task_;
  std::vector<FeatureInfo> features_;
  std::vector<Node> nodes_;
  std::vector<std::string> class_labels_;

  void describe(std::ostream& os, std::size_t node_id, int indent) const;
  [[nodiscard]] std::string split_description(const Node& node, bool left_side) const;
};

/// Grows a full tree on `data` under `config` (no pruning beyond the cp
/// stopping rule). Throws on empty data.
[[nodiscard]] Tree grow(const Dataset& data, const Config& config = {});

/// Weighted growth: `row_weights[r]` is row r's multiplicity in the fitting
/// view (0 excludes the row). This is the zero-copy bootstrap primitive —
/// grow_forest passes per-row bag counts over the ORIGINAL dataset instead
/// of materializing a resampled Dataset copy per tree, and cross-validation
/// passes 0/1 fold masks. All node counts, leaf-size floors and impurities
/// treat a weight-w row exactly like w stacked copies. An all-ones weight
/// vector grows a tree bit-identical to the unweighted overload.
[[nodiscard]] Tree grow(const Dataset& data, const Config& config,
                        std::span<const double> row_weights);

/// Dense-rank bin codes of the numeric/ordinal features with few distinct
/// values: the input of the presort engine's histogram split search (see
/// grow.cpp). A feature is binned when its distinct present values number
/// at most min(65535, rows / 16); -0.0 and +0.0 share one bin.
struct BinCodes {
  /// Codes per row: one column per numeric feature ranked, binned or not,
  /// so that a row's codes sit together.
  std::size_t stride = 0;
  /// Row r's code for binned feature j sits at r * stride + columns[j]: the
  /// rank of its value among the feature's distinct values, or the
  /// feature's bin count when the value is missing. Empty when no feature
  /// is binned.
  std::vector<std::uint16_t> codes;
  /// Dataset feature index of each binned feature, ascending.
  std::vector<std::size_t> features;
  std::vector<std::size_t> columns;
  /// Binned feature j's bin values, ascending (a zero bin holds +0.0), are
  /// values[offsets[j], offsets[j + 1]).
  std::vector<std::size_t> offsets{0};
  std::vector<double> values;

  [[nodiscard]] std::size_t bins(std::size_t j) const noexcept {
    return offsets[j + 1] - offsets[j];
  }
};

/// The presort engine's dataset-level row order. For each numeric/ordinal
/// feature f, `feature(f)` lists every row of the dataset ascending by
/// (value, row id), with missing rows in an ascending row-id tail;
/// categorical features have an empty order. It is sorted once per dataset
/// and read, never written, by every tree grown on that dataset: each tree
/// keeps its rows with weight > 0 in one linear pass, which leaves the
/// (value, row id) sequence intact, so a tree grown from a SharedOrder is
/// bit-identical to one that presorts for itself.
///
/// An order depends only on the feature columns and the row count, never on
/// the response: it stays valid for any Dataset with the same feature
/// columns, such as a refit on a transformed response. Built from a dataset
/// with an integer regression response, it also holds the features' bin
/// codes, read off the same sort, which trees with integer responses and
/// weights search by histogram; without them those trees sweep.
class SharedOrder {
 public:
  /// Radix-sorts every numeric/ordinal feature of `data`, one chunk of
  /// features per pool task, each chunk with scratch allocated up front on
  /// the calling thread, and bins the features of a dataset with an integer
  /// regression response.
  explicit SharedOrder(const Dataset& data);

  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] std::size_t num_features() const noexcept {
    return offsets_.size() - 1;
  }
  [[nodiscard]] std::span<const std::uint32_t> feature(std::size_t f) const {
    return std::span<const std::uint32_t>(rows_).subspan(
        offsets_[f], offsets_[f + 1] - offsets_[f]);
  }
  /// Empty (no features) unless the dataset has an integer regression
  /// response.
  [[nodiscard]] const BinCodes& bins() const noexcept { return bins_; }

 private:
  std::size_t num_rows_;
  std::vector<std::size_t> offsets_;  ///< feature f is [offsets_[f], offsets_[f + 1])
  std::vector<std::uint32_t> rows_;   ///< every feature's order, one block
  BinCodes bins_;
};

/// Weighted growth over a shared order (see SharedOrder). `order` must have
/// been built from `data`; an order of the wrong shape throws
/// util::precondition_error. kExhaustive ignores the order.
[[nodiscard]] Tree grow(const Dataset& data, const Config& config,
                        std::span<const double> row_weights,
                        const SharedOrder& order);

}  // namespace rainshine::cart
