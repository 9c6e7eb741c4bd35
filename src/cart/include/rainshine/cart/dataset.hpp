// Learning-ready view of a table::Table.
//
// CART consumes features through a uniform numeric matrix; `Dataset`
// materializes the requested columns once (so split search is cache-friendly
// column scans), remembers which features are categorical and what their
// levels are called, and encodes the response — numeric for regression,
// dictionary codes for classification.
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "rainshine/table/table.hpp"

namespace rainshine::cart {

enum class Task : std::uint8_t { kRegression, kClassification };

/// What to do with rows whose RESPONSE cell is missing. Feature cells may
/// always be missing — splits route them deterministically (fitting sends
/// them with the bigger child; prediction follows the recorded side) — but a
/// missing response carries no signal to fit against.
enum class MissingResponse : std::uint8_t {
  kThrow,     ///< refuse the table (the historical behavior)
  kDropRows,  ///< silently drop those rows from the fitting view
};

/// Metadata the tree keeps about each feature (enough to print splits and to
/// re-bind new tables for prediction).
struct FeatureInfo {
  std::string name;
  bool categorical = false;
  std::vector<std::string> labels;  ///< categorical level names (by code)

  [[nodiscard]] std::size_t cardinality() const noexcept { return labels.size(); }

  friend bool operator==(const FeatureInfo&, const FeatureInfo&) = default;
};

/// Column-major numeric snapshot of selected table columns.
///
/// Cell policy: NaN is the only missing marker. ±inf feature cells are
/// ordinary values, not missing: they sort below/above every finite value
/// and may be split on, and the cut placed between two adjacent values lo <
/// hi is never outside (lo, hi] (see cut_between in grow.cpp), so an
/// infinite neighbour cannot produce an empty child.
class Dataset {
 public:
  /// With a response: for fitting. The response must be continuous/ordinal
  /// for regression, nominal for classification. Rows with a missing
  /// response are handled per `missing` (throw by default; quarantining
  /// pipelines pass kDropRows to fit on whatever rows survived ingest).
  Dataset(const table::Table& table, const std::string& response,
          std::vector<std::string> features, Task task,
          MissingResponse missing = MissingResponse::kThrow);

  /// Without a response: for prediction only. Feature columns must exist
  /// with the same names; nominal columns are re-encoded against
  /// `reference` infos so codes line up with the fitted tree.
  Dataset(const table::Table& table, std::span<const FeatureInfo> reference);

  [[nodiscard]] Task task() const noexcept { return task_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return num_rows_; }
  [[nodiscard]] std::size_t num_features() const noexcept { return features_.size(); }
  [[nodiscard]] const FeatureInfo& info(std::size_t f) const { return features_.at(f); }
  [[nodiscard]] const std::vector<FeatureInfo>& infos() const noexcept { return features_; }

  /// Feature value: numeric magnitude, ordinal level, or categorical code.
  /// NaN = missing.
  [[nodiscard]] double x(std::size_t row, std::size_t f) const {
    return columns_[f][row];
  }
  /// Inline on purpose: this sits in the innermost split-search loop, where
  /// an out-of-line call dominated the NaN test itself.
  [[nodiscard]] bool x_missing(std::size_t row, std::size_t f) const {
    return std::isnan(columns_[f][row]);
  }
  /// Whole feature column (NaN = missing). The flat scorer gathers row
  /// blocks straight from these instead of calling x() per cell.
  [[nodiscard]] std::span<const double> column(std::size_t f) const {
    return columns_[f];
  }

  [[nodiscard]] bool has_response() const noexcept { return !y_.empty(); }
  /// Response: value (regression) or class code (classification).
  [[nodiscard]] double y(std::size_t row) const { return y_.at(row); }
  [[nodiscard]] std::span<const double> responses() const noexcept { return y_; }
  /// Regression only: replaces the response in place, keeping every feature
  /// column (refits on a transformed response reuse one Dataset). Same
  /// checks as the constructor: one value per row, and a NaN throws.
  void set_responses(std::span<const double> y);

  /// Classification only: number of classes / their names.
  [[nodiscard]] std::size_t num_classes() const noexcept { return class_labels_.size(); }
  [[nodiscard]] const std::vector<std::string>& class_labels() const noexcept {
    return class_labels_;
  }

  /// Index of the feature named `name`, if present.
  [[nodiscard]] std::optional<std::size_t> feature_index(std::string_view name) const;

  /// Materialized copy restricted to `rows` (indices may repeat — bootstrap
  /// resampling uses this). Preserves feature metadata, task and labels.
  [[nodiscard]] Dataset subset(std::span<const std::size_t> rows) const;

 private:
  Dataset() = default;  // used by subset()

  Task task_ = Task::kRegression;
  std::size_t num_rows_ = 0;
  std::vector<FeatureInfo> features_;
  std::vector<std::vector<double>> columns_;  ///< [feature][row]
  std::vector<double> y_;
  std::vector<std::string> class_labels_;
};

}  // namespace rainshine::cart
