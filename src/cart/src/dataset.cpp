#include "rainshine/cart/dataset.hpp"

#include <cmath>

#include "rainshine/util/check.hpp"

namespace rainshine::cart {

namespace {

using table::Column;
using table::ColumnType;

std::vector<double> materialize(const Column& col) {
  // Same cell-for-cell semantics as Column::as_double, but dispatched on the
  // column type once instead of per cell — this runs per scoring request.
  std::vector<double> out(col.size());
  switch (col.type()) {
    case ColumnType::kContinuous: {
      const auto vals = col.continuous_values();
      out.assign(vals.begin(), vals.end());
      break;
    }
    case ColumnType::kOrdinal: {
      const auto vals = col.ordinal_values();
      for (std::size_t r = 0; r < out.size(); ++r) {
        out[r] = vals[r] == table::kMissingOrdinal
                     ? std::numeric_limits<double>::quiet_NaN()
                     : static_cast<double>(vals[r]);
      }
      break;
    }
    case ColumnType::kNominal: {
      const auto vals = col.nominal_codes();
      for (std::size_t r = 0; r < out.size(); ++r) {
        out[r] = vals[r] == table::kMissingCode
                     ? std::numeric_limits<double>::quiet_NaN()
                     : static_cast<double>(vals[r]);
      }
      break;
    }
  }
  return out;
}

/// Re-encodes a nominal column against a reference dictionary so codes match
/// the dictionary the tree was fitted with; unseen labels become missing.
/// The old-code -> reference-code map is built once per column (dictionaries
/// are tiny), so the per-row work is a table lookup instead of the label
/// string scan this used to do per cell.
std::vector<double> materialize_with_reference(const Column& col,
                                               const FeatureInfo& ref) {
  constexpr double kMissing = std::numeric_limits<double>::quiet_NaN();
  const auto& dict = col.dictionary();
  std::vector<double> remap(dict.size(), kMissing);
  for (std::size_t old_code = 0; old_code < dict.size(); ++old_code) {
    for (std::size_t k = 0; k < ref.labels.size(); ++k) {
      if (ref.labels[k] == dict[old_code]) {
        remap[old_code] = static_cast<double>(k);
        break;
      }
    }
  }
  const auto codes = col.nominal_codes();
  std::vector<double> out(col.size());
  for (std::size_t r = 0; r < out.size(); ++r) {
    const auto code = codes[r];
    out[r] = code == table::kMissingCode ? kMissing
                                         : remap[static_cast<std::size_t>(code)];
  }
  return out;
}

FeatureInfo info_for(const std::string& name, const Column& col) {
  FeatureInfo info;
  info.name = name;
  info.categorical = col.type() == ColumnType::kNominal;
  if (info.categorical) info.labels = col.dictionary();
  return info;
}

}  // namespace

Dataset::Dataset(const table::Table& table, const std::string& response,
                 std::vector<std::string> features, Task task,
                 MissingResponse missing)
    : task_(task), num_rows_(table.num_rows()) {
  util::require(!features.empty(), "Dataset needs at least one feature");
  const Column& y_col = table.column(response);
  if (task_ == Task::kClassification) {
    util::require(y_col.type() == ColumnType::kNominal,
                  "classification response must be nominal");
    class_labels_ = y_col.dictionary();
    util::require(class_labels_.size() >= 2,
                  "classification needs at least two classes");
  } else {
    util::require(y_col.type() != ColumnType::kNominal,
                  "regression response must be numeric");
  }
  y_ = materialize(y_col);

  std::vector<std::size_t> keep;  // only filled when dropping rows
  std::size_t missing_y = 0;
  for (std::size_t r = 0; r < y_.size(); ++r) {
    if (!std::isnan(y_[r])) {
      if (missing == MissingResponse::kDropRows) keep.push_back(r);
      continue;
    }
    ++missing_y;
    util::require(missing == MissingResponse::kDropRows,
                  "response '" + response + "' is missing at row " +
                      std::to_string(r + 1) +
                      " (pass MissingResponse::kDropRows to skip such rows)");
  }

  for (auto& name : features) {
    util::require(name != response, "response cannot also be a feature");
    const Column& col = table.column(name);
    features_.push_back(info_for(name, col));
    columns_.push_back(materialize(col));
  }

  if (missing == MissingResponse::kDropRows && missing_y > 0) {
    num_rows_ = keep.size();
    std::vector<double> y_kept;
    y_kept.reserve(keep.size());
    for (const std::size_t r : keep) y_kept.push_back(y_[r]);
    y_ = std::move(y_kept);
    for (auto& column : columns_) {
      std::vector<double> kept;
      kept.reserve(keep.size());
      for (const std::size_t r : keep) kept.push_back(column[r]);
      column = std::move(kept);
    }
  }
}

Dataset::Dataset(const table::Table& table, std::span<const FeatureInfo> reference)
    : num_rows_(table.num_rows()) {
  util::require(!reference.empty(), "Dataset needs at least one feature");
  for (const FeatureInfo& ref : reference) {
    const Column& col = table.column(ref.name);
    if ((col.type() == ColumnType::kNominal) != ref.categorical) {
      util::require(false, "feature '" + ref.name + "' type mismatch with fitted tree");
    }
    features_.push_back(ref);
    columns_.push_back(ref.categorical ? materialize_with_reference(col, ref)
                                       : materialize(col));
  }
}

void Dataset::set_responses(std::span<const double> y) {
  util::require(task_ == Task::kRegression,
                "set_responses is for regression datasets");
  util::require(y.size() == num_rows_, "set_responses: " +
                                           std::to_string(y.size()) +
                                           " values for " +
                                           std::to_string(num_rows_) + " rows");
  for (std::size_t r = 0; r < y.size(); ++r) {
    util::require(!std::isnan(y[r]), "response is missing at row " +
                                         std::to_string(r + 1));
  }
  y_.assign(y.begin(), y.end());
}

Dataset Dataset::subset(std::span<const std::size_t> rows) const {
  Dataset out;
  out.task_ = task_;
  out.num_rows_ = rows.size();
  out.features_ = features_;
  out.class_labels_ = class_labels_;
  out.columns_.reserve(columns_.size());
  for (const auto& column : columns_) {
    std::vector<double> values;
    values.reserve(rows.size());
    for (const std::size_t r : rows) {
      util::require(r < column.size(), "subset row index out of range");
      values.push_back(column[r]);
    }
    out.columns_.push_back(std::move(values));
  }
  if (!y_.empty()) {
    out.y_.reserve(rows.size());
    for (const std::size_t r : rows) out.y_.push_back(y_.at(r));
  }
  return out;
}

std::optional<std::size_t> Dataset::feature_index(std::string_view name) const {
  for (std::size_t f = 0; f < features_.size(); ++f) {
    if (features_[f].name == name) return f;
  }
  return std::nullopt;
}

}  // namespace rainshine::cart
