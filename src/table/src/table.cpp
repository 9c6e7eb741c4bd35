#include "rainshine/table/table.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>

#include "rainshine/util/check.hpp"

namespace rainshine::table {

std::optional<std::size_t> Table::index_of(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  return std::nullopt;
}

void Table::add_column(std::string name, Column column) {
  if (index_of(name).has_value()) {
    util::require(false, "duplicate column name: " + name);
  }
  if (!columns_.empty()) {
    if (column.size() != num_rows_) {
      util::require(false, "column '" + name + "' length mismatch");
    }
  } else {
    num_rows_ = column.size();
  }
  names_.push_back(std::move(name));
  columns_.push_back(std::move(column));
}

bool Table::has_column(std::string_view name) const noexcept {
  return index_of(name).has_value();
}

const Column& Table::column(std::string_view name) const {
  const auto idx = index_of(name);
  if (!idx) util::require(false, "no such column: " + std::string(name));
  return columns_[*idx];
}

Column& Table::column(std::string_view name) {
  const auto idx = index_of(name);
  if (!idx) util::require(false, "no such column: " + std::string(name));
  return columns_[*idx];
}

const Column& Table::column_at(std::size_t index) const {
  util::require(index < columns_.size(), "column index out of range");
  return columns_[index];
}

const std::string& Table::column_name(std::size_t index) const {
  util::require(index < names_.size(), "column index out of range");
  return names_[index];
}

Table Table::take(std::span<const std::size_t> indices) const {
  Table out;
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    out.add_column(names_[c], columns_[c].take(indices));
  }
  if (columns_.empty()) out.num_rows_ = 0;
  return out;
}

std::vector<std::size_t> Table::find_rows(
    const std::function<bool(std::size_t)>& predicate) const {
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < num_rows_; ++r) {
    if (predicate(r)) out.push_back(r);
  }
  return out;
}

Table Table::filter(const std::function<bool(std::size_t)>& predicate) const {
  return take(find_rows(predicate));
}

Table Table::select(std::span<const std::string> names) const {
  Table out;
  for (const auto& name : names) out.add_column(name, column(name));
  return out;
}

std::vector<std::size_t> Table::sorted_indices(std::string_view name) const {
  const Column& col = column(name);
  std::vector<std::size_t> order(num_rows_);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const double va = col.as_double(a);
    const double vb = col.as_double(b);
    if (std::isnan(va)) return false;  // missing sorts last
    if (std::isnan(vb)) return true;
    return va < vb;
  });
  return order;
}

std::string Table::preview(std::size_t max_rows) const {
  std::ostringstream os;
  for (std::size_t c = 0; c < names_.size(); ++c) {
    if (c) os << '\t';
    os << names_[c];
  }
  os << '\n';
  const std::size_t rows = std::min(max_rows, num_rows_);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      if (c) os << '\t';
      os << columns_[c].cell_to_string(r);
    }
    os << '\n';
  }
  if (rows < num_rows_) os << "... (" << num_rows_ - rows << " more rows)\n";
  return os.str();
}

// -- TableBuilder -------------------------------------------------------------

TableBuilder& TableBuilder::add_continuous(std::string name) {
  util::require(!in_row_, "cannot add columns after begin_row");
  pending_.push_back({std::move(name), Column(ColumnType::kContinuous), false});
  return *this;
}

TableBuilder& TableBuilder::add_ordinal(std::string name) {
  util::require(!in_row_, "cannot add columns after begin_row");
  pending_.push_back({std::move(name), Column(ColumnType::kOrdinal), false});
  return *this;
}

TableBuilder& TableBuilder::add_nominal(std::string name) {
  util::require(!in_row_, "cannot add columns after begin_row");
  pending_.push_back({std::move(name), Column(ColumnType::kNominal), false});
  return *this;
}

TableBuilder::Pending& TableBuilder::pending_for(std::string_view name) {
  for (auto& p : pending_) {
    if (p.name == name) {
      util::require(in_row_, "set outside of a row");
      if (p.set_in_current_row) {
        util::require(false, "column '" + p.name + "' set twice in one row");
      }
      p.set_in_current_row = true;
      return p;
    }
  }
  throw util::precondition_error("no such column: " + std::string(name));
}

void TableBuilder::close_row() {
  for (auto& p : pending_) {
    if (!p.set_in_current_row) {
      util::require(false, "column '" + p.name + "' not set in row");
    }
    p.set_in_current_row = false;
  }
}

void TableBuilder::begin_row() {
  util::require(!pending_.empty(), "begin_row on empty schema");
  if (in_row_) close_row();
  in_row_ = true;
}

void TableBuilder::set(std::string_view name, double value) {
  pending_for(name).column.push_continuous(value);
}

void TableBuilder::set(std::string_view name, std::int32_t value) {
  pending_for(name).column.push_ordinal(value);
}

void TableBuilder::set(std::string_view name, std::string_view label) {
  pending_for(name).column.push_nominal(label);
}

void TableBuilder::set_missing(std::string_view name) {
  pending_for(name).column.push_missing();
}

Table TableBuilder::finish() {
  if (in_row_) close_row();
  Table out;
  for (auto& p : pending_) out.add_column(std::move(p.name), std::move(p.column));
  pending_.clear();
  in_row_ = false;
  return out;
}

}  // namespace rainshine::table
