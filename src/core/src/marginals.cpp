#include "rainshine/core/marginals.hpp"

#include <algorithm>

namespace rainshine::core {

std::vector<TicketMixRow> ticket_mix(const Fleet& fleet, const TicketLog& log) {
  const auto dc1 = log.count_by_fault(simdc::DataCenterId::kDC1, fleet);
  const auto dc2 = log.count_by_fault(simdc::DataCenterId::kDC2, fleet);
  double total1 = 0.0;
  double total2 = 0.0;
  for (std::size_t f = 0; f < simdc::kNumFaultTypes; ++f) {
    total1 += static_cast<double>(dc1[f]);
    total2 += static_cast<double>(dc2[f]);
  }
  std::vector<TicketMixRow> rows;
  for (const simdc::FaultType fault : simdc::kAllFaultTypes) {
    const auto f = static_cast<std::size_t>(fault);
    TicketMixRow row;
    row.category = simdc::to_string(simdc::category_of(fault));
    row.fault = simdc::to_string(fault);
    row.dc1_pct = total1 > 0.0 ? 100.0 * static_cast<double>(dc1[f]) / total1 : 0.0;
    row.dc2_pct = total2 > 0.0 ? 100.0 * static_cast<double>(dc2[f]) / total2 : 0.0;
    rows.push_back(std::move(row));
  }
  return rows;
}

Marginals::Marginals(const FailureMetrics& metrics,
                     const simdc::EnvironmentModel& env, std::int32_t day_stride) {
  ObservationOptions obs;
  obs.day_stride = day_stride;
  obs.include_mu = false;
  tbl_ = rack_day_table(metrics, env, obs);
}

std::vector<stats::BinnedRow> Marginals::by_nominal(
    const char* key, const std::vector<std::string>& order) const {
  const table::Column& key_col = tbl_.column(key);
  const table::Column& rate = tbl_.column(col::kLambdaAll);

  // Row order: explicit `order` if given, else the dictionary sorted.
  std::vector<std::string> labels = order;
  if (labels.empty()) {
    labels = key_col.dictionary();
    std::sort(labels.begin(), labels.end());
  }
  // Each label's dictionary code maps to its row; codes of labels outside
  // `labels` (and missing cells) stay unmapped and their rows are skipped.
  constexpr std::size_t kUnmapped = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot_of_code(key_col.cardinality(), kUnmapped);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const std::int32_t code = key_col.code_of(labels[i]);
    if (code == table::kMissingCode) continue;
    std::size_t& slot = slot_of_code[static_cast<std::size_t>(code)];
    if (slot == kUnmapped) slot = i;  // first occurrence wins
  }
  stats::CategoricalStats cat(labels);
  const auto codes = key_col.nominal_codes();
  const auto rates = rate.continuous_values();
  for (std::size_t r = 0; r < codes.size(); ++r) {
    if (codes[r] == table::kMissingCode) continue;
    const std::size_t slot = slot_of_code[static_cast<std::size_t>(codes[r])];
    if (slot != kUnmapped) cat.add(slot, rates[r]);
  }
  return cat.rows();
}

std::vector<stats::BinnedRow> Marginals::by_binned(const char* key,
                                                   stats::Binner binner) const {
  const table::Column& key_col = tbl_.column(key);
  const table::Column& rate = tbl_.column(col::kLambdaAll);
  stats::BinnedStats binned(std::move(binner));
  for (std::size_t r = 0; r < tbl_.num_rows(); ++r) {
    binned.add(key_col.as_double(r), rate.as_double(r));
  }
  return binned.rows();
}

std::vector<stats::BinnedRow> Marginals::by_region() const {
  return by_nominal(col::kRegion, {});
}

std::vector<stats::BinnedRow> Marginals::by_weekday() const {
  return by_nominal(col::kWeekday,
                    {"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"});
}

std::vector<stats::BinnedRow> Marginals::by_month() const {
  return by_nominal(col::kMonth, {"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul",
                                  "Aug", "Sep", "Oct", "Nov", "Dec"});
}

std::vector<stats::BinnedRow> Marginals::by_humidity() const {
  // Fig. 5's bins: <20, 20-30, ..., 60-70, >70.
  return by_binned(col::kRh, stats::Binner({20, 30, 40, 50, 60, 70}, true));
}

std::vector<stats::BinnedRow> Marginals::by_workload() const {
  return by_nominal(col::kWorkload, {"W1", "W2", "W3", "W4", "W5", "W6", "W7"});
}

std::vector<stats::BinnedRow> Marginals::by_sku() const {
  return by_nominal(col::kSku, {"S1", "S2", "S3", "S4", "S5", "S6", "S7"});
}

std::vector<stats::BinnedRow> Marginals::by_power() const {
  // Fig. 8 plots the discrete rating levels.
  return by_binned(col::kPowerKw,
                   stats::Binner({5, 6.5, 7.5, 8.5, 10.5, 12.5, 14}, true));
}

std::vector<stats::BinnedRow> Marginals::by_age() const {
  // Fig. 9: 0-40 months in 5-month bins.
  return by_binned(col::kAgeMonths, stats::Binner({5, 10, 15, 20, 25, 30, 35, 40}, true));
}

}  // namespace rainshine::core
