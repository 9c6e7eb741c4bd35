#include "rainshine/core/observations.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>

#include "rainshine/simdc/fleet_table.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::core {

namespace {

/// A nominal column under construction: dictionary codes plus the
/// dictionary in first-seen row order — the order Column::push_nominal
/// would give, so codes (and CART's tie-breaks on them) match a row-by-row
/// build.
struct NominalColumn {
  std::vector<std::int32_t> codes;
  std::vector<std::string> dictionary;
  std::unordered_map<std::string, std::int32_t> index;

  /// Code of `label`, appended to the dictionary on first sight.
  std::int32_t intern(std::string_view label) {
    const auto [it, inserted] =
        index.try_emplace(std::string(label), static_cast<std::int32_t>(dictionary.size()));
    if (inserted) dictionary.emplace_back(label);
    return it->second;
  }

  [[nodiscard]] table::Column finish() {
    return table::Column::nominal(std::move(codes), std::move(dictionary));
  }
};

/// First-seen codes for a small enum-keyed label set (weekday, month): the
/// label is interned the first time its key appears in a row.
template <std::size_t N>
struct CalendarCodes {
  std::array<std::int32_t, N> code_of_key;

  CalendarCodes() { code_of_key.fill(table::kMissingCode); }

  template <typename Key>
  std::int32_t code(Key key, NominalColumn& column) {
    std::int32_t& code = code_of_key[static_cast<std::size_t>(key)];
    if (code == table::kMissingCode) code = column.intern(util::to_string(key));
    return code;
  }
};

table::Table build(const FailureMetrics& metrics, const simdc::EnvironmentModel& env,
                   std::optional<simdc::WorkloadId> workload,
                   const ObservationOptions& opt) {
  util::require(opt.day_stride >= 1, "day_stride must be >= 1");
  util::require(opt.first_day >= 0, "first_day must be >= 0");
  const util::DayIndex last_day =
      opt.last_day < 0 ? metrics.fleet().spec().num_days
                       : std::min(opt.last_day, metrics.fleet().spec().num_days);
  util::require(opt.first_day <= last_day,
                "observation window is empty: first_day > last_day");
  util::require(!opt.include_mu || opt.mu_granularity == Granularity::kDaily ||
                    opt.mu_granularity == Granularity::kHourly,
                "observation rows are per-day; µ granularity must be daily or hourly");
  const Fleet& fleet = metrics.fleet();
  const util::Calendar& cal = fleet.calendar();
  const std::span<const simdc::Rack> racks = fleet.racks();
  const simdc::EnvironmentTable env_table(fleet, env);

  // Everything that depends on the day alone, once per emitted day.
  struct DayInfo {
    util::DayIndex day;
    util::Weekday weekday;
    util::Month month;
    std::int32_t year;
    simdc::DayTerms terms;
  };
  std::vector<DayInfo> days;
  for (util::DayIndex day = opt.first_day; day < last_day; day += opt.day_stride) {
    days.push_back({day, cal.weekday(day), cal.month(day), cal.year_offset(day),
                    env_table.day_terms(day)});
  }

  // Each rack emits a suffix of `days`: all of them, or (skipping
  // pre-commission days) those from its commission day on.
  std::vector<std::size_t> first_row_day(racks.size(), days.size());
  std::size_t num_rows = 0;
  for (std::size_t r = 0; r < racks.size(); ++r) {
    const simdc::Rack& rack = racks[r];
    if (workload && rack.workload != *workload) continue;
    std::size_t k = 0;
    if (opt.skip_pre_commission) {
      k = static_cast<std::size_t>(
          std::partition_point(days.begin(), days.end(),
                               [&](const DayInfo& d) { return d.day < rack.commission_day; }) -
          days.begin());
    }
    first_row_day[r] = k;
    num_rows += days.size() - k;
  }

  NominalColumn rack_col, dc_col, region_col, sku_col, workload_col, weekday_col, month_col;
  std::vector<double> power_kw, age_months, temp_f, rh;
  std::vector<double> lambda_all, lambda_hw, lambda_disk, lambda_mem;
  std::vector<std::int32_t> commission_year, day_col, year_col;
  // µ columns in emission order: server, server_frac, server_other,
  // server_other_frac, disk, disk_frac, dimm, dimm_frac.
  std::array<std::vector<double>, 8> mu_cols;
  for (auto* v : {&rack_col.codes, &dc_col.codes, &region_col.codes, &sku_col.codes,
                  &workload_col.codes, &weekday_col.codes, &month_col.codes,
                  &commission_year, &day_col, &year_col}) {
    v->reserve(num_rows);
  }
  for (auto* v : {&power_kw, &age_months, &temp_f, &rh, &lambda_all, &lambda_hw,
                  &lambda_disk, &lambda_mem}) {
    v->reserve(num_rows);
  }
  if (opt.include_mu) {
    for (auto& v : mu_cols) v.reserve(num_rows);
  }
  CalendarCodes<static_cast<std::size_t>(util::Weekday::kSaturday) + 1> weekday_codes;
  CalendarCodes<static_cast<std::size_t>(util::Month::kDecember) + 1> month_codes;

  for (std::size_t r = 0; r < racks.size(); ++r) {
    const simdc::Rack& rack = racks[r];
    const std::size_t rows = days.size() - first_row_day[r];
    if (rows == 0) continue;

    // Static rack attributes: one dictionary lookup per rack, not per row.
    const auto fill = [rows](std::vector<std::int32_t>& v, std::int32_t value) {
      v.insert(v.end(), rows, value);
    };
    fill(rack_col.codes, rack_col.intern("R" + std::to_string(rack.id)));
    fill(dc_col.codes, dc_col.intern(simdc::to_string(rack.dc)));
    fill(region_col.codes, region_col.intern(rack.region_label()));
    fill(sku_col.codes, sku_col.intern(simdc::to_string(rack.sku)));
    fill(workload_col.codes, workload_col.intern(simdc::to_string(rack.workload)));
    fill(commission_year, cal.year_offset(rack.commission_day));
    power_kw.insert(power_kw.end(), rows, rack.rated_power_kw);

    // µ series are only materialized when requested; the daily index maps
    // directly for kDaily, and for kHourly we take the day's peak so the
    // row stays one-per-day.
    std::vector<std::uint16_t> mu_server;
    std::vector<std::uint16_t> mu_server_other;
    std::vector<std::uint16_t> mu_disk;
    std::vector<std::uint16_t> mu_dimm;
    if (opt.include_mu) {
      mu_server = metrics.mu_series(rack.id, DeviceKind::kServer,
                                    opt.mu_granularity, /*server_level_all=*/true);
      mu_server_other =
          metrics.mu_series(rack.id, DeviceKind::kServer, opt.mu_granularity);
      mu_disk = metrics.mu_series(rack.id, DeviceKind::kDisk, opt.mu_granularity);
      mu_dimm = metrics.mu_series(rack.id, DeviceKind::kDimm, opt.mu_granularity);
    }
    const auto mu_at = [&](const std::vector<std::uint16_t>& series,
                           util::DayIndex day) -> double {
      if (opt.mu_granularity == Granularity::kDaily) {
        return series[static_cast<std::size_t>(day)];
      }
      std::uint16_t peak = 0;
      const std::size_t base = static_cast<std::size_t>(day) * util::kHoursPerDay;
      for (std::size_t h = 0; h < util::kHoursPerDay; ++h) {
        peak = std::max(peak, series[base + h]);
      }
      return peak;
    };

    for (std::size_t k = first_row_day[r]; k < days.size(); ++k) {
      const DayInfo& d = days[k];
      const util::DayIndex day = d.day;
      const simdc::Conditions c = env_table.daily_mean(r, d.terms);
      age_months.push_back(rack.age_months(day));
      day_col.push_back(day);
      weekday_col.codes.push_back(weekday_codes.code(d.weekday, weekday_col));
      month_col.codes.push_back(month_codes.code(d.month, month_col));
      year_col.push_back(d.year);
      temp_f.push_back(c.temperature_f);
      rh.push_back(c.relative_humidity);
      lambda_all.push_back(static_cast<double>(metrics.total_count(rack.id, day)));
      lambda_hw.push_back(static_cast<double>(metrics.hardware_count(rack.id, day)));
      lambda_disk.push_back(
          static_cast<double>(metrics.count(rack.id, day, FaultType::kDiskFailure)));
      lambda_mem.push_back(
          static_cast<double>(metrics.count(rack.id, day, FaultType::kMemoryFailure)));
      if (opt.include_mu) {
        const double mu_s = mu_at(mu_server, day);
        const double mu_so = mu_at(mu_server_other, day);
        const double mu_dk = mu_at(mu_disk, day);
        const double mu_dm = mu_at(mu_dimm, day);
        mu_cols[0].push_back(mu_s);
        mu_cols[1].push_back(mu_s / rack.servers());
        mu_cols[2].push_back(mu_so);
        mu_cols[3].push_back(mu_so / rack.servers());
        mu_cols[4].push_back(mu_dk);
        mu_cols[5].push_back(mu_dk / rack.disks());
        mu_cols[6].push_back(mu_dm);
        mu_cols[7].push_back(mu_dm / rack.dimms());
      }
    }
  }

  using table::Column;
  table::Table out;
  out.add_column(col::kRack, rack_col.finish());
  out.add_column(col::kDc, dc_col.finish());
  out.add_column(col::kRegion, region_col.finish());
  out.add_column(col::kSku, sku_col.finish());
  out.add_column(col::kWorkload, workload_col.finish());
  out.add_column(col::kPowerKw, Column::continuous(std::move(power_kw)));
  out.add_column(col::kAgeMonths, Column::continuous(std::move(age_months)));
  out.add_column(col::kCommissionYear, Column::ordinal(std::move(commission_year)));
  out.add_column(col::kDay, Column::ordinal(std::move(day_col)));
  out.add_column(col::kWeekday, weekday_col.finish());
  out.add_column(col::kMonth, month_col.finish());
  out.add_column(col::kYear, Column::ordinal(std::move(year_col)));
  out.add_column(col::kTempF, Column::continuous(std::move(temp_f)));
  out.add_column(col::kRh, Column::continuous(std::move(rh)));
  out.add_column(col::kLambdaAll, Column::continuous(std::move(lambda_all)));
  out.add_column(col::kLambdaHw, Column::continuous(std::move(lambda_hw)));
  out.add_column(col::kLambdaDisk, Column::continuous(std::move(lambda_disk)));
  out.add_column(col::kLambdaMem, Column::continuous(std::move(lambda_mem)));
  if (opt.include_mu) {
    const char* const mu_names[] = {col::kMuServer,     col::kMuServerFrac,
                                    col::kMuServerOther, col::kMuServerOtherFrac,
                                    col::kMuDisk,       col::kMuDiskFrac,
                                    col::kMuDimm,       col::kMuDimmFrac};
    for (std::size_t i = 0; i < mu_cols.size(); ++i) {
      out.add_column(mu_names[i], Column::continuous(std::move(mu_cols[i])));
    }
  }
  return out;
}

}  // namespace

table::Table rack_day_table(const FailureMetrics& metrics,
                            const simdc::EnvironmentModel& env,
                            const ObservationOptions& options) {
  return build(metrics, env, std::nullopt, options);
}

table::Table rack_day_table(const FailureMetrics& metrics,
                            const simdc::EnvironmentModel& env,
                            simdc::WorkloadId workload,
                            const ObservationOptions& options) {
  return build(metrics, env, workload, options);
}

std::vector<std::string> static_rack_features() {
  return {col::kDc,       col::kRegion,        col::kSku,
          col::kWorkload, col::kPowerKw,       col::kAgeMonths,
          col::kCommissionYear};
}

}  // namespace rainshine::core
