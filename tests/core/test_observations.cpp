#include "rainshine/core/observations.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <optional>
#include <span>

#include "rainshine/core/marginals.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::core {
namespace {

/// Row-at-a-time reference for rack_day_table: every cell goes through
/// TableBuilder and every reading through EnvironmentModel::daily_mean. The
/// columnar builder must reproduce it exactly
/// (ColumnarBuildMatchesRowBuilderReference).
table::Table reference_rack_day_table(const FailureMetrics& metrics,
                                      const simdc::EnvironmentModel& env,
                                      std::optional<simdc::WorkloadId> workload,
                                      const ObservationOptions& opt) {
  const util::DayIndex last_day =
      opt.last_day < 0 ? metrics.fleet().spec().num_days
                       : std::min(opt.last_day, metrics.fleet().spec().num_days);
  const Fleet& fleet = metrics.fleet();
  const util::Calendar& cal = fleet.calendar();

  table::TableBuilder b;
  b.add_nominal(col::kRack)
      .add_nominal(col::kDc)
      .add_nominal(col::kRegion)
      .add_nominal(col::kSku)
      .add_nominal(col::kWorkload)
      .add_continuous(col::kPowerKw)
      .add_continuous(col::kAgeMonths)
      .add_ordinal(col::kCommissionYear)
      .add_ordinal(col::kDay)
      .add_nominal(col::kWeekday)
      .add_nominal(col::kMonth)
      .add_ordinal(col::kYear)
      .add_continuous(col::kTempF)
      .add_continuous(col::kRh)
      .add_continuous(col::kLambdaAll)
      .add_continuous(col::kLambdaHw)
      .add_continuous(col::kLambdaDisk)
      .add_continuous(col::kLambdaMem);
  if (opt.include_mu) {
    b.add_continuous(col::kMuServer)
        .add_continuous(col::kMuServerFrac)
        .add_continuous(col::kMuServerOther)
        .add_continuous(col::kMuServerOtherFrac)
        .add_continuous(col::kMuDisk)
        .add_continuous(col::kMuDiskFrac)
        .add_continuous(col::kMuDimm)
        .add_continuous(col::kMuDimmFrac);
  }

  for (const simdc::Rack& rack : fleet.racks()) {
    if (workload && rack.workload != *workload) continue;
    std::vector<std::uint16_t> mu_server, mu_server_other, mu_disk, mu_dimm;
    if (opt.include_mu) {
      mu_server = metrics.mu_series(rack.id, DeviceKind::kServer, opt.mu_granularity, true);
      mu_server_other = metrics.mu_series(rack.id, DeviceKind::kServer, opt.mu_granularity);
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
    const std::int32_t commission_year = cal.year_offset(rack.commission_day);

    for (util::DayIndex day = opt.first_day; day < last_day; day += opt.day_stride) {
      if (opt.skip_pre_commission && day < rack.commission_day) continue;
      const simdc::Conditions c = env.daily_mean(rack, day);
      b.begin_row();
      b.set(col::kRack, std::string_view("R" + std::to_string(rack.id)));
      b.set(col::kDc, simdc::to_string(rack.dc));
      b.set(col::kRegion, std::string_view(rack.region_label()));
      b.set(col::kSku, simdc::to_string(rack.sku));
      b.set(col::kWorkload, simdc::to_string(rack.workload));
      b.set(col::kPowerKw, rack.rated_power_kw);
      b.set(col::kAgeMonths, rack.age_months(day));
      b.set(col::kCommissionYear, commission_year);
      b.set(col::kDay, day);
      b.set(col::kWeekday, util::to_string(cal.weekday(day)));
      b.set(col::kMonth, util::to_string(cal.month(day)));
      b.set(col::kYear, cal.year_offset(day));
      b.set(col::kTempF, c.temperature_f);
      b.set(col::kRh, c.relative_humidity);
      b.set(col::kLambdaAll, static_cast<double>(metrics.total_count(rack.id, day)));
      b.set(col::kLambdaHw, static_cast<double>(metrics.hardware_count(rack.id, day)));
      b.set(col::kLambdaDisk,
            static_cast<double>(metrics.count(rack.id, day, FaultType::kDiskFailure)));
      b.set(col::kLambdaMem,
            static_cast<double>(metrics.count(rack.id, day, FaultType::kMemoryFailure)));
      if (opt.include_mu) {
        const double mu_s = mu_at(mu_server, day);
        const double mu_so = mu_at(mu_server_other, day);
        const double mu_dk = mu_at(mu_disk, day);
        const double mu_dm = mu_at(mu_dimm, day);
        b.set(col::kMuServer, mu_s);
        b.set(col::kMuServerFrac, mu_s / rack.servers());
        b.set(col::kMuServerOther, mu_so);
        b.set(col::kMuServerOtherFrac, mu_so / rack.servers());
        b.set(col::kMuDisk, mu_dk);
        b.set(col::kMuDiskFrac, mu_dk / rack.disks());
        b.set(col::kMuDimm, mu_dm);
        b.set(col::kMuDimmFrac, mu_dm / rack.dimms());
      }
    }
  }
  return b.finish();
}

/// Index of the first position where `a` and `b` differ, or nullopt.
template <typename T, typename Eq>
std::optional<std::size_t> first_mismatch(std::span<const T> a, std::span<const T> b,
                                          Eq eq) {
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    if (!eq(a[i], b[i])) return i;
  }
  if (a.size() != b.size()) return std::min(a.size(), b.size());
  return std::nullopt;
}

/// Same names, types, nominal dictionaries (in order) and codes, ordinal
/// values, and bit patterns of every double.
void expect_identical_tables(const table::Table& got, const table::Table& want) {
  ASSERT_EQ(got.column_names(), want.column_names());
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (std::size_t c = 0; c < want.num_columns(); ++c) {
    const table::Column& g = got.column_at(c);
    const table::Column& w = want.column_at(c);
    const std::string& name = want.column_name(c);
    ASSERT_EQ(g.type(), w.type()) << name;
    std::optional<std::size_t> row;
    switch (w.type()) {
      case table::ColumnType::kContinuous:
        row = first_mismatch(g.continuous_values(), w.continuous_values(),
                             [](double x, double y) {
                               return std::bit_cast<std::uint64_t>(x) ==
                                      std::bit_cast<std::uint64_t>(y);
                             });
        break;
      case table::ColumnType::kOrdinal:
        row = first_mismatch(g.ordinal_values(), w.ordinal_values(), std::equal_to<>());
        break;
      case table::ColumnType::kNominal:
        EXPECT_EQ(g.dictionary(), w.dictionary()) << name;
        row = first_mismatch(g.nominal_codes(), w.nominal_codes(), std::equal_to<>());
        break;
    }
    EXPECT_FALSE(row.has_value()) << name << " differs first at row " << *row;
  }
}

class ObservationsTest : public ::testing::Test {
 protected:
  ObservationsTest()
      : fleet_(simdc::FleetSpec::test_default()),
        env_(fleet_, fleet_.spec().seed),
        hazard_(fleet_, env_),
        log_(simulate(fleet_, env_, hazard_, {.seed = 5})),
        metrics_(fleet_, log_) {}

  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
  simdc::TicketLog log_;
  FailureMetrics metrics_;
};

TEST_F(ObservationsTest, SchemaAndRowCount) {
  ObservationOptions opt;
  opt.skip_pre_commission = false;
  const table::Table t = rack_day_table(metrics_, env_, opt);
  for (const char* name :
       {col::kRack, col::kDc, col::kRegion, col::kSku, col::kWorkload,
        col::kPowerKw, col::kAgeMonths, col::kCommissionYear, col::kDay,
        col::kWeekday, col::kMonth, col::kYear, col::kTempF, col::kRh,
        col::kLambdaAll, col::kLambdaHw, col::kLambdaDisk, col::kLambdaMem,
        col::kMuServer, col::kMuServerFrac, col::kMuDisk, col::kMuDimm}) {
    EXPECT_TRUE(t.has_column(name)) << name;
  }
  EXPECT_EQ(t.num_rows(),
            fleet_.num_racks() * static_cast<std::size_t>(fleet_.spec().num_days));
}

TEST_F(ObservationsTest, StrideAndCommissionFiltering) {
  ObservationOptions opt;
  opt.day_stride = 5;
  opt.include_mu = false;
  const table::Table t = rack_day_table(metrics_, env_, opt);
  std::size_t expected = 0;
  for (const simdc::Rack& rack : fleet_.racks()) {
    for (util::DayIndex d = 0; d < fleet_.spec().num_days; d += 5) {
      if (d >= rack.commission_day) ++expected;
    }
  }
  EXPECT_EQ(t.num_rows(), expected);
}

TEST_F(ObservationsTest, ValuesMatchSources) {
  ObservationOptions opt;
  opt.include_mu = true;
  const table::Table t = rack_day_table(metrics_, env_, opt);
  const auto& rack_col = t.column(col::kRack);
  const auto& day_col = t.column(col::kDay);
  // Spot-check a scattering of rows against the primary sources.
  for (std::size_t r = 0; r < t.num_rows(); r += 97) {
    const std::string rack_label = rack_col.cell_to_string(r);
    const auto rack_id = static_cast<std::int32_t>(std::stoi(rack_label.substr(1)));
    const auto day = static_cast<util::DayIndex>(day_col.ordinal_values()[r]);
    const simdc::Rack& rack = fleet_.rack(rack_id);

    EXPECT_EQ(t.column(col::kSku).cell_to_string(r), to_string(rack.sku));
    EXPECT_EQ(t.column(col::kDc).cell_to_string(r), to_string(rack.dc));
    EXPECT_DOUBLE_EQ(t.column(col::kPowerKw).as_double(r), rack.rated_power_kw);
    EXPECT_DOUBLE_EQ(t.column(col::kLambdaHw).as_double(r),
                     metrics_.hardware_count(rack_id, day));
    const simdc::Conditions c = env_.daily_mean(rack, day);
    EXPECT_DOUBLE_EQ(t.column(col::kTempF).as_double(r), c.temperature_f);
    EXPECT_DOUBLE_EQ(t.column(col::kRh).as_double(r), c.relative_humidity);
    const auto mu = metrics_.mu_series(rack_id, DeviceKind::kServer,
                                       Granularity::kDaily, true);
    EXPECT_DOUBLE_EQ(t.column(col::kMuServer).as_double(r),
                     mu[static_cast<std::size_t>(day)]);
  }
}

TEST_F(ObservationsTest, WorkloadFilterRestrictsRacks) {
  ObservationOptions opt;
  opt.include_mu = false;
  const table::Table t =
      rack_day_table(metrics_, env_, simdc::WorkloadId::kW6, opt);
  if (t.num_rows() == 0) GTEST_SKIP() << "no W6 racks in this test layout";
  const auto& wl = t.column(col::kWorkload);
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_EQ(wl.cell_to_string(r), "W6");
  }
}

TEST_F(ObservationsTest, RejectsBadOptions) {
  ObservationOptions opt;
  opt.day_stride = 0;
  EXPECT_THROW(rack_day_table(metrics_, env_, opt), util::precondition_error);
  ObservationOptions weekly;
  weekly.mu_granularity = Granularity::kWeekly;
  EXPECT_THROW(rack_day_table(metrics_, env_, weekly), util::precondition_error);
}

TEST_F(ObservationsTest, MarginalRowsCoverExpectedGroups) {
  const Marginals marginals(metrics_, env_, /*day_stride=*/2);
  EXPECT_EQ(marginals.by_weekday().size(), 7U);
  EXPECT_EQ(marginals.by_month().size(), 12U);
  EXPECT_EQ(marginals.by_humidity().size(), 7U);
  EXPECT_EQ(marginals.by_workload().size(), 7U);
  EXPECT_EQ(marginals.by_sku().size(), 7U);
  // Regions present in the test fleet: 2 per DC.
  EXPECT_EQ(marginals.by_region().size(), 4U);
  // All row means are non-negative.
  for (const auto& row : marginals.by_age()) {
    EXPECT_GE(row.mean, 0.0);
  }
}

// Boundary regression (half-open [first_day, last_day) contract): a ticket
// opened at EXACTLY first_hour(last_day) belongs to day last_day and must
// stay outside the window, while one hour earlier is the window's last
// countable event. -1, the exact horizon, and an overshooting last_day all
// name the same full-horizon table, and open_day == num_days overhang
// tickets never leak into any λ cell.
TEST_F(ObservationsTest, WindowBoundariesAreHalfOpen) {
  const util::DayIndex last = 40;
  const util::DayIndex num_days = fleet_.spec().num_days;
  ASSERT_LT(last, num_days);

  simdc::Ticket inside;
  inside.open_hour = util::Calendar::first_hour(last) - 1;
  inside.close_hour = inside.open_hour + 4;
  inside.rack_id = 0;
  inside.fault = FaultType::kDiskFailure;
  simdc::Ticket boundary = inside;
  boundary.open_hour = util::Calendar::first_hour(last);
  boundary.close_hour = boundary.open_hour + 4;
  simdc::Ticket overhang = inside;
  overhang.open_hour = util::Calendar::first_hour(num_days);
  overhang.close_hour = overhang.open_hour + 4;

  FailureMetrics metrics(fleet_);
  const simdc::Ticket tickets[] = {inside, boundary, overhang};
  metrics.index(tickets);

  ObservationOptions opt;
  opt.include_mu = false;
  opt.skip_pre_commission = false;
  opt.last_day = last;
  const auto lambda_sum = [](const table::Table& t) {
    const auto& hw = t.column(col::kLambdaHw);
    double sum = 0;
    for (std::size_t i = 0; i < t.num_rows(); ++i) sum += hw.as_double(i);
    return sum;
  };

  // [0, last): only the ticket one hour before the boundary counts, and no
  // row carries a day at or past last_day.
  const table::Table clipped = rack_day_table(metrics, env_, opt);
  EXPECT_EQ(lambda_sum(clipped), 1.0);
  const auto& day_col = clipped.column(col::kDay);
  for (std::size_t i = 0; i < clipped.num_rows(); ++i)
    EXPECT_LT(day_col.as_double(i), static_cast<double>(last));

  // [0, last + 1): one day wider picks the boundary ticket up.
  opt.last_day = last + 1;
  EXPECT_EQ(lambda_sum(rack_day_table(metrics, env_, opt)), 2.0);

  // Full horizon three ways: -1, num_days exactly, and a clamp-worthy
  // overshoot. All agree, and none sees the open_day == num_days overhang.
  opt.last_day = -1;
  const table::Table full = rack_day_table(metrics, env_, opt);
  EXPECT_EQ(lambda_sum(full), 2.0);
  opt.last_day = num_days;
  EXPECT_EQ(rack_day_table(metrics, env_, opt).num_rows(), full.num_rows());
  opt.last_day = num_days + 50;
  EXPECT_EQ(rack_day_table(metrics, env_, opt).num_rows(), full.num_rows());

  // An empty window (first_day == last_day) is legal and yields no rows;
  // an inverted one violates the precondition.
  opt.first_day = last;
  opt.last_day = last;
  EXPECT_EQ(rack_day_table(metrics, env_, opt).num_rows(), 0U);
  opt.last_day = last - 1;
  EXPECT_THROW(rack_day_table(metrics, env_, opt), util::precondition_error);
}

TEST_F(ObservationsTest, ColumnarBuildMatchesRowBuilderReference) {
  const auto check = [&](const ObservationOptions& opt, const char* what,
                         std::optional<simdc::WorkloadId> workload = std::nullopt) {
    SCOPED_TRACE(what);
    const table::Table got = workload ? rack_day_table(metrics_, env_, *workload, opt)
                                      : rack_day_table(metrics_, env_, opt);
    expect_identical_tables(got, reference_rack_day_table(metrics_, env_, workload, opt));
    return got.num_rows();
  };

  EXPECT_GT(check({}, "default"), 0U);
  EXPECT_GT(check({.day_stride = 2}, "stride 2"), 0U);
  EXPECT_GT(check({.day_stride = 5}, "stride 5"), 0U);
  EXPECT_GT(check({.include_mu = true, .mu_granularity = Granularity::kDaily}, "daily mu"),
            0U);
  EXPECT_GT(check({.include_mu = true, .mu_granularity = Granularity::kHourly}, "hourly mu"),
            0U);
  EXPECT_GT(check({.include_mu = false}, "workload filter",
                  fleet_.racks().front().workload),
            0U);
  EXPECT_GT(check({.skip_pre_commission = false}, "keep pre-commission days"), 0U);
  // A window that starts after day 0 re-anchors the stride phase, and cuts
  // through the in-window commissions of the test fleet.
  EXPECT_GT(check({.day_stride = 3, .first_day = 11, .last_day = 47}, "late window"), 0U);
  EXPECT_EQ(check({.first_day = 20, .last_day = 20}, "empty window"), 0U);
}

TEST_F(ObservationsTest, NominalMarginalsMatchLabelScanReference) {
  const Marginals marginals(metrics_, env_, /*day_stride=*/1);
  const table::Table& t = marginals.observations();
  // The label-by-label scan by_nominal replaced: every row's label looked
  // up in the row order.
  const auto reference = [&](const char* key, std::vector<std::string> labels) {
    const table::Column& key_col = t.column(key);
    if (labels.empty()) {
      labels = key_col.dictionary();
      std::sort(labels.begin(), labels.end());
    }
    stats::CategoricalStats cat(labels);
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      const auto it = std::find(labels.begin(), labels.end(), key_col.cell_to_string(r));
      if (it != labels.end()) {
        cat.add(static_cast<std::size_t>(it - labels.begin()),
                t.column(col::kLambdaAll).as_double(r));
      }
    }
    return cat.rows();
  };
  const auto expect_same = [](const std::vector<stats::BinnedRow>& got,
                              const std::vector<stats::BinnedRow>& want) {
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].label, want[i].label);
      EXPECT_EQ(got[i].count, want[i].count);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].mean),
                std::bit_cast<std::uint64_t>(want[i].mean));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].stddev),
                std::bit_cast<std::uint64_t>(want[i].stddev));
    }
  };
  expect_same(marginals.by_region(), reference(col::kRegion, {}));
  expect_same(marginals.by_weekday(),
              reference(col::kWeekday, {"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}));
  expect_same(marginals.by_month(),
              reference(col::kMonth, {"Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul",
                                      "Aug", "Sep", "Oct", "Nov", "Dec"}));
  expect_same(marginals.by_workload(),
              reference(col::kWorkload, {"W1", "W2", "W3", "W4", "W5", "W6", "W7"}));
  expect_same(marginals.by_sku(),
              reference(col::kSku, {"S1", "S2", "S3", "S4", "S5", "S6", "S7"}));
}

TEST_F(ObservationsTest, TicketMixSumsTo100PerDc) {
  const auto rows = ticket_mix(fleet_, log_);
  double dc1 = 0.0;
  double dc2 = 0.0;
  for (const auto& row : rows) {
    dc1 += row.dc1_pct;
    dc2 += row.dc2_pct;
  }
  EXPECT_NEAR(dc1, 100.0, 1e-6);
  EXPECT_NEAR(dc2, 100.0, 1e-6);
}

}  // namespace
}  // namespace rainshine::core
