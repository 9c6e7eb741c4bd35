#include "rainshine/core/prediction.hpp"

#include <algorithm>

#include "rainshine/util/check.hpp"

namespace rainshine::core {

double ConfusionMatrix::accuracy() const noexcept {
  const std::size_t n = total();
  return n ? static_cast<double>(tp + tn) / static_cast<double>(n) : 0.0;
}

double ConfusionMatrix::precision() const noexcept {
  return tp + fp ? static_cast<double>(tp) / static_cast<double>(tp + fp) : 0.0;
}

double ConfusionMatrix::recall() const noexcept {
  return tp + fn ? static_cast<double>(tp) / static_cast<double>(tp + fn) : 0.0;
}

double ConfusionMatrix::f1() const noexcept {
  const double p = precision();
  const double r = recall();
  return p + r > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

namespace {

constexpr const char* kLabelFail = "fail";
constexpr const char* kLabelOk = "ok";

/// One candidate observation before table assembly.
struct Row {
  const simdc::Rack* rack;
  util::DayIndex day;
  double recent_hw;
  double recent_all;
  bool positive;
};

table::Table to_table(const std::vector<Row>& rows,
                      const simdc::EnvironmentModel& env,
                      const util::Calendar& cal) {
  table::TableBuilder b;
  b.add_nominal(col::kDc)
      .add_nominal(col::kSku)
      .add_nominal(col::kWorkload)
      .add_continuous(col::kPowerKw)
      .add_continuous(col::kAgeMonths)
      .add_ordinal(col::kCommissionYear)
      .add_continuous(col::kTempF)
      .add_continuous(col::kRh)
      .add_continuous("recent_hw")
      .add_continuous("recent_all")
      .add_nominal("label");
  for (const Row& row : rows) {
    const simdc::Conditions c = env.daily_mean(*row.rack, row.day);
    b.begin_row();
    b.set(col::kDc, simdc::to_string(row.rack->dc));
    b.set(col::kSku, simdc::to_string(row.rack->sku));
    b.set(col::kWorkload, simdc::to_string(row.rack->workload));
    b.set(col::kPowerKw, row.rack->rated_power_kw);
    b.set(col::kAgeMonths, row.rack->age_months(row.day));
    b.set(col::kCommissionYear, cal.year_offset(row.rack->commission_day));
    b.set(col::kTempF, c.temperature_f);
    b.set(col::kRh, c.relative_humidity);
    b.set("recent_hw", row.recent_hw);
    b.set("recent_all", row.recent_all);
    b.set("label", std::string_view(row.positive ? kLabelFail : kLabelOk));
  }
  return b.finish();
}

ConfusionMatrix evaluate(const cart::Tree& tree, const cart::Dataset& data,
                         double fail_code) {
  ConfusionMatrix m;
  for (std::size_t r = 0; r < data.num_rows(); ++r) {
    const bool predicted = tree.predict(data, r) == fail_code;
    const bool actual = data.y(r) == fail_code;
    if (predicted && actual) ++m.tp;
    else if (predicted && !actual) ++m.fp;
    else if (!predicted && actual) ++m.fn;
    else ++m.tn;
  }
  return m;
}

}  // namespace

PredictionStudy predict_rack_failures(const FailureMetrics& metrics,
                                      const simdc::EnvironmentModel& env,
                                      const PredictionOptions& options) {
  const Fleet& fleet = metrics.fleet();
  util::require(options.horizon_days >= 1, "horizon must be at least one day");
  util::require(options.history_days >= 1, "history must be at least one day");
  util::require(options.day_stride >= 1, "day_stride must be >= 1");
  util::require(options.train_fraction > 0.0 && options.train_fraction < 1.0,
                "train_fraction must be in (0,1)");
  util::require(options.balance_ratio >= 1.0,
                "balance_ratio below 1 would undersample the minority");
  const util::DayIndex first_day = options.history_days;
  const util::DayIndex last_day = fleet.spec().num_days - options.horizon_days;
  util::require(last_day > first_day,
                "window too short for the requested history + horizon");

  // Chronological split day.
  const auto split_day = static_cast<util::DayIndex>(
      first_day + options.train_fraction * (last_day - first_day));

  std::vector<Row> train_rows;
  std::vector<Row> test_rows;
  for (const simdc::Rack& rack : fleet.racks()) {
    for (util::DayIndex day = first_day; day < last_day; day += options.day_stride) {
      if (day < rack.commission_day) continue;
      Row row;
      row.rack = &rack;
      row.day = day;
      row.recent_hw = 0.0;
      row.recent_all = 0.0;
      for (util::DayIndex d = day - options.history_days; d < day; ++d) {
        if (d < 0) continue;
        row.recent_hw += metrics.hardware_count(rack.id, d);
        row.recent_all += metrics.total_count(rack.id, d);
      }
      row.positive = false;
      for (util::DayIndex d = day; d < day + options.horizon_days; ++d) {
        if (metrics.hardware_count(rack.id, d) > 0) {
          row.positive = true;
          break;
        }
      }
      // Embargo: a train row's label window [day, day + horizon) must end
      // by the split, so rows whose window straddles it join neither side.
      if (day + options.horizon_days <= split_day) {
        train_rows.push_back(row);
      } else if (day >= split_day) {
        test_rows.push_back(row);
      }
    }
  }
  util::require(!train_rows.empty() && !test_rows.empty(),
                "empty train or test split");

  // Undersample the training majority class (§V's imbalance note).
  std::vector<Row> positives;
  std::vector<Row> negatives;
  for (const Row& r : train_rows) (r.positive ? positives : negatives).push_back(r);
  util::require(!positives.empty() && !negatives.empty(),
                "training split is single-class; widen the horizon or window");
  std::vector<Row>& majority = positives.size() > negatives.size() ? positives
                                                                   : negatives;
  const std::vector<Row>& minority =
      positives.size() > negatives.size() ? negatives : positives;
  const auto keep = static_cast<std::size_t>(
      options.balance_ratio * static_cast<double>(minority.size()));
  if (majority.size() > keep) {
    util::Rng rng = util::Rng(options.seed).split("undersample");
    for (std::size_t i = majority.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(rng.below(i));
      std::swap(majority[i - 1], majority[j]);
    }
    majority.resize(keep);
  }
  std::vector<Row> balanced;
  balanced.insert(balanced.end(), positives.begin(), positives.end());
  balanced.insert(balanced.end(), negatives.begin(), negatives.end());

  const util::Calendar& cal = fleet.calendar();
  const table::Table train_table = to_table(balanced, env, cal);
  const table::Table test_table = to_table(test_rows, env, cal);

  const std::vector<std::string> features = {
      col::kDc,        col::kSku,  col::kWorkload,  col::kPowerKw,
      col::kAgeMonths, col::kCommissionYear, col::kTempF, col::kRh,
      "recent_hw",     "recent_all"};
  const cart::Dataset train_data(train_table, "label", features,
                                 cart::Task::kClassification);
  cart::Tree tree = cart::grow(train_data, options.tree_config);

  const double fail_code = [&] {
    const auto& labels = train_data.class_labels();
    for (std::size_t c = 0; c < labels.size(); ++c) {
      if (labels[c] == kLabelFail) return static_cast<double>(c);
    }
    throw util::invariant_error("fail label missing from training data");
  }();

  PredictionStudy study{std::move(tree), {}, {}, 0.0, balanced.size(),
                        test_rows.size(), {}};
  study.train = evaluate(study.tree, train_data, fail_code);
  const cart::Dataset test_data(test_table, study.tree.features());
  // Re-evaluate on the test split: labels come from the test table directly.
  {
    const table::Column& label_col = test_table.column("label");
    ConfusionMatrix m;
    std::size_t positives_seen = 0;
    for (std::size_t r = 0; r < test_data.num_rows(); ++r) {
      const bool predicted = study.tree.predict(test_data, r) == fail_code;
      const bool actual = label_col.cell_to_string(r) == kLabelFail;
      positives_seen += actual ? 1 : 0;
      if (predicted && actual) ++m.tp;
      else if (predicted && !actual) ++m.fp;
      else if (!predicted && actual) ++m.fn;
      else ++m.tn;
    }
    study.test = m;
    study.test_positive_rate = test_data.num_rows()
                                   ? static_cast<double>(positives_seen) /
                                         static_cast<double>(test_data.num_rows())
                                   : 0.0;
  }
  study.factors = study.tree.variable_importance();
  return study;
}

}  // namespace rainshine::core
