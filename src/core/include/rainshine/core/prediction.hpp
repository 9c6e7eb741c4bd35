// Failure prediction — the paper's stated future work (§VII: "prediction of
// datacenter failures for pro-active maintenance"), built from the same
// pieces as the descriptive studies.
//
// Task: given a rack's factors and recent history on day d, predict whether
// it will open any hardware RMA within the next `horizon_days`. §V notes
// that CART alone is not enough here because failed observations are a
// small minority, so the pipeline includes the pre-processing the paper
// points to: majority-class undersampling to a configurable balance before
// fitting, with evaluation on an untouched chronological hold-out.
#pragma once

#include "rainshine/cart/tree.hpp"
#include "rainshine/core/observations.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::core {

struct PredictionOptions {
  /// Label horizon: positive iff >= 1 hardware ticket in [d, d + horizon).
  util::DayIndex horizon_days = 7;
  /// History window feeding the recent-failure features.
  util::DayIndex history_days = 7;
  /// Sample every `day_stride`-th day per rack as an observation.
  std::int32_t day_stride = 7;
  /// Chronological split: the first fraction of days trains, the rest tests
  /// (time-ordered, so the model never peeks at the future). Rows whose
  /// label window straddles the split day are embargoed: they join neither
  /// side, so no train label reads a ticket from the test period.
  double train_fraction = 0.7;
  /// Majority:minority ratio after undersampling the training split
  /// (1.0 = fully balanced). The test split is never rebalanced.
  double balance_ratio = 1.5;
  cart::Config tree_config{.min_samples_split = 60, .min_samples_leaf = 25,
                           .max_depth = 8, .cp = 0.002};
  std::uint64_t seed = 7;
};

/// Binary confusion counts with the usual derived scores.
struct ConfusionMatrix {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t tn = 0;
  std::size_t fn = 0;

  [[nodiscard]] std::size_t total() const noexcept { return tp + fp + tn + fn; }
  [[nodiscard]] double accuracy() const noexcept;
  [[nodiscard]] double precision() const noexcept;
  [[nodiscard]] double recall() const noexcept;
  [[nodiscard]] double f1() const noexcept;
};

struct PredictionStudy {
  cart::Tree tree;
  ConfusionMatrix train;
  ConfusionMatrix test;
  double test_positive_rate = 0.0;  ///< prevalence in the untouched test split
  std::size_t train_rows = 0;       ///< after rebalancing
  std::size_t test_rows = 0;
  std::vector<cart::Importance> factors;
};

/// Builds the labeled dataset, rebalances the training split, fits a
/// classification tree and evaluates both splits. Throws if the window is
/// too short for the horizon/history or a split ends up single-class.
[[nodiscard]] PredictionStudy predict_rack_failures(
    const FailureMetrics& metrics, const simdc::EnvironmentModel& env,
    const PredictionOptions& options = {});

}  // namespace rainshine::core
