#include "rainshine/cart/partial.hpp"

#include <algorithm>
#include <cmath>

#include "rainshine/stats/descriptive.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"

namespace rainshine::cart {

std::vector<std::size_t> pd_background_rows(std::size_t n, std::size_t max_rows) {
  util::require(n > 0, "pd_background_rows: empty background");
  util::require(max_rows > 0, "pd_background_rows: max_rows must be positive");
  // Ceiling division: a floor stride undershot badly (n=1999, max=1000 gave
  // stride 1 and thus all 1999 rows); the cap below guards the remainder.
  const std::size_t stride = (n + max_rows - 1) / max_rows;
  std::vector<std::size_t> rows;
  rows.reserve(std::min(n, max_rows));
  for (std::size_t r = 0; r < n && rows.size() < max_rows; r += stride) {
    rows.push_back(r);
  }
  return rows;
}

std::vector<PdPoint> partial_dependence(const Tree& tree, const Dataset& data,
                                        std::string_view feature,
                                        std::size_t grid_size,
                                        std::size_t max_background_rows) {
  const auto f_opt = data.feature_index(feature);
  util::require(f_opt.has_value(),
                "partial_dependence: unknown feature " + std::string(feature));
  const std::size_t f = *f_opt;
  util::require(grid_size >= 2, "partial_dependence: grid_size must be >= 2");

  const std::size_t n = data.num_rows();
  util::require(n > 0, "partial_dependence: empty background");
  const std::vector<std::size_t> rows = pd_background_rows(n, max_background_rows);

  // Build the grid.
  std::vector<PdPoint> points;
  const FeatureInfo& info = data.info(f);
  if (info.categorical) {
    for (std::size_t c = 0; c < info.cardinality(); ++c) {
      points.push_back({static_cast<double>(c), info.labels[c], 0.0});
    }
  } else {
    std::vector<double> observed;
    observed.reserve(rows.size());
    for (const std::size_t r : rows) {
      if (!data.x_missing(r, f)) observed.push_back(data.x(r, f));
    }
    util::require(!observed.empty(), "partial_dependence: feature entirely missing");
    std::sort(observed.begin(), observed.end());
    for (std::size_t i = 0; i < grid_size; ++i) {
      const double q = static_cast<double>(i) / static_cast<double>(grid_size - 1);
      const double x = stats::quantile_sorted(observed, q);
      if (!points.empty() && points.back().x == x) continue;  // dedupe plateaus
      points.push_back({x, "", 0.0});
    }
  }

  // Average predictions with the feature overridden at each grid point.
  // Points are independent pure reads; each point's row sum stays serial
  // and in row order, so the curve is bit-identical at any thread count.
  const auto& nodes = tree.nodes();
  util::parallel_for(points.size(), 1, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      PdPoint& p = points[i];
      double sum = 0.0;
      for (const std::size_t r : rows) {
        sum += nodes[tree.leaf_of_with_override(data, r, f, p.x)].prediction;
      }
      p.yhat = sum / static_cast<double>(rows.size());
    }
  });
  return points;
}

namespace {

std::vector<EffectLevel> group_by_levels(const table::Column& decision,
                                         std::span<const double> values) {
  const auto& labels = decision.dictionary();
  std::vector<stats::Accumulator> accs(labels.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    if (decision.is_missing(r)) continue;
    accs[static_cast<std::size_t>(decision.nominal_codes()[r])].add(values[r]);
  }
  std::vector<EffectLevel> out;
  for (std::size_t c = 0; c < labels.size(); ++c) {
    if (accs[c].count() == 0) continue;
    out.push_back({labels[c], accs[c].count(), accs[c].mean(),
                   accs[c].sample_stddev()});
  }
  return out;
}

}  // namespace

std::vector<EffectLevel> residualized_effect(const table::Table& tbl,
                                             const std::string& response,
                                             const std::string& decision,
                                             std::vector<std::string> other_features,
                                             const Config& growth,
                                             EffectScale scale) {
  util::require(std::find(other_features.begin(), other_features.end(), decision) ==
                    other_features.end(),
                "decision variable must not be among the nuisance features");
  const table::Column& dec_col = tbl.column(decision);
  util::require(dec_col.type() == table::ColumnType::kNominal,
                "residualized_effect requires a nominal decision variable");

  Dataset nuisance(tbl, response, other_features, Task::kRegression);
  stats::Accumulator grand;
  for (const double y : nuisance.responses()) grand.add(y);
  const std::size_t n = nuisance.num_rows();

  if (scale == EffectScale::kAdditive) {
    const Tree tree = grow(nuisance, growth);
    const std::vector<double> fitted = tree.predict(nuisance);
    std::vector<double> normalized(n);
    for (std::size_t r = 0; r < n; ++r) {
      normalized[r] = grand.mean() + (nuisance.y(r) - fitted[r]);
    }
    return group_by_levels(dec_col, normalized);
  }

  // Multiplicative scale with backfitting. When the decision variable is
  // correlated with nuisance factors (e.g. one workload running exclusively
  // on one SKU), a single nuisance fit absorbs part of the decision effect
  // into its leaves and the level ratios come out compressed. Iterating —
  // divide the current level-effect estimate out of the response, refit the
  // nuisance tree on the deflated response, re-estimate the level effects
  // from the residual ratios — converges to a clean multiplicative
  // decomposition as long as each level is observed under more than one
  // nuisance configuration.
  constexpr int kBackfitIterations = 3;
  // Only the response changes between iterations, so every backfit tree
  // reads one presorted order of the nuisance features, and each backfit
  // swaps the deflated response into the one nuisance Dataset.
  const SharedOrder order(nuisance);
  const std::vector<double> observed(nuisance.responses().begin(),
                                     nuisance.responses().end());
  const auto codes = dec_col.nominal_codes();
  std::vector<double> effect(dec_col.cardinality(), 1.0);
  std::vector<double> ratios(n, 1.0);
  std::vector<double> deflated(n);

  for (int iter = 0; iter < kBackfitIterations; ++iter) {
    for (std::size_t r = 0; r < n; ++r) {
      const double e =
          codes[r] == table::kMissingCode
              ? 1.0
              : effect[static_cast<std::size_t>(codes[r])];
      deflated[r] = observed[r] / e;
    }
    nuisance.set_responses(deflated);
    const Tree tree = grow(nuisance, growth, {}, order);
    const std::vector<double> fitted = tree.predict(nuisance);

    stats::Accumulator deflated_mean;
    for (const double y : deflated) deflated_mean.add(y);
    const double floor = std::max(1e-12, 0.05 * std::abs(deflated_mean.mean()));
    std::vector<stats::Accumulator> per_level(effect.size());
    for (std::size_t r = 0; r < n; ++r) {
      ratios[r] = deflated[r] / std::max(std::abs(fitted[r]), floor);
      if (codes[r] != table::kMissingCode) {
        per_level[static_cast<std::size_t>(codes[r])].add(ratios[r]);
      }
    }
    for (std::size_t c = 0; c < effect.size(); ++c) {
      if (per_level[c].count() > 0) effect[c] *= per_level[c].mean();
    }
  }

  // Normalize the effects so their population-weighted mean is 1, keeping
  // the reported level means on the grand-mean scale of the raw metric.
  stats::Accumulator pop_effect;
  for (std::size_t r = 0; r < n; ++r) {
    if (codes[r] != table::kMissingCode) {
      pop_effect.add(effect[static_cast<std::size_t>(codes[r])]);
    }
  }
  const double norm = pop_effect.mean() > 0.0 ? pop_effect.mean() : 1.0;

  // Per-row normalized values: the level effect, carried on the grand-mean
  // scale, with the final iteration's residual ratio spread around it.
  std::vector<stats::Accumulator> ratio_mean(effect.size());
  for (std::size_t r = 0; r < n; ++r) {
    if (codes[r] != table::kMissingCode) {
      ratio_mean[static_cast<std::size_t>(codes[r])].add(ratios[r]);
    }
  }
  std::vector<double> normalized(n);
  for (std::size_t r = 0; r < n; ++r) {
    if (codes[r] == table::kMissingCode) {
      normalized[r] = grand.mean();
      continue;
    }
    const auto c = static_cast<std::size_t>(codes[r]);
    const double centered =
        ratio_mean[c].mean() > 0.0 ? ratios[r] / ratio_mean[c].mean() : 1.0;
    normalized[r] = grand.mean() * (effect[c] / norm) * centered;
  }
  return group_by_levels(dec_col, normalized);
}

std::vector<EffectLevel> raw_effect(const table::Table& tbl,
                                    const std::string& response,
                                    const std::string& decision) {
  const table::Column& dec_col = tbl.column(decision);
  util::require(dec_col.type() == table::ColumnType::kNominal,
                "raw_effect requires a nominal decision variable");
  const table::Column& y_col = tbl.column(response);
  std::vector<double> values(tbl.num_rows());
  for (std::size_t r = 0; r < values.size(); ++r) values[r] = y_col.as_double(r);
  return group_by_levels(dec_col, values);
}

}  // namespace rainshine::cart
