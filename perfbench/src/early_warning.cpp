// early_warning: the predict pipeline on the test fleet over 913 days.
//
//   job:  build_features (streamed simdc + SeriesStore) -> temporal_split ->
//         fit_risk_model (48 trees) -> score_rows -> evaluate
//   then: bulk-score every feature row through an in-process
//         PredictionService in 2048-row requests.
//
// Chosen because parallel cart fitting and streamed simulation dominate it
// and rack_day_table is never called, and because its serving requests fill
// batches by size: a batching change aimed at small requests must leave it
// unmoved.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>

#include "common.hpp"
#include "workloads.hpp"
#include "rainshine/obs/trace.hpp"
#include "rainshine/predict/eval.hpp"
#include "rainshine/predict/model.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"

namespace perfbench {

namespace {

using namespace rainshine;

constexpr int kDays = 913;
constexpr int kSetups = 5;
constexpr int kMinJobs = 3;
constexpr std::size_t kTrees = 48;
constexpr std::size_t kBulkRows = 2048;

struct World {
  std::unique_ptr<simdc::Fleet> fleet;
  std::unique_ptr<simdc::EnvironmentModel> env;
  std::unique_ptr<simdc::HazardModel> hazard;
};

World set_up(std::uint64_t seed) {
  // The test fleet's own topology; --seed drives weather and failures.
  simdc::FleetSpec spec = simdc::FleetSpec::test_default();
  spec.num_days = kDays;
  World w;
  w.fleet = std::make_unique<simdc::Fleet>(spec);
  w.env = std::make_unique<simdc::EnvironmentModel>(*w.fleet, seed);
  w.hazard = std::make_unique<simdc::HazardModel>(*w.fleet, *w.env);
  return w;
}

predict::FeatureConfig feature_config() {
  predict::FeatureConfig c;
  c.warmup_days = 90;
  c.snapshot_stride = 5;
  c.horizon_days = 30;
  return c;
}

struct Stages {
  double features = 0, fit = 0, evaluate = 0;
};

struct Job {
  predict::FeatureSet set;
  std::optional<predict::TrainedModel> model;
  predict::EvalReport report;
  std::vector<double> scores;
  std::string digest;
};

Job run_job(const World& w, std::uint64_t seed, Stages& st) {
  Job job;
  auto t = Clock::now();
  const auto lap = [&t] {
    const double s = seconds_since(t);
    t = Clock::now();
    return s;
  };
  const predict::FeatureConfig config = feature_config();
  job.set = predict::build_features(*w.fleet, *w.env, *w.hazard, config, {.seed = seed});
  st.features = lap();

  const util::DayIndex split_day = kDays - std::max(3 * config.horizon_days, 100);
  const auto split = predict::temporal_split(job.set, split_day);
  if (split.train.empty() || split.test.empty()) {
    throw std::runtime_error("degenerate temporal split");
  }
  job.model.emplace(predict::fit_risk_model(job.set, split.train,
                                            {.num_trees = kTrees, .seed = 11}));
  st.fit = lap();

  job.scores = predict::score_rows(*job.model, job.set, split.test);
  const auto naive = predict::baseline_scores(job.set, split.test);
  job.report = predict::evaluate(job.set, split.test, job.scores, naive);
  st.evaluate = lap();

  Digest d;
  d.add(static_cast<std::uint64_t>(job.set.meta.size()));
  d.add(static_cast<std::uint64_t>(split.train.size()));
  for (const double s : job.scores) d.add(s);
  for (const auto* ranked : {&job.report.model, &job.report.baseline}) {
    for (const auto& a : ranked->at) {
      d.add(static_cast<std::uint64_t>(a.hits));
      d.add(a.precision);
      d.add(a.median_lead_days);
    }
  }
  d.add(job.model->forest.oob_error());
  job.digest = d.hex();
  return job;
}

/// Bulk scoring through the serving layer, with per-layer replays.
struct Bulk {
  bool equal = false;
  double seconds = 0;        ///< one pass over every row
  double score_us = 0;       ///< mean PredictionService::score per request
  double dataset_us = 0;     ///< mean make_scoring_dataset per request
  double predict_us = 0;     ///< mean Forest::predict per request
  double batch_rows_mean = 0;
  double deadline_flush_frac = 0;
};

Bulk bulk_score(const Job& job, bool trace) {
  Bulk b;
  const table::Table& table = job.set.table;
  std::vector<table::Table> chunks;
  for (std::size_t lo = 0; lo < table.num_rows(); lo += kBulkRows) {
    std::vector<std::size_t> idx(std::min(kBulkRows, table.num_rows() - lo));
    std::iota(idx.begin(), idx.end(), lo);
    chunks.push_back(table.take(idx));
  }

  std::vector<std::size_t> all(table.num_rows());
  std::iota(all.begin(), all.end(), std::size_t{0});
  const std::vector<double> reference = predict::score_rows(*job.model, job.set, all);

  serve::ModelArtifact artifact;
  artifact.meta.name = "early-warning";
  artifact.meta.task = job.model->forest.task();
  artifact.meta.schema = job.model->infos;
  artifact.forest = std::make_shared<const cart::Forest>(job.model->forest);
  serve::PredictionService service(artifact);

  const RegistryDelta delta;
  std::vector<double> got;
  got.reserve(all.size());
  const auto t = Clock::now();
  for (const auto& chunk : chunks) {
    const auto scores = service.score(chunk);
    got.insert(got.end(), scores.begin(), scores.end());
  }
  b.seconds = seconds_since(t);
  b.equal = got.size() == reference.size() &&
            std::memcmp(got.data(), reference.data(), got.size() * sizeof(double)) == 0;
  const double batches = delta.counter("serve.batches_flushed");
  b.batch_rows_mean = delta.histogram_sum("serve.batch_rows") / std::max(1.0, batches);
  b.deadline_flush_frac = delta.counter("serve.deadline_flushes") / std::max(1.0, batches);
  b.score_us = b.seconds * 1e6 / static_cast<double>(chunks.size());
  if (!trace) return b;

  const auto t_ds = Clock::now();
  std::vector<cart::Dataset> datasets;
  for (const auto& chunk : chunks) {
    datasets.push_back(serve::make_scoring_dataset(chunk, artifact.meta.schema));
  }
  b.dataset_us = seconds_since(t_ds) * 1e6 / static_cast<double>(chunks.size());
  const auto t_pr = Clock::now();
  for (const auto& ds : datasets) (void)artifact.forest->predict(ds);
  b.predict_us = seconds_since(t_pr) * 1e6 / static_cast<double>(chunks.size());
  return b;
}

}  // namespace

int run_early_warning(const Args& args) {
  // Building the world takes microseconds, too little to time steadily, so
  // set-up also runs one warm-up job: it starts the thread pool and faults
  // in the working set, lazy costs every later job would otherwise share
  // unevenly. Its digest must match the timed jobs'.
  std::vector<double> setups;
  World world;
  for (int i = 0; i < kSetups; ++i) {
    const auto t = Clock::now();
    world = set_up(args.seed);
    setups.push_back(seconds_since(t));
  }
  Stages warm_stages;
  const auto t_warm = Clock::now();
  const std::string warm_digest = run_job(world, args.seed, warm_stages).digest;
  const double setup_s = median(setups) + seconds_since(t_warm);

  std::vector<double> plain, traced;
  std::vector<Stages> stage_runs;
  std::string digest = warm_digest;
  std::uint64_t attempted = 1, failed = 0;
  double cart_trees = 0, split_us = 0, presort_us = 0, prune_us = 0;
  Job last;
  const auto start = Clock::now();
  for (int n = 0;; ++n) {
    const bool trace_this = args.trace && n % 2 == 1;
    if (trace_this) obs::tracer().enable();
    const RegistryDelta delta;
    Stages st;
    const auto t = Clock::now();
    last = run_job(world, args.seed, st);
    const double s = seconds_since(t);
    if (trace_this) {
      (void)obs::tracer().drain();
      obs::tracer().disable();
      traced.push_back(s);
      stage_runs.push_back(st);
      cart_trees = delta.counter("cart.trees_grown");
      split_us = delta.histogram_sum("cart.split_search_us");
      presort_us = delta.histogram_sum("cart.presort_us");
      prune_us = delta.histogram_sum("cart.prune_us");
    } else {
      plain.push_back(s);
    }
    std::fprintf(stderr, "early_warning job %llu: %.3f s%s\n",
                 static_cast<unsigned long long>(attempted), s, trace_this ? " (traced)" : "");
    ++attempted;
    if (last.digest != digest) ++failed;
    const int need = args.trace ? 2 * kMinJobs - 2 : kMinJobs;
    if (n + 1 >= need && seconds_since(start) + s > args.seconds) break;
  }

  // Quality gates. On every seed the model must rank better than chance
  // (precision at the 5% alert budget above the base rate). Beating the
  // trailing-count baseline on precision and on median lead time at that
  // budget holds on the reference seeds, where the runner requires it, but
  // not on every seed, so here it is only reported.
  const auto& rep = last.report;
  std::string note;
  bool correct = failed == 0;
  if (!(rep.model_primary.precision > rep.base_rate)) {
    correct = false;
    note = "model precision at the 5% budget is not above the base rate";
  }
  const bool beats_baseline =
      rep.model_primary.precision > rep.baseline_primary.precision &&
      rep.model_primary.median_lead_days > rep.baseline_primary.median_lead_days;

  // Bulk scoring: several passes, timed as a median in the traced run.
  std::vector<Bulk> passes;
  const auto t_bulk = Clock::now();
  while (passes.size() < (args.trace ? 5u : 1u) ||
         (args.trace && seconds_since(t_bulk) < 1.0)) {
    passes.push_back(bulk_score(last, args.trace));
    ++attempted;
    if (!passes.back().equal) {
      ++failed;
      correct = false;
      note = "bulk PredictionService scores differ from predict::score_rows";
    }
  }

  Metrics m;
  if (!args.trace) {
    m.set("setup_s", setup_s, "s");
    m.set("job_s", median(plain), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const auto med_stage = [&](double Stages::*field) {
      std::vector<double> v;
      for (const auto& s : stage_runs) v.push_back(s.*field);
      return median(v);
    };
    const auto med_bulk = [&](double Bulk::*field) {
      std::vector<double> v;
      for (const auto& b : passes) v.push_back(b.*field);
      return median(v);
    };
    const double rows = static_cast<double>(last.set.meta.size());
    const double score_us = med_bulk(&Bulk::score_us);
    const double dataset_us = med_bulk(&Bulk::dataset_us);
    const double predict_us = med_bulk(&Bulk::predict_us);
    m.set("predict.build_features_s", med_stage(&Stages::features), "s");
    m.set("predict.fit_s", med_stage(&Stages::fit), "s");
    m.set("predict.evaluate_s", med_stage(&Stages::evaluate), "s");
    m.set("predict.rows", rows, "count");
    m.set("predict.precision_at_5pct", rep.model_primary.precision, "ratio");
    m.set("predict.baseline_precision_at_5pct", rep.baseline_primary.precision, "ratio");
    m.set("predict.median_lead_days", rep.model_primary.median_lead_days, "days");
    m.set("predict.baseline_median_lead_days", rep.baseline_primary.median_lead_days, "days");
    m.set("cart.trees_grown", cart_trees, "count");
    m.set("cart.split_search_us", split_us, "us");
    m.set("cart.presort_us", presort_us, "us");
    m.set("cart.prune_us", prune_us, "us");
    m.set("serve.score_bulk_s", med_bulk(&Bulk::seconds), "s");
    m.set("serve.bulk_rows_per_s", rows / med_bulk(&Bulk::seconds), "1/s");
    m.set("serve.score_us", score_us, "us");
    m.set("serve.make_scoring_dataset_us", dataset_us, "us");
    m.set("cart.predict_us", predict_us, "us");
    m.set("serve.wait_us", score_us - dataset_us - predict_us, "us");
    m.set("serve.batch_rows_mean", med_bulk(&Bulk::batch_rows_mean), "rows");
    m.set("serve.deadline_flush_frac", med_bulk(&Bulk::deadline_flush_frac), "ratio");
    m.set("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0, "ratio");
  }
  if (!beats_baseline) {
    note += std::string(note.empty() ? "" : "; ") + "model does not beat the baseline";
  }
  print_result(correct, attempted, failed, digest, m, note, beats_baseline);
  return 0;
}

}  // namespace perfbench
