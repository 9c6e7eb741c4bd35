// PredictionService: the batched path must be byte-identical to serial
// Forest::predict at any thread-pool width (the acceptance criterion for the
// serving tier), with a fixed hold or with idle flush; idle flush must not
// hold small requests; backpressure must bound the queue without
// deadlocking; and the counters must add up.
#include "rainshine/serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <future>
#include <string_view>
#include <thread>

#include "rainshine/obs/metrics.hpp"
#include "rainshine/util/check.hpp"
#include "rainshine/util/parallel.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::serve {
namespace {

using table::Column;
using table::Table;

Table make_rows(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> x(n);
  std::vector<std::string> dc(n);
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 3.0);
    dc[i] = rng.bernoulli(0.5) ? "DC1" : "DC2";
    y[i] = 2.0 * x[i] + (dc[i] == "DC1" ? 1.0 : -1.0) + rng.uniform(-0.1, 0.1);
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("dc", Column::nominal(dc));
  t.add_column("y", Column::continuous(std::move(y)));
  return t;
}

ModelArtifact regression_artifact(std::uint64_t seed = 31) {
  const Table t = make_rows(300, seed);
  const cart::Dataset data(t, "y", {"x", "dc"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 6;
  cfg.seed = seed;
  cart::Forest forest = cart::grow_forest(data, cfg);
  ModelMetadata meta;
  meta.name = "svc";
  meta.version = 1;
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  meta.oob_error = forest.oob_error();
  return ModelArtifact{std::move(meta),
                       std::make_shared<const cart::Forest>(std::move(forest))};
}

/// Drops the response column so submissions look like real scoring traffic.
Table features_only(const Table& t) {
  Table out;
  out.add_column("x", t.column("x"));
  out.add_column("dc", t.column("dc"));
  return out;
}

TEST(PredictionService, BatchedOutputByteIdenticalToSerialPredict) {
  const ModelArtifact art = regression_artifact();
  // Many small ragged requests, deliberately interleaving with batching
  // boundaries (max_batch_rows = 32 while requests are 1..23 rows).
  std::vector<Table> requests;
  for (std::size_t i = 0; i < 24; ++i) {
    requests.push_back(features_only(make_rows(1 + (i * 7) % 23, 100 + i)));
  }

  // Serial reference: one Forest::predict per request, single-threaded.
  util::set_num_threads(1);
  std::vector<std::vector<double>> expected;
  for (const Table& rows : requests) {
    expected.push_back(
        art.forest->predict(make_scoring_dataset(rows, art.meta.schema)));
  }

  // A 500us hold and idle flush (hold 0) batch the same requests differently;
  // neither may change a single output bit.
  for (const auto delay :
       {std::chrono::microseconds(500), std::chrono::microseconds(0)}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      util::set_num_threads(threads);
      ServiceConfig cfg;
      cfg.max_batch_rows = 32;
      cfg.max_batch_delay = delay;
      PredictionService service(art, cfg);
      std::vector<std::future<std::vector<double>>> futures;
      futures.reserve(requests.size());
      for (const Table& rows : requests) futures.push_back(service.submit(rows));
      for (std::size_t i = 0; i < futures.size(); ++i) {
        const std::vector<double> got = futures[i].get();
        ASSERT_EQ(got.size(), expected[i].size()) << "request " << i;
        for (std::size_t r = 0; r < got.size(); ++r) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r]),
                    std::bit_cast<std::uint64_t>(expected[i][r]))
              << "request " << i << " row " << r << " at " << threads
              << " threads, hold " << delay.count() << "us";
        }
      }
    }
  }
  util::clear_thread_override();
}

TEST(PredictionService, ScoreIsSynchronousSubmit) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);
  const Table rows = features_only(make_rows(17, 7));
  const std::vector<double> via_score = service.score(rows);
  const std::vector<double> direct =
      art.forest->predict(make_scoring_dataset(rows, art.meta.schema));
  EXPECT_EQ(via_score, direct);
}

TEST(PredictionService, IdleFlushScoresSmallRequestsWithoutHolding) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);  // default config: idle flush
  const Table one = features_only(make_rows(1, 12));
  constexpr std::size_t kCalls = 200;
  const obs::MetricsSnapshot before = obs::registry().snapshot();
  std::vector<double> call_us;
  call_us.reserve(kCalls);
  for (std::size_t i = 0; i < kCalls; ++i) {
    const auto start = std::chrono::steady_clock::now();
    ASSERT_EQ(service.score(one).size(), 1u);
    call_us.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  // Sequential callers never overlap, so each call is its own idle flush.
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.deadline_flushes, 0u);
  EXPECT_EQ(s.idle_flushes, kCalls);
  EXPECT_EQ(s.batches_flushed, kCalls);
  // The registry mirrors the flush cause, and every scored request lands in
  // the queue-wait and predict histograms.
  const obs::MetricsSnapshot after = obs::registry().snapshot();
  const auto delta_count = [&](std::string_view name) {
    return after.histogram(name).count - before.histogram(name).count;
  };
  EXPECT_EQ(after.counter("serve.idle_flushes") -
                before.counter("serve.idle_flushes"),
            kCalls);
  EXPECT_EQ(delta_count("serve.queue_wait_us"), kCalls);
  EXPECT_EQ(delta_count("serve.predict_us"), kCalls);
  // A fixed 2ms hold would put every call at >= 2000us; idle flush must keep
  // the median well under half of that.
  std::nth_element(call_us.begin(), call_us.begin() + kCalls / 2, call_us.end());
  EXPECT_LT(call_us[kCalls / 2], 1000.0);
}

TEST(PredictionService, BackpressureRejectsWhenQueueFullThenRecovers) {
  const ModelArtifact art = regression_artifact();
  ServiceConfig cfg;
  cfg.max_batch_rows = 8;  // 5 pending rows never trip a full flush
  cfg.max_queue_rows = 8;  // tiny admission bound
  cfg.max_batch_delay = std::chrono::minutes(10);  // never deadline-flush
  PredictionService service(art, cfg);

  const Table five = features_only(make_rows(5, 50));
  auto first = service.try_submit(five);
  ASSERT_TRUE(first.has_value());  // 5 pending
  auto second = service.try_submit(five);
  EXPECT_FALSE(second.has_value());  // 5 + 5 > 8: rejected
  EXPECT_EQ(service.stats().requests_rejected, 1u);
  EXPECT_EQ(service.stats().queue_depth_rows, 5u);

  // flush() pushes the stuck batch through; admission reopens.
  service.flush();
  EXPECT_EQ(first->get().size(), 5u);
  auto third = service.try_submit(five);
  ASSERT_TRUE(third.has_value());
  service.flush();
  EXPECT_EQ(third->get().size(), 5u);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests_admitted, 2u);
  EXPECT_EQ(s.requests_rejected, 1u);
  EXPECT_EQ(s.requests_completed, 2u);
  EXPECT_EQ(s.rows_scored, 10u);
  EXPECT_EQ(s.queue_depth_rows, 0u);
  EXPECT_GE(s.peak_queue_rows, 5u);
}

TEST(PredictionService, OversizedRequestAdmittedWhenQueueEmpty) {
  const ModelArtifact art = regression_artifact();
  ServiceConfig cfg;
  cfg.max_queue_rows = 4;
  cfg.max_batch_rows = 4;
  PredictionService service(art, cfg);
  // 50 rows > max_queue_rows: must be admitted (queue empty), not deadlock.
  const Table big = features_only(make_rows(50, 60));
  EXPECT_EQ(service.score(big).size(), 50u);
}

TEST(PredictionService, BlockingSubmitWaitsForSpaceInsteadOfFailing) {
  const ModelArtifact art = regression_artifact();
  ServiceConfig cfg;
  cfg.max_batch_rows = 6;
  cfg.max_queue_rows = 6;
  cfg.max_batch_delay = std::chrono::microseconds(200);
  PredictionService service(art, cfg);
  // Far more rows than the queue holds; submit() must block-and-drain, and
  // every future must fulfill.
  std::vector<std::future<std::vector<double>>> futures;
  for (std::size_t i = 0; i < 30; ++i) {
    futures.push_back(service.submit(features_only(make_rows(4, 70 + i))));
  }
  for (auto& f : futures) EXPECT_EQ(f.get().size(), 4u);
  // Counters publish before futures fulfill, so this snapshot is complete.
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests_admitted, 30u);
  EXPECT_EQ(s.requests_completed, 30u);
  EXPECT_EQ(s.rows_scored, 120u);
  EXPECT_GT(s.batches_flushed, 0u);
  EXPECT_EQ(s.full_flushes + s.deadline_flushes, s.batches_flushed);
}

TEST(PredictionService, SchemaMismatchThrowsInSubmitterNotQueue) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);
  Table bad;
  bad.add_column("x", Column::continuous({1.0}));  // missing "dc"
  EXPECT_THROW((void)service.submit(bad), util::precondition_error);
  EXPECT_THROW((void)service.try_submit(bad), util::precondition_error);
  EXPECT_EQ(service.stats().requests_admitted, 0u);
  // The service still works after the rejected submissions.
  EXPECT_EQ(service.score(features_only(make_rows(3, 8))).size(), 3u);
}

TEST(PredictionService, ClassificationPredictionsMatchSerial) {
  util::Rng rng(90);
  const std::size_t n = 240;
  std::vector<double> x(n);
  std::vector<std::string> label(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = rng.uniform(0.0, 1.0);
    label[i] = x[i] < 0.5 ? "ok" : "fail";
  }
  Table t;
  t.add_column("x", Column::continuous(std::move(x)));
  t.add_column("label", Column::nominal(label));
  const cart::Dataset data(t, "label", {"x"}, cart::Task::kClassification);
  cart::ForestConfig cfg;
  cfg.num_trees = 7;
  cart::Forest forest = cart::grow_forest(data, cfg);
  ModelMetadata meta;
  meta.name = "cls";
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  meta.class_labels = forest.trees().front().class_labels();
  ModelArtifact art{std::move(meta),
                    std::make_shared<const cart::Forest>(std::move(forest))};

  PredictionService service(art);
  Table rows;
  rows.add_column("x", Column::continuous({0.1, 0.45, 0.55, 0.9}));
  const std::vector<double> got = service.score(rows);
  const std::vector<double> want =
      art.forest->predict(make_scoring_dataset(rows, art.meta.schema));
  EXPECT_EQ(got, want);
  for (const double code : got) {
    ASSERT_GE(code, 0.0);
    ASSERT_LT(code, static_cast<double>(art.meta.class_labels.size()));
  }
}

TEST(PredictionService, LatencyCountersMoveAndSummaryRenders) {
  const ModelArtifact art = regression_artifact();
  PredictionService service(art);
  (void)service.score(features_only(make_rows(10, 44)));
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests_completed, 1u);
  EXPECT_GT(s.total_latency_us, 0u);
  EXPECT_GE(s.max_latency_us, s.total_latency_us / (s.requests_completed + 1));
  EXPECT_GT(s.mean_latency_us(), 0.0);
  const std::string line = s.summary();
  EXPECT_NE(line.find("1 req"), std::string::npos) << line;
  EXPECT_NE(line.find("10 rows"), std::string::npos) << line;
}

TEST(PredictionService, ConcurrentSubmittersAllComplete) {
  const ModelArtifact art = regression_artifact();
  ServiceConfig cfg;
  cfg.max_batch_rows = 16;
  cfg.max_queue_rows = 64;
  cfg.max_batch_delay = std::chrono::microseconds(300);
  PredictionService service(art, cfg);
  std::vector<std::thread> producers;
  std::atomic<std::uint64_t> rows_back{0};
  for (unsigned p = 0; p < 4; ++p) {
    producers.emplace_back([&service, &rows_back, p] {
      for (std::size_t i = 0; i < 12; ++i) {
        const Table rows = features_only(make_rows(3 + (i % 5), 200 + p * 50 + i));
        rows_back += service.score(rows).size();
      }
    });
  }
  for (auto& th : producers) th.join();
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.requests_admitted, 48u);
  EXPECT_EQ(s.requests_completed, 48u);
  EXPECT_EQ(s.rows_scored, rows_back.load());
  EXPECT_EQ(s.queue_depth_rows, 0u);
}

}  // namespace
}  // namespace rainshine::serve
