// serve_online, in-process half. Fits a regression forest on a seeded
// rack-day table of the test fleet, saves it as the .rsf artifact the
// rainshine_serve process loads, and writes the request pool the load
// client sends: seeded rack-day rows, mostly a handful per request and
// occasionally several hundred, each with the response body in-process
// Forest::predict gives for the same rows. The mix (98% of requests carry
// 1-8 rows, 2% carry 200-400) is a choice made to fit that description, not
// one taken from a request log; the share of rows it puts in large requests
// is printed on stderr.
//
// A traced run also replays the pool's bodies through each layer's public
// function (HTTP parse over a MemoryStream, CSV decode, scoring-dataset
// encode, Forest::predict, PredictionService::score at its default config),
// since the server process exports no per-layer timings of its own, and
// scores each replayed request with obs::tracer() off and on for the tracing
// overhead.
//
// Chosen because net parsing and the serve batching window dominate it,
// while core tables and cart fitting stay out of the timed path.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>

#include "common.hpp"
#include "workloads.hpp"
#include "rainshine/core/observations.hpp"
#include "rainshine/net/http.hpp"
#include "rainshine/net/stream.hpp"
#include "rainshine/obs/trace.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/table/csv.hpp"
#include "rainshine/util/rng.hpp"

namespace perfbench {

namespace {

using namespace rainshine;

constexpr int kDays = 365;
constexpr int kSetups = 5;
constexpr std::size_t kTrees = 32;
constexpr std::size_t kPoolRequests = 2048;
constexpr std::size_t kReplayRequests = 512;
/// Requests of at least this many rows are the pool's "large" ones.
constexpr std::size_t kLargeRows = 200;

const std::vector<std::string>& features() {
  static const std::vector<std::string> names = [] {
    auto f = core::static_rack_features();
    for (const char* c : {core::col::kTempF, core::col::kRh, core::col::kWeekday,
                          core::col::kMonth}) {
      f.emplace_back(c);
    }
    return f;
  }();
  return names;
}

struct Request {
  std::string body;
  std::string expected;
  std::size_t rows = 0;
};

struct Prepared {
  serve::ModelArtifact artifact;
  std::vector<Request> pool;
  std::string digest;
};

std::string format_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// CSV with every number at %.17g, so the server decodes exactly the rows
/// the expected predictions were computed from. (table::write_csv rounds to
/// six decimals.)
std::string csv_body(const table::Table& rows) {
  std::string out;
  for (std::size_t c = 0; c < rows.num_columns(); ++c) {
    out += (c == 0 ? "" : ",") + rows.column_name(c);
  }
  out += '\n';
  for (std::size_t r = 0; r < rows.num_rows(); ++r) {
    for (std::size_t c = 0; c < rows.num_columns(); ++c) {
      const table::Column& col = rows.column_at(c);
      if (c != 0) out += ',';
      if (col.is_missing(r)) continue;
      if (col.type() == table::ColumnType::kNominal) {
        out += col.label_of(col.nominal_codes()[r]);
      } else {
        out += format_double(col.as_double(r));
      }
    }
    out += '\n';
  }
  return out;
}

Prepared prepare(std::uint64_t seed, const std::string& dir) {
  // The test fleet's own topology; --seed drives weather and failures.
  simdc::FleetSpec spec = simdc::FleetSpec::test_default();
  spec.num_days = kDays;
  const simdc::Fleet fleet(spec);
  const simdc::EnvironmentModel env(fleet, seed);
  const simdc::HazardModel hazard(fleet, env);
  const auto log = simdc::simulate(fleet, env, hazard, {.seed = seed});
  const core::FailureMetrics metrics(fleet, log);
  const table::Table table =
      core::rack_day_table(metrics, env, {.include_mu = false});

  const cart::Dataset data(table, core::col::kLambdaAll, features(),
                           cart::Task::kRegression);
  cart::Forest forest = cart::grow_forest(data, {.num_trees = kTrees, .seed = seed});

  Prepared p;
  p.artifact.meta.name = "lambda-all";
  p.artifact.meta.task = forest.task();
  p.artifact.meta.schema = forest.trees().front().features();
  p.artifact.forest = std::make_shared<const cart::Forest>(std::move(forest));
  const std::string model_path = dir + "/model.rsf";
  serve::save_forest_file(*p.artifact.forest, p.artifact.meta, model_path);

  Digest d;
  {
    std::ifstream in(model_path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    d.add(bytes.str());
  }

  util::Rng rng(seed ^ 0x5e7e0a11ULL);
  const table::Table columns = table.select(features());
  for (std::size_t i = 0; i < kPoolRequests; ++i) {
    const std::size_t n = rng.bernoulli(0.02) ? kLargeRows + rng.below(201) : 1 + rng.below(8);
    std::vector<std::size_t> idx(n);
    for (auto& r : idx) r = rng.below(table.num_rows());
    const table::Table rows = columns.take(idx);
    Request req;
    req.rows = n;
    req.body = csv_body(rows);
    const cart::Dataset ds(rows, p.artifact.meta.schema);
    req.expected = "prediction\n";
    for (const double v : p.artifact.forest->predict(ds)) req.expected += format_double(v) + "\n";
    d.add(req.body);
    d.add(req.expected);
    p.pool.push_back(std::move(req));
  }
  p.digest = d.hex();
  return p;
}

void put_u32(std::ofstream& out, std::size_t v) {
  const auto x = static_cast<std::uint32_t>(v);
  out.write(reinterpret_cast<const char*>(&x), sizeof x);
}

/// Pool file read by perfbench_load: "PBRQ", u32 count, then per request
/// u32 rows, u32 body length, body, u32 expected length, expected body.
void write_pool(const std::vector<Request>& pool, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("PBRQ", 4);
  put_u32(out, pool.size());
  for (const auto& r : pool) {
    put_u32(out, r.rows);
    put_u32(out, r.body.size());
    out.write(r.body.data(), static_cast<std::streamsize>(r.body.size()));
    put_u32(out, r.expected.size());
    out.write(r.expected.data(), static_cast<std::streamsize>(r.expected.size()));
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

template <typename F>
double median_us(std::size_t n, F&& f) {
  std::vector<double> us;
  us.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto t = Clock::now();
    f(i);
    us.push_back(seconds_since(t) * 1e6);
  }
  return median(us);
}

}  // namespace

int run_serve_prepare(const Args& args) {
  std::vector<double> setups;
  Prepared p;
  for (int i = 0; i < kSetups; ++i) {
    const auto t = Clock::now();
    p = prepare(args.seed, args.dir);
    write_pool(p.pool, args.dir + "/requests.bin");
    setups.push_back(seconds_since(t));
  }

  std::size_t rows = 0, large_rows = 0;
  for (const auto& r : p.pool) {
    rows += r.rows;
    if (r.rows >= kLargeRows) large_rows += r.rows;
  }
  std::fprintf(stderr, "serve_prepare: %zu rows in %zu requests, %.3f of them in requests of "
               "%zu+ rows\n", rows, p.pool.size(),
               static_cast<double>(large_rows) / static_cast<double>(rows), kLargeRows);

  Metrics m;
  m.set("prepare_s", median(setups), "s");
  if (args.trace) {
    const std::size_t n = std::min(kReplayRequests, p.pool.size());
    std::vector<std::string> wire(n);
    for (std::size_t i = 0; i < n; ++i) {
      wire[i] = "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\n"
                "Content-Length: " + std::to_string(p.pool[i].body.size()) +
                "\r\n\r\n" + p.pool[i].body;
    }
    std::vector<table::Table> tables(n);
    std::vector<std::optional<cart::Dataset>> datasets(n);
    const auto& schema = p.artifact.meta.schema;
    const double parse_us = median_us(n, [&](std::size_t i) {
      net::MemoryStream stream(wire[i]);
      net::RequestReader reader(stream);
      if (!reader.next().ok()) throw std::runtime_error("replayed request does not parse");
    });
    const double csv_us = median_us(n, [&](std::size_t i) {
      std::istringstream in(p.pool[i].body);
      tables[i] = table::read_csv(in);
    });
    const double dataset_us = median_us(n, [&](std::size_t i) {
      datasets[i] = serve::make_scoring_dataset(tables[i], schema);
    });
    const double predict_us = median_us(n, [&](std::size_t i) {
      (void)p.artifact.forest->predict(*datasets[i]);
    });
    serve::PredictionService service(p.artifact);
    const double score_us = median_us(n, [&](std::size_t i) {
      (void)service.score(tables[i]);
    });
    // Each replayed request is scored twice in a row, untraced then traced.
    std::vector<double> plain, traced;
    for (const auto& tbl : tables) {
      auto t = Clock::now();
      (void)service.score(tbl);
      plain.push_back(seconds_since(t));
      obs::tracer().enable();
      t = Clock::now();
      (void)service.score(tbl);
      traced.push_back(seconds_since(t));
      (void)obs::tracer().drain();
      obs::tracer().disable();
    }
    m.set("net.parse_us", parse_us, "us");
    m.set("table.read_csv_us", csv_us, "us");
    m.set("serve.make_scoring_dataset_us", dataset_us, "us");
    m.set("cart.predict_us", predict_us, "us");
    m.set("serve.score_us", score_us, "us");
    m.set("serve.wait_us", score_us - dataset_us - predict_us, "us");
    m.set("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0, "ratio");
  }
  print_result(true, kSetups, 0, p.digest, m, "", true);
  return 0;
}

}  // namespace perfbench
