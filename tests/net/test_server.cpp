// HttpServer over real sockets: the full request path (parse → route →
// service → response), every overload and error mapping the wire contract
// promises, the drain state machine, and /metrics consistency while scoring
// traffic is in flight.
#include "rainshine/net/server.hpp"

#include <gtest/gtest.h>

#include <future>
#include <thread>

#include "rainshine/net/loadgen.hpp"
#include "rainshine/net/socket.hpp"
#include "rainshine/obs/export.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/util/rng.hpp"

namespace rainshine::net {
namespace {

using serve::ModelArtifact;
using serve::ModelMetadata;
using serve::PredictionService;
using std::chrono::milliseconds;

ModelArtifact regression_artifact() {
  util::Rng rng(21);
  std::vector<double> x(200);
  std::vector<double> y(200);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.uniform(0.0, 3.0);
    y[i] = 2.0 * x[i] + rng.uniform(-0.1, 0.1);
  }
  table::Table t;
  t.add_column("x", table::Column::continuous(std::move(x)));
  t.add_column("y", table::Column::continuous(std::move(y)));
  const cart::Dataset data(t, "y", {"x"}, cart::Task::kRegression);
  cart::ForestConfig cfg;
  cfg.num_trees = 4;
  cfg.seed = 21;
  cart::Forest forest = cart::grow_forest(data, cfg);
  ModelMetadata meta;
  meta.name = "net-test";
  meta.version = 3;
  meta.task = forest.task();
  meta.schema = forest.trees().front().features();
  return ModelArtifact{std::move(meta),
                       std::make_shared<const cart::Forest>(std::move(forest))};
}

std::string csv_rows(std::size_t n) {
  std::string csv = "x\n";
  for (std::size_t i = 0; i < n; ++i) {
    csv += std::to_string(0.1 * static_cast<double>(i + 1)) + "\n";
  }
  return csv;
}

/// One server on an ephemeral port, torn down per test.
struct ServerFixture {
  std::shared_ptr<PredictionService> service;
  std::unique_ptr<HttpServer> server;

  explicit ServerFixture(serve::ServiceConfig service_cfg = {},
                         ServerConfig server_cfg = {}) {
    service = std::make_shared<PredictionService>(regression_artifact(),
                                                  service_cfg);
    server = std::make_unique<HttpServer>(service, nullptr, server_cfg);
  }

  [[nodiscard]] ResponseOutcome get(const std::string& target) const {
    return request_once("127.0.0.1", server->port(), "GET", target);
  }
  [[nodiscard]] ResponseOutcome post(const std::string& target,
                                     std::string_view body,
                                     std::span<const HttpHeader> headers = {}) const {
    return request_once("127.0.0.1", server->port(), "POST", target, body,
                        headers);
  }
};

std::size_t count_lines(std::string_view s) {
  return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(HttpServer, ScoresCsvOverARealSocket) {
  const ServerFixture fx;
  const auto resp = fx.post("/score", csv_rows(7));
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.status, 200);
  EXPECT_TRUE(resp.body.starts_with("prediction\n"));
  EXPECT_EQ(count_lines(resp.body), 8u);  // header + 7 predictions
  EXPECT_EQ(fx.service->stats().requests_completed, 1u);
}

TEST(HttpServer, RoutingErrors) {
  const ServerFixture fx;
  EXPECT_EQ(fx.get("/nope").status, 404);
  const auto wrong_method = fx.get("/score");
  EXPECT_EQ(wrong_method.status, 405);
  EXPECT_EQ(wrong_method.header("Allow").value_or(""), "POST");
  EXPECT_EQ(fx.post("/healthz", "x").status, 405);
}

TEST(HttpServer, ScoreInputErrorsAreTyped) {
  const ServerFixture fx;
  EXPECT_EQ(fx.post("/score", "").status, 400);          // empty body
  EXPECT_EQ(fx.post("/score", "x\n1.0,2.0\n").status, 400);  // ragged record
  const auto mismatch = fx.post("/score", "wrong_column\n1.0\n");
  EXPECT_EQ(mismatch.status, 422);
  EXPECT_NE(mismatch.body.find("schema mismatch"), std::string::npos);
  // No request above ever reached the scorer.
  EXPECT_EQ(fx.service->stats().requests_admitted, 0u);
}

TEST(HttpServer, BadDeadlineHeaderIs400ExpiredDeadlineIs504) {
  serve::ServiceConfig slow;
  slow.max_batch_rows = 1u << 20;  // never flush on size (queue must match)
  slow.max_queue_rows = 1u << 20;
  slow.max_batch_delay = std::chrono::microseconds(50000);
  const ServerFixture fx(slow);

  const HttpHeader bad{"X-Deadline-Ms", "soon"};
  EXPECT_EQ(fx.post("/score", csv_rows(2), std::span(&bad, 1)).status, 400);

  // 1ms budget against a 50ms batch delay: expires while queued -> 504.
  const HttpHeader tight{"X-Deadline-Ms", "1"};
  const auto resp = fx.post("/score", csv_rows(2), std::span(&tight, 1));
  EXPECT_EQ(resp.status, 504);
  EXPECT_EQ(fx.service->stats().requests_deadline_exceeded, 1u);
  EXPECT_EQ(fx.service->stats().requests_completed, 0u);
}

TEST(HttpServer, HealthzModelsAndMetricsEndpoints) {
  const ServerFixture fx;
  const auto health = fx.get("/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  const auto models = fx.get("/models");
  ASSERT_EQ(models.status, 200);
  EXPECT_EQ(models.header("Content-Type").value_or(""), "application/json");
  EXPECT_EQ(obs::json_parse_error(models.body), std::nullopt);
  EXPECT_NE(models.body.find("\"name\":\"net-test\""), std::string::npos);
  EXPECT_NE(models.body.find("\"version\":3"), std::string::npos);
  EXPECT_NE(models.body.find("\"draining\":false"), std::string::npos);

  const auto text = fx.get("/metrics");
  ASSERT_EQ(text.status, 200);
  EXPECT_NE(text.body.find("net.requests_total"), std::string::npos);

  const auto json = fx.get("/metrics?format=json");
  ASSERT_EQ(json.status, 200);
  EXPECT_EQ(obs::json_parse_error(json.body), std::nullopt);

  EXPECT_EQ(fx.get("/metrics?format=xml").status, 400);
}

TEST(HttpServer, KeepAliveServesSequentialRequestsOnOneConnection) {
  const ServerFixture fx;
  TcpSocket sock =
      TcpSocket::connect("127.0.0.1", fx.server->port(), milliseconds(2000));
  sock.set_read_timeout(milliseconds(2000));

  for (int round = 0; round < 3; ++round) {
    sock.write_all("GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n");
    const auto resp = read_response(sock);
    ASSERT_TRUE(resp.ok()) << "round " << round;
    EXPECT_EQ(resp.status, 200);
    EXPECT_EQ(resp.header("Connection").value_or(""), "keep-alive");
  }
}

TEST(HttpServer, SlowLorisGets408WithinTheReadTimeout) {
  ServerConfig cfg;
  cfg.read_timeout = milliseconds(150);
  const ServerFixture fx({}, cfg);

  TcpSocket sock =
      TcpSocket::connect("127.0.0.1", fx.server->port(), milliseconds(2000));
  sock.set_read_timeout(milliseconds(2000));
  sock.write_all("GET /healthz HT");  // ...and then never finish the line

  const auto t0 = std::chrono::steady_clock::now();
  const auto resp = read_response(sock);
  const auto waited = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.status, 408);
  EXPECT_LT(waited, milliseconds(1500));  // bounded by the server, not by us
}

TEST(HttpServer, OverloadShedsWith503AndRetryAfter) {
  // One worker, one queue slot: occupy the worker with a slow score, park a
  // second connection in the queue, and every connection after that must be
  // shed with an honest 503 + Retry-After.
  serve::ServiceConfig slow;
  slow.max_batch_rows = 1u << 20;
  slow.max_queue_rows = 1u << 20;
  slow.max_batch_delay = std::chrono::microseconds(300000);
  ServerConfig cfg;
  cfg.num_workers = 1;
  cfg.max_pending_connections = 1;
  const ServerFixture fx(slow, cfg);
  const std::uint64_t shed_before =
      obs::registry().snapshot().counter("net.connections_shed");

  auto busy = std::async(std::launch::async, [&] {
    return fx.post("/score", csv_rows(2));
  });
  std::this_thread::sleep_for(milliseconds(60));  // worker now in fut.get()

  // Parked in the pending queue (fills it to max_pending_connections).
  TcpSocket parked =
      TcpSocket::connect("127.0.0.1", fx.server->port(), milliseconds(2000));
  parked.set_read_timeout(milliseconds(5000));
  parked.write_all("GET /healthz HTTP/1.1\r\n\r\n");
  std::this_thread::sleep_for(milliseconds(60));  // acceptor queued it

  const auto shed = fx.get("/healthz");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed.status, 503);
  EXPECT_EQ(shed.header("Retry-After").value_or(""), "1");

  // The admitted work still completes: slow scorer, then the parked request.
  EXPECT_EQ(busy.get().status, 200);
  const auto parked_resp = read_response(parked);
  ASSERT_TRUE(parked_resp.ok());
  EXPECT_EQ(parked_resp.status, 200);

  const std::uint64_t shed_after =
      obs::registry().snapshot().counter("net.connections_shed");
  EXPECT_GE(shed_after - shed_before, 1u);
}

TEST(HttpServer, ScoringQueueBackpressureIs503NotAHang) {
  // Tiny admission queue, slow flush: the second request's rows cannot be
  // admitted, so the handler sheds instead of blocking a worker. The first
  // request stays below max_batch_rows so it parks on the batch delay
  // instead of flushing on size.
  serve::ServiceConfig tiny;
  tiny.max_batch_rows = 4;
  tiny.max_queue_rows = 4;
  tiny.max_batch_delay = std::chrono::microseconds(200000);
  const ServerFixture fx(tiny);

  auto first = std::async(std::launch::async, [&] {
    return fx.post("/score", csv_rows(3));  // parks 3 of 4 queue slots
  });
  std::this_thread::sleep_for(milliseconds(60));
  const auto second = fx.post("/score", csv_rows(4));
  EXPECT_EQ(second.status, 503);
  EXPECT_EQ(second.header("Retry-After").value_or(""), "1");
  EXPECT_EQ(first.get().status, 200);
}

TEST(HttpServer, GracefulDrainAnswersInFlightThenStopsListening) {
  serve::ServiceConfig slow;
  slow.max_batch_rows = 1u << 20;
  slow.max_queue_rows = 1u << 20;
  slow.max_batch_delay = std::chrono::microseconds(150000);
  const ServerFixture fx(slow);
  const std::uint16_t port = fx.server->port();

  auto inflight = std::async(std::launch::async, [&] {
    return fx.post("/score", csv_rows(3));
  });
  std::this_thread::sleep_for(milliseconds(50));  // request admitted

  fx.server->request_drain();
  EXPECT_TRUE(fx.server->draining());

  // The admitted request is answered, with Connection: close.
  const auto resp = inflight.get();
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.header("Connection").value_or(""), "close");

  fx.server->wait();
  EXPECT_EQ(obs::registry().snapshot().gauge("net.draining"), 1.0);

  // The listener is gone: new connections are refused.
  EXPECT_THROW(
      (void)TcpSocket::connect("127.0.0.1", port, milliseconds(500)),
      io_error);

  // Every admitted request is accounted for — none abandoned.
  const auto stats = fx.service->stats();
  EXPECT_EQ(stats.requests_admitted,
            stats.requests_completed + stats.requests_failed);
}

TEST(HttpServer, RequestDrainIsIdempotent) {
  const ServerFixture fx;
  fx.server->request_drain();
  fx.server->request_drain();
  fx.server->wait();
  fx.server->wait();  // also idempotent
}

std::uint64_t json_counter(const std::string& json, const std::string& name) {
  const std::string key = "\"" + name + "\":";
  const std::size_t at = json.find(key);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + key.size(), nullptr, 10);
}

TEST(HttpServer, MetricsScrapeStaysConsistentUnderScoringLoad) {
  ServerConfig cfg;
  cfg.num_workers = 3;
  const ServerFixture fx({}, cfg);

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 2; ++c) {
    clients.emplace_back([&fx, &stop] {
      while (!stop.load()) {
        const auto resp = fx.post("/score", csv_rows(5));
        EXPECT_EQ(resp.status, 200);
      }
    });
  }

  // Scrape while the scoring traffic is in flight: every snapshot must be
  // well-formed JSON and the counters monotone across scrapes.
  std::uint64_t last_completed = 0;
  for (int scrape = 0; scrape < 15; ++scrape) {
    const auto resp = fx.get("/metrics?format=json");
    ASSERT_EQ(resp.status, 200);
    ASSERT_EQ(obs::json_parse_error(resp.body), std::nullopt);
    const std::uint64_t completed =
        json_counter(resp.body, "serve.requests_completed");
    EXPECT_GE(completed, last_completed);
    last_completed = completed;
    std::this_thread::sleep_for(milliseconds(10));
  }
  stop.store(true);
  for (auto& t : clients) t.join();

  // Quiesced: the cross-metric invariant must hold exactly, process-wide.
  const auto snap = obs::registry().snapshot();
  EXPECT_EQ(snap.histogram("serve.latency_us").count,
            snap.counter("serve.requests_completed"));
}

}  // namespace
}  // namespace rainshine::net
