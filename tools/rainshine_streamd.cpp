// rainshine_streamd — the live pipeline end-to-end: stream simulated tickets
// and telemetry day by day, retain series in the constant-memory ring store,
// refit the λ_hw forest on a rolling window every --retrain-days, hot-swap
// it into the registry and the HTTP front-end, and serve /score, /models,
// /metrics and /series while the stream runs.
//
//   rainshine_streamd [--fleet test|paper] [--days N] [--seed S]
//                     [--retrain-days N] [--window-days N] [--min-history N]
//                     [--trees N] [--stride N] [--telemetry-samples N]
//                     [--host H] [--port P] [--workers N]
//                     [--batch N] [--queue N]
//                     [--snapshot store.rss] [--metrics metrics.json]
//
// The HTTP server starts as soon as the FIRST retrain publishes a model;
// at that moment the tool prints exactly one stdout line —
// "listening on HOST:PORT (model NAME vV)" — that scripts wait for. When
// the simulated horizon is exhausted the process keeps serving (scoring
// against the newest model, /series answering from the ring store) until
// SIGTERM/SIGINT starts a graceful drain; then the optional store snapshot
// and metrics sidecar are flushed and the process exits 0.
//
// Exit codes: 0 clean, 2 usage error, 3 runtime error, 4 the stream ended
// before any model could be fit (horizon shorter than --min-history).
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rainshine/net/server.hpp"
#include "rainshine/obs/export.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/stream/retrain.hpp"
#include "rainshine/stream/source.hpp"
#include "rainshine/stream/store.hpp"

using namespace rainshine;

namespace {

struct Options {
  std::string fleet = "test";
  util::DayIndex days = 0;  ///< 0 = the fleet spec's own horizon
  std::uint64_t seed = 0;   ///< 0 = the fleet spec's own seed
  std::string snapshot;
  std::string metrics;
  int telemetry_samples = 24;
  stream::RetrainConfig retrain{.interval_days = 15,
                                .window_days = 30,
                                .min_history_days = 15,
                                .forest = {.num_trees = 16}};
  net::ServerConfig server;
  serve::ServiceConfig service;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--fleet test|paper] [--days N] [--seed S]\n"
               "        [--retrain-days N] [--window-days N] [--min-history N]\n"
               "        [--trees N] [--stride N] [--telemetry-samples N]\n"
               "        [--host H] [--port P] [--workers N]\n"
               "        [--batch N] [--queue N]\n"
               "        [--snapshot store.rss] [--metrics metrics.json]\n",
               argv0);
  std::exit(2);
}

const char* need_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) usage(argv[0]);
  return argv[++i];
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (a == "--fleet") opt.fleet = need_value(argc, argv, i);
    else if (a == "--days")
      opt.days = static_cast<util::DayIndex>(
          std::strtol(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--seed")
      opt.seed = std::strtoull(need_value(argc, argv, i), nullptr, 10);
    else if (a == "--retrain-days")
      opt.retrain.interval_days = static_cast<util::DayIndex>(
          std::strtol(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--window-days")
      opt.retrain.window_days = static_cast<util::DayIndex>(
          std::strtol(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--min-history")
      opt.retrain.min_history_days = static_cast<util::DayIndex>(
          std::strtol(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--trees")
      opt.retrain.forest.num_trees = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--stride")
      opt.retrain.day_stride = static_cast<std::int32_t>(
          std::strtol(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--telemetry-samples")
      opt.telemetry_samples = static_cast<int>(
          std::strtol(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--snapshot") opt.snapshot = need_value(argc, argv, i);
    else if (a == "--metrics") opt.metrics = need_value(argc, argv, i);
    else if (a == "--host") opt.server.host = need_value(argc, argv, i);
    else if (a == "--port")
      opt.server.port = static_cast<std::uint16_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--workers")
      opt.server.num_workers = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--batch")
      opt.service.max_batch_rows = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--queue")
      opt.service.max_queue_rows = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else usage(argv[0]);
  }
  if (opt.fleet != "test" && opt.fleet != "paper") usage(argv[0]);
  return opt;
}

// SIGTERM/SIGINT: stop streaming at the next chunk boundary and, once the
// server exists, start its graceful drain. Only async-signal-safe state.
std::atomic<bool> g_stop{false};
std::atomic<net::HttpServer*> g_server{nullptr};

extern "C" void drain_handler(int /*sig*/) {
  g_stop.store(true, std::memory_order_release);
  if (net::HttpServer* server = g_server.load(std::memory_order_acquire)) {
    server->request_drain();
  }
}

/// Ring geometry for the store: a fine hourly tier covering two windows of
/// recent history and a daily tier covering four (minimum 120 days), so the
/// /series scrape sees both texture and trend at constant memory.
std::vector<stream::TierSpec> default_tiers(util::DayIndex window_days) {
  const std::size_t hourly_days =
      static_cast<std::size_t>(std::max<util::DayIndex>(2 * window_days, 14));
  const std::size_t daily_days =
      static_cast<std::size_t>(std::max<util::DayIndex>(4 * window_days, 120));
  return {{1, hourly_days * util::kHoursPerDay}, {util::kHoursPerDay, daily_days}};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  // Installed before streaming starts: a SIGTERM mid-stream stops at the
  // next chunk boundary even when no server exists yet.
  std::signal(SIGTERM, drain_handler);
  std::signal(SIGINT, drain_handler);
  try {
    simdc::FleetSpec spec = opt.fleet == "paper"
                                ? simdc::FleetSpec::paper_default()
                                : simdc::FleetSpec::test_default();
    if (opt.days > 0) spec.num_days = opt.days;
    if (opt.seed != 0) spec.seed = opt.seed;
    const simdc::Fleet fleet(spec);
    const simdc::EnvironmentModel env(fleet, spec.seed);
    const simdc::HazardModel hazard(fleet, env);

    // Ring store: per-rack inlet conditions, per-DC and per-SKU hardware
    // failure counts (sum semantics — each true-positive hardware ticket
    // pushes 1.0 at its open hour).
    stream::SeriesStore store;
    const auto tiers = default_tiers(opt.retrain.window_days);
    std::vector<std::pair<stream::SeriesId, stream::SeriesId>> rack_series;
    rack_series.reserve(fleet.racks().size());
    for (const simdc::Rack& rack : fleet.racks()) {
      const std::string suffix = "R" + std::to_string(rack.id);
      rack_series.emplace_back(
          store.add_series({"env.temp_f." + suffix, tiers}),
          store.add_series({"env.rh." + suffix, tiers}));
    }
    std::map<simdc::DataCenterId, stream::SeriesId> dc_series;
    std::map<simdc::SkuId, stream::SeriesId> sku_series;
    for (const simdc::Rack& rack : fleet.racks()) {
      if (!dc_series.contains(rack.dc)) {
        dc_series[rack.dc] = store.add_series(
            {"fail.hw.dc." + std::string(simdc::to_string(rack.dc)), tiers});
      }
      if (!sku_series.contains(rack.sku)) {
        sku_series[rack.sku] = store.add_series(
            {"fail.hw.sku." + std::string(simdc::to_string(rack.sku)), tiers});
      }
    }
    std::fprintf(stderr, "store: %zu series, %.1f MiB resident\n",
                 store.num_series(),
                 static_cast<double>(store.memory_bytes()) / (1024.0 * 1024.0));

    serve::ModelRegistry registry;
    stream::RetrainController controller(fleet, env, registry, opt.retrain);

    stream::SourceOptions source_opt;
    source_opt.seed = spec.seed;
    source_opt.telemetry_samples_per_day = opt.telemetry_samples;
    stream::TicketStream tickets(fleet, hazard, source_opt);
    stream::TelemetryStream telemetry(fleet, env, source_opt);

    std::unique_ptr<net::HttpServer> server;
    auto service_for = [&](const serve::ModelKey& key) {
      const auto artifact = registry.get(key.name, key.version);
      return std::make_shared<serve::PredictionService>(*artifact, opt.service);
    };

    util::DayIndex days_streamed = 0;
    while (!g_stop.load(std::memory_order_acquire)) {
      auto tel = telemetry.next();
      auto chunk = tickets.next();
      if (!tel || !chunk) break;  // horizon exhausted

      for (const stream::TelemetryReading& r : tel->readings) {
        const auto& [temp_id, rh_id] =
            rack_series[static_cast<std::size_t>(r.rack_id)];
        store.push(temp_id, r.hour, r.temperature_f);
        store.push(rh_id, r.hour, r.relative_humidity);
      }
      for (const simdc::Ticket& t : chunk->tickets) {
        if (!t.true_positive || !simdc::is_hardware(t.fault)) continue;
        const simdc::Rack& rack = fleet.rack(t.rack_id);
        store.push(dc_series.at(rack.dc), t.open_hour, 1.0);
        store.push(sku_series.at(rack.sku), t.open_hour, 1.0);
      }

      const auto key = controller.on_chunk(*chunk);
      ++days_streamed;
      if (key) {
        if (!server) {
          server = std::make_unique<net::HttpServer>(service_for(*key),
                                                     &registry, opt.server,
                                                     &store);
          g_server.store(server.get(), std::memory_order_release);
          // A signal that raced server construction never saw the pointer;
          // honor it now.
          if (g_stop.load(std::memory_order_acquire)) server->request_drain();
          std::fprintf(stdout, "listening on %s:%u (model %s v%u)\n",
                       opt.server.host.c_str(),
                       static_cast<unsigned>(server->port()), key->name.c_str(),
                       key->version);
          std::fflush(stdout);
        } else {
          server->swap_service(service_for(*key));
        }
        std::fprintf(stderr, "day %d: published %s v%u (swap generation %llu)\n",
                     static_cast<int>(days_streamed - 1), key->name.c_str(),
                     key->version,
                     static_cast<unsigned long long>(registry.swap_generation()));
      }
    }
    tickets.stop();
    telemetry.stop();

    std::fprintf(stderr, "streamed %d day(s), %u model version(s) published\n",
                 static_cast<int>(days_streamed), controller.versions_published());

    if (server) {
      if (!g_stop.load(std::memory_order_acquire)) {
        std::fprintf(stderr, "serving until SIGTERM...\n");
      }
      server->wait();  // returns once a signal-initiated drain completes
      g_server.store(nullptr, std::memory_order_release);
    } else if (!g_stop.load(std::memory_order_acquire)) {
      std::fprintf(stderr,
                   "error: stream ended before any model was fit "
                   "(need --min-history <= --days)\n");
      return 4;
    }

    if (!opt.snapshot.empty()) {
      std::ostringstream out;
      store.snapshot(out);
      obs::write_file(opt.snapshot, out.view());
      std::fprintf(stderr, "store snapshot -> %s\n", opt.snapshot.c_str());
    }
    if (!opt.metrics.empty()) {
      obs::write_file(opt.metrics, obs::to_json(obs::registry().snapshot()));
      std::fprintf(stderr, "metrics -> %s\n", opt.metrics.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }
  return 0;
}
