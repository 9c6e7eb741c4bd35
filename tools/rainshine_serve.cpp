// rainshine_serve — serve an .rsf model over HTTP.
//
//   rainshine_serve --model model.rsf [--model-dir DIR]
//                   [--host H] [--port P] [--workers N] [--max-pending N]
//                   [--deadline-ms N] [--max-deadline-ms N]
//                   [--read-timeout-ms N] [--write-timeout-ms N]
//                   [--batch N] [--queue N]
//                   [--metrics metrics.json]
//
// Endpoints: POST /score (CSV in, CSV out), GET /models, GET /metrics,
// GET /healthz — see src/net/include/rainshine/net/server.hpp for the full
// wire contract. --model names the serving model; --model-dir additionally
// loads every .rsf in a directory into the registry that /models lists.
//
// Prints exactly one line — "listening on HOST:PORT" — to stdout once the
// socket is bound (scripts wait for it), then serves until SIGTERM or
// SIGINT starts a graceful drain: the listener closes, every admitted
// request is answered, the --metrics sidecar is flushed, and the process
// exits 0. Scripted stop is therefore `kill -TERM $pid; wait $pid`.
//
// Exit codes: 0 clean drain, 2 usage error, 3 model load error.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "rainshine/net/server.hpp"
#include "rainshine/obs/export.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"

using namespace rainshine;

namespace {

struct Options {
  std::string model;
  std::string model_dir;
  std::string metrics;
  net::ServerConfig server;
  serve::ServiceConfig service;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --model model.rsf [--model-dir DIR] [--host H] "
               "[--port P]\n"
               "        [--workers N] [--max-pending N] [--deadline-ms N] "
               "[--max-deadline-ms N]\n"
               "        [--read-timeout-ms N] [--write-timeout-ms N]\n"
               "        [--batch N] [--queue N] "
               "[--metrics metrics.json]\n",
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
    if (a == "--model") opt.model = need_value(argc, argv, i);
    else if (a == "--model-dir") opt.model_dir = need_value(argc, argv, i);
    else if (a == "--metrics") opt.metrics = need_value(argc, argv, i);
    else if (a == "--host") opt.server.host = need_value(argc, argv, i);
    else if (a == "--port")
      opt.server.port = static_cast<std::uint16_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--workers")
      opt.server.num_workers = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--max-pending")
      opt.server.max_pending_connections = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--deadline-ms")
      opt.server.default_deadline = std::chrono::milliseconds(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--max-deadline-ms")
      opt.server.max_deadline = std::chrono::milliseconds(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--read-timeout-ms")
      opt.server.read_timeout = std::chrono::milliseconds(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--write-timeout-ms")
      opt.server.write_timeout = std::chrono::milliseconds(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--batch")
      opt.service.max_batch_rows = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--queue")
      opt.service.max_queue_rows = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else usage(argv[0]);
  }
  if (opt.model.empty()) usage(argv[0]);
  return opt;
}

// The SIGTERM/SIGINT handler may only touch async-signal-safe state:
// one lock-free atomic load plus HttpServer::request_drain (an atomic
// store and a self-pipe write). The actual teardown happens on the main
// thread once wait() returns.
std::atomic<net::HttpServer*> g_server{nullptr};

extern "C" void drain_handler(int /*sig*/) {
  if (net::HttpServer* server = g_server.load(std::memory_order_acquire)) {
    server->request_drain();
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  serve::ModelArtifact artifact;
  try {
    artifact = serve::load_forest_file(opt.model);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error loading %s: %s\n", opt.model.c_str(), e.what());
    return 3;
  }

  serve::ModelRegistry registry;
  if (!opt.model_dir.empty()) {
    try {
      const auto report = registry.load_directory(opt.model_dir);
      std::fprintf(stderr, "registry: loaded %zu model(s) from %s\n",
                   report.loaded, opt.model_dir.c_str());
      for (const auto& [path, reason] : report.failures) {
        std::fprintf(stderr, "  skipped %s: %s\n", path.c_str(), reason.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error loading --model-dir %s: %s\n",
                   opt.model_dir.c_str(), e.what());
      return 3;
    }
  }
  registry.put(artifact);

  try {
    auto service = std::make_shared<serve::PredictionService>(
        std::move(artifact), opt.service);
    net::HttpServer server(service, &registry, opt.server);

    g_server.store(&server, std::memory_order_release);
    std::signal(SIGTERM, drain_handler);
    std::signal(SIGINT, drain_handler);

    std::fprintf(stdout, "listening on %s:%u\n", opt.server.host.c_str(),
                 static_cast<unsigned>(server.port()));
    std::fflush(stdout);

    server.wait();  // returns after a signal-initiated drain completes
    g_server.store(nullptr, std::memory_order_release);

    std::fprintf(stderr, "drained: %s\n", service->stats().summary().c_str());
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
