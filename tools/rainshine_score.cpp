// rainshine_score — load an .rsf artifact and score CSV rows through the
// batched PredictionService.
//
//   rainshine_score --model model.rsf [--input rows.csv | -] [--output out.csv]
//                   [--request-rows N] [--batch N] [--queue N]
//                   [--stats]
//
// Rows arrive from --input (or stdin with `-`/no flag), are schema-checked
// against the artifact's fitted feature schema, submitted to the service in
// --request-rows chunks (micro-batching reassembles them), and written back
// as the input columns plus a `prediction` column — class labels for
// classification models, values for regression. --stats prints the model
// metadata and the service's counters to stderr.
//
// Exit codes: 0 scored, 2 usage error, 3 artifact/load error, 4 schema
// mismatch between the rows and the model.
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <numeric>
#include <string>
#include <vector>

#include "rainshine/obs/export.hpp"
#include "rainshine/obs/metrics.hpp"
#include "rainshine/serve/artifact.hpp"
#include "rainshine/serve/registry.hpp"
#include "rainshine/serve/service.hpp"
#include "rainshine/table/csv.hpp"
#include "rainshine/util/check.hpp"
#include "sidecar_signals.hpp"

using namespace rainshine;

namespace {

struct Options {
  std::string model;
  std::string input = "-";
  std::string output;
  std::size_t request_rows = 64;
  serve::ServiceConfig service;
  bool stats = false;
  std::string metrics;  // JSON metrics sidecar destination
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --model model.rsf [--input rows.csv|-] "
               "[--output out.csv] [--request-rows N]\n"
               "        [--batch N] [--queue N] [--stats]\n"
               "        [--metrics metrics.json]\n",
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
    else if (a == "--input") opt.input = need_value(argc, argv, i);
    else if (a == "--output") opt.output = need_value(argc, argv, i);
    else if (a == "--request-rows")
      opt.request_rows = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--batch")
      opt.service.max_batch_rows = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--queue")
      opt.service.max_queue_rows = static_cast<std::size_t>(
          std::strtoul(need_value(argc, argv, i), nullptr, 10));
    else if (a == "--stats") opt.stats = true;
    else if (a == "--metrics") opt.metrics = need_value(argc, argv, i);
    else usage(argv[0]);
  }
  if (opt.model.empty() || opt.request_rows == 0) usage(argv[0]);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  tools::install_sidecar_handlers(opt.metrics);

  serve::ModelArtifact artifact;
  try {
    artifact = serve::load_forest_file(opt.model);
  } catch (const serve::artifact_error& e) {
    std::fprintf(stderr, "error loading %s: %s\n", opt.model.c_str(), e.what());
    return 3;
  }
  const serve::ModelMetadata& meta = artifact.meta;
  if (opt.stats) {
    std::fprintf(stderr, "model %s v%u: %s, %zu trees, %zu features, "
                 "oob_error=%.6g\n",
                 meta.name.c_str(), meta.version,
                 meta.task == cart::Task::kClassification ? "classification"
                                                          : "regression",
                 artifact.forest->size(), meta.schema.size(), meta.oob_error);
  }

  try {
    const table::Table rows = opt.input == "-"
                                  ? table::read_csv(std::cin, {})
                                  : table::read_csv_file(opt.input, {});
    const auto issues = serve::schema_issues(rows, meta.schema);
    if (!issues.empty()) {
      std::fprintf(stderr, "rows do not match the model's schema:\n");
      for (const std::string& issue : issues)
        std::fprintf(stderr, "  - %s\n", issue.c_str());
      return 4;
    }

    serve::PredictionService service(std::move(artifact), opt.service);

    // Stream the table through the service in request-sized chunks; futures
    // are collected in submission order, so output rows line up with input.
    std::vector<std::future<std::vector<double>>> futures;
    for (std::size_t begin = 0; begin < rows.num_rows();
         begin += opt.request_rows) {
      const std::size_t end = std::min(rows.num_rows(), begin + opt.request_rows);
      std::vector<std::size_t> idx(end - begin);
      std::iota(idx.begin(), idx.end(), begin);
      futures.push_back(service.submit(rows.take(idx)));
    }
    std::vector<double> predictions;
    predictions.reserve(rows.num_rows());
    for (auto& f : futures) {
      const std::vector<double> chunk = f.get();
      predictions.insert(predictions.end(), chunk.begin(), chunk.end());
    }

    table::Table out = rows;
    if (meta.task == cart::Task::kClassification) {
      std::vector<std::string> labels;
      labels.reserve(predictions.size());
      for (const double p : predictions)
        labels.push_back(meta.class_labels.at(static_cast<std::size_t>(p)));
      out.add_column("prediction", table::Column::nominal(labels));
    } else {
      out.add_column("prediction", table::Column::continuous(std::move(predictions)));
    }
    if (opt.output.empty() || opt.output == "-") {
      table::write_csv(out, std::cout);
    } else {
      table::write_csv_file(out, opt.output);
    }

    if (opt.stats) {
      std::fprintf(stderr, "service: %s\n", service.stats().summary().c_str());
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
