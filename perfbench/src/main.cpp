// perfbench_inproc <mode> [--seed N] [--seconds S] [--trace 0|1] [--dir D]
//
// Modes: paper_study, early_warning, serve_prepare. Prints one JSON result
// line on stdout; perfbench/run.py reads it. Exit 2 on a usage error.
#include <cstdio>
#include <exception>
#include <stdexcept>

#include "workloads.hpp"

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_inproc: %s\n", e.what());
    return 2;
  }
  try {
    if (args.mode == "paper_study") return perfbench::run_paper_study(args);
    if (args.mode == "early_warning") return perfbench::run_early_warning(args);
    if (args.mode == "serve_prepare") return perfbench::run_serve_prepare(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_inproc %s: %s\n", args.mode.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "perfbench_inproc: unknown mode %s\n", args.mode.c_str());
  return 2;
}
