// Shared plumbing for the in-process runner: argument parsing, wall-clock
// timing, order statistics, output digests, registry deltas and the one-line
// JSON result the Python runner reads.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "rainshine/obs/metrics.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string mode;
  std::uint64_t seed = 2017;
  double seconds = 10.0;
  bool trace = false;
  std::string dir = ".";  ///< scratch directory for generated inputs
};

/// Parses `<mode> [--seed N] [--seconds S] [--trace 0|1] [--dir D]`; throws
/// std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Median (mean of the middle two for an even count); 0 for no values.
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a over a canonical text rendering of study outputs: doubles at
/// %.17g, so two digests agree iff every value is bit-identical.
class Digest {
 public:
  void add(std::string_view text);
  void add(double value);
  void add(std::uint64_t value);
  [[nodiscard]] std::string hex() const;

 private:
  std::uint64_t state_ = 1469598103934665603ULL;
};

/// Counter and histogram-sum differences of obs::registry() over a region.
class RegistryDelta {
 public:
  RegistryDelta() : before_(rainshine::obs::registry().snapshot()) {}
  [[nodiscard]] double counter(std::string_view name) const;
  [[nodiscard]] double histogram_sum(std::string_view name) const;

 private:
  rainshine::obs::MetricsSnapshot before_;
};

/// Named metrics with units, in insertion order.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit);
  [[nodiscard]] std::string json() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// Prints the runner's result line: correctness, operation counts, the
/// output digest, the metrics, and `reference_ok` — the checks that hold on
/// the reference seeds only, which the runner requires there.
void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::string& digest, const Metrics& metrics,
                  const std::string& note, bool reference_ok);

}  // namespace perfbench
