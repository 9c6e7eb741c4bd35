#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

namespace {

const rainshine::obs::HistogramSnapshot* find_histogram(
    const rainshine::obs::MetricsSnapshot& snap, std::string_view name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("missing mode");
  Args args;
  args.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("flag without value");
    const std::string value = argv[++i];
    if (flag == "--seed") args.seed = std::stoull(value);
    else if (flag == "--seconds") args.seconds = std::stod(value);
    else if (flag == "--trace") args.trace = value == "1";
    else if (flag == "--dir") args.dir = value;
    else throw std::invalid_argument("unknown flag " + std::string(flag));
  }
  if (!(args.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  unsigned long long kib = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

void Digest::add(std::string_view text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 1099511628211ULL;
  }
  state_ ^= 0xff;  // field separator
  state_ *= 1099511628211ULL;
}

void Digest::add(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  add(std::string_view(buf));
}

void Digest::add(std::uint64_t value) { add(std::to_string(value)); }

std::string Digest::hex() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(state_));
  return buf;
}

double RegistryDelta::counter(std::string_view name) const {
  const auto now = rainshine::obs::registry().snapshot();
  const auto value = [name](const rainshine::obs::MetricsSnapshot& s) {
    return s.has_counter(name) ? static_cast<double>(s.counter(name)) : 0.0;
  };
  return value(now) - value(before_);
}

double RegistryDelta::histogram_sum(std::string_view name) const {
  const auto now = rainshine::obs::registry().snapshot();
  const auto* a = find_histogram(before_, name);
  const auto* b = find_histogram(now, name);
  return (b != nullptr ? b->sum : 0.0) - (a != nullptr ? a->sum : 0.0);
}

void Metrics::set(std::string name, double value, std::string unit) {
  if (!std::isfinite(value)) throw std::runtime_error("metric " + name + " is not finite");
  items_.push_back({std::move(name), {value, std::move(unit)}});
}

std::string Metrics::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < items_.size(); ++i) {
    const auto& [name, vu] = items_[i];
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", vu.first);
    out += (i == 0 ? "" : ", ") + json_string(name) + ": {\"value\": " + num +
           ", \"unit\": " + json_string(vu.second) + "}";
  }
  return out + "}";
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::string& digest, const Metrics& metrics,
                  const std::string& note, bool reference_ok) {
  std::printf("{\"correct\": %s, \"reference_ok\": %s, \"attempted\": %llu, "
              "\"failed\": %llu, \"digest\": %s, \"note\": %s, \"metrics\": %s}\n",
              correct ? "true" : "false", reference_ok ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), json_string(digest).c_str(),
              json_string(note).c_str(), metrics.json().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
