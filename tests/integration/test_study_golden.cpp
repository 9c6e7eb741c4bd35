// Golden digest of the decision studies.
//
// Hashes every output of Marginals (Figs. 2-9), provision_servers and
// provision_components (Q1), compare_skus (Q2) and analyze_environment (Q3)
// on the test fleet, and pins the hash. Each study builds its rack-day
// observation table internally, so any change to table assembly — row
// order, dictionary order, a one-ulp difference in an environment reading —
// moves this digest. Doubles are hashed by bit pattern, not by a rounded
// rendering.
//
// If an intended behaviour change moves the digest, re-pin it only after
// checking the studies' outputs moved for the intended reason.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rainshine/core/environment_analysis.hpp"
#include "rainshine/core/marginals.hpp"
#include "rainshine/core/provisioning.hpp"
#include "rainshine/core/sku_analysis.hpp"

namespace rainshine {
namespace {

/// FNV-1a over a stream of typed values. Strings are length-prefixed so
/// adjacent strings cannot alias.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    for (const char c : s) byte(static_cast<std::uint8_t>(c));
  }
  void add(const std::vector<double>& v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const double x : v) add(x);
  }
  void add(const std::vector<stats::BinnedRow>& rows) {
    add(static_cast<std::uint64_t>(rows.size()));
    for (const auto& r : rows) {
      add(r.label);
      add(static_cast<std::uint64_t>(r.count));
      add(r.mean);
      add(r.stddev);
    }
  }
  void add(const std::vector<cart::EffectLevel>& levels) {
    add(static_cast<std::uint64_t>(levels.size()));
    for (const auto& l : levels) {
      add(l.label);
      add(static_cast<std::uint64_t>(l.n));
      add(l.mean);
      add(l.stddev);
    }
  }
  void add(const std::vector<cart::Importance>& factors) {
    add(static_cast<std::uint64_t>(factors.size()));
    for (const auto& f : factors) {
      add(f.feature);
      add(f.importance);
    }
  }
  void add(const std::vector<std::string>& strings) {
    add(static_cast<std::uint64_t>(strings.size()));
    for (const auto& s : strings) add(std::string_view(s));
  }
  void add(const std::optional<double>& v) {
    add(static_cast<std::uint64_t>(v.has_value()));
    if (v) add(*v);
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
};

class StudyGoldenTest : public ::testing::Test {
 protected:
  static simdc::FleetSpec spec() {
    simdc::FleetSpec s = simdc::FleetSpec::test_default();
    s.num_days = 240;
    return s;
  }

  StudyGoldenTest()
      : fleet_(spec()),
        env_(fleet_, fleet_.spec().seed),
        hazard_(fleet_, env_),
        log_(simulate(fleet_, env_, hazard_, {.seed = 21})),
        metrics_(fleet_, log_) {}

  simdc::Fleet fleet_;
  simdc::EnvironmentModel env_;
  simdc::HazardModel hazard_;
  simdc::TicketLog log_;
  core::FailureMetrics metrics_;
};

TEST_F(StudyGoldenTest, EveryStudyOutputMatchesPinnedDigest) {
  constexpr std::int32_t kStride = 2;
  Digest d;

  const core::Marginals marginals(metrics_, env_, kStride);
  for (const auto& rows :
       {marginals.by_region(), marginals.by_weekday(), marginals.by_month(),
        marginals.by_humidity(), marginals.by_workload(), marginals.by_sku(),
        marginals.by_power(), marginals.by_age()}) {
    d.add(rows);
  }

  const tco::CostModel costs;
  std::size_t workloads = 0;
  for (const auto wl : simdc::kAllWorkloads) {
    if (fleet_.racks_of(wl).empty()) continue;
    ++workloads;
    const auto servers = core::provision_servers(metrics_, env_, wl);
    for (const auto* r : {&servers.lb, &servers.sf, &servers.mf}) {
      d.add(r->overprovision_pct);
    }
    d.add(static_cast<std::uint64_t>(servers.clusters.size()));
    for (const auto& c : servers.clusters) {
      d.add(c.rule);
      d.add(static_cast<std::uint64_t>(c.servers));
      for (const std::int32_t id : c.rack_ids) d.add(static_cast<std::uint64_t>(id));
      d.add(c.requirement);
      d.add(c.mu_fraction_deciles);
    }
    d.add(servers.sf_mu_deciles);
    d.add(servers.factors);
    d.add(servers.warnings);

    const auto comps = core::provision_components(metrics_, env_, wl, 1.0, costs);
    for (const auto* c : {&comps.lb, &comps.sf, &comps.mf}) {
      d.add(c->component_level);
      d.add(c->server_level);
    }
    d.add(comps.factors);
    d.add(comps.warnings);
  }
  EXPECT_GE(workloads, 2U);

  core::SkuAnalysisOptions sopt;
  sopt.day_stride = kStride;
  sopt.skus.clear();  // every SKU present in the small fleet
  const core::SkuStudy skus = core::compare_skus(metrics_, env_, sopt);
  ASSERT_FALSE(skus.sf.empty());
  for (const auto& s : skus.sf) {
    d.add(s.sku);
    d.add(static_cast<std::uint64_t>(s.racks));
    d.add(s.mean_lambda);
    d.add(s.lambda_stddev);
    d.add(s.peak_mu);
    d.add(s.peak_mu_stddev);
  }
  d.add(skus.mf_lambda);
  d.add(skus.mf_peak_mu);
  d.add(skus.warnings);

  core::EnvironmentOptions eopt;
  eopt.day_stride = kStride;
  const core::EnvironmentStudy envs = core::analyze_environment(metrics_, env_, eopt);
  d.add(envs.all_by_temp);
  d.add(envs.disk_by_temp);
  d.add(envs.dc1_temp_split);
  d.add(envs.dc2_temp_split);
  d.add(envs.dc1_rh_split);
  for (const auto& c : envs.cells) {
    d.add(c.dc);
    d.add(c.condition);
    d.add(static_cast<std::uint64_t>(c.n));
    d.add(c.mean_rate);
    d.add(c.stddev);
  }
  d.add(envs.factors);
  d.add(envs.tree_dump);
  d.add(envs.warnings);

  EXPECT_EQ(d.hex(), "94d571cce80c218f");
}

}  // namespace
}  // namespace rainshine
