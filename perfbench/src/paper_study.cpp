// paper_study: the paper pipeline at paper scale (612 racks, 913 days,
// observation stride 2). Set-up simulates the fleet; the timed job runs the
// studies the paper's figures and tables rest on:
//
//   FailureMetrics index -> Marginals (Figs. 2-9) -> Q1 provisioning for
//   every workload -> Q2 SKU comparison + TCO scenarios -> Q3 environment.
//
// Chosen because core's rack-day table assembly dominates it, while net,
// serve and predict do no work: a columnar-table change should move this
// workload and no other.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "workloads.hpp"
#include "rainshine/core/environment_analysis.hpp"
#include "rainshine/core/marginals.hpp"
#include "rainshine/core/provisioning.hpp"
#include "rainshine/core/sku_analysis.hpp"
#include "rainshine/obs/trace.hpp"

namespace perfbench {

namespace {

using namespace rainshine;

constexpr std::int32_t kStride = 2;
// The fleet is the paper's (the topology the repository's figure benches
// use); --seed drives its weather and failure process. A seeded topology
// could lack the SKUs the Q2 scenario compares.
constexpr std::uint64_t kFleetSeed = 2017;
constexpr int kMinJobs = 3;
constexpr int kSetups = 5;

struct World {
  std::unique_ptr<simdc::Fleet> fleet;
  std::unique_ptr<simdc::EnvironmentModel> env;
  std::unique_ptr<simdc::HazardModel> hazard;
  std::unique_ptr<simdc::TicketLog> log;
  double simulate_s = 0.0;
};

World set_up(std::uint64_t seed) {
  World w;
  simdc::FleetSpec spec = simdc::FleetSpec::paper_default();
  spec.num_days = 913;
  spec.seed = kFleetSeed;
  w.fleet = std::make_unique<simdc::Fleet>(spec);
  w.env = std::make_unique<simdc::EnvironmentModel>(*w.fleet, seed);
  w.hazard = std::make_unique<simdc::HazardModel>(*w.fleet, *w.env);
  const auto t = Clock::now();
  w.log = std::make_unique<simdc::TicketLog>(
      simdc::simulate(*w.fleet, *w.env, *w.hazard, {.seed = seed}));
  w.simulate_s = seconds_since(t);
  return w;
}

void add_rows(Digest& d, const std::vector<stats::BinnedRow>& rows) {
  for (const auto& r : rows) {
    d.add(r.label);
    d.add(static_cast<std::uint64_t>(r.count));
    d.add(r.mean);
    d.add(r.stddev);
  }
}

void add_levels(Digest& d, const std::vector<cart::EffectLevel>& levels) {
  for (const auto& l : levels) {
    d.add(l.label);
    d.add(static_cast<std::uint64_t>(l.n));
    d.add(l.mean);
    d.add(l.stddev);
  }
}

void add_factors(Digest& d, const std::vector<cart::Importance>& factors) {
  for (const auto& f : factors) {
    d.add(f.feature);
    d.add(f.importance);
  }
}

/// Wall time of each stage's library calls in one job, in pipeline order.
struct Stages {
  double index = 0, marginals = 0, provision = 0, sku = 0, environment = 0;
  [[nodiscard]] double sum() const {
    return index + marginals + provision + sku + environment;
  }
};

/// Every output of one study job, kept so that the digest is taken after
/// the job's clock stops.
struct Outputs {
  std::vector<std::vector<stats::BinnedRow>> marginals;
  std::vector<core::ServerProvisioningStudy> servers;  ///< per workload
  std::vector<core::ComponentProvisioningStudy> components;
  core::SkuStudy skus;
  std::vector<core::SkuTcoScenario> tco;
  core::EnvironmentStudy environment;
};

/// One study job. Each stage time covers only that stage's library calls,
/// so the stage times add up to the job's time less the glue between them.
Outputs run_job(const World& w, Stages& st) {
  Outputs o;
  auto t = Clock::now();
  const core::FailureMetrics metrics(*w.fleet, *w.log);
  st.index = seconds_since(t);

  t = Clock::now();
  const core::Marginals marginals(metrics, *w.env, kStride);
  o.marginals = {marginals.by_region(),   marginals.by_weekday(), marginals.by_month(),
                 marginals.by_humidity(), marginals.by_workload(), marginals.by_sku(),
                 marginals.by_power(),    marginals.by_age()};
  st.marginals = seconds_since(t);

  const tco::CostModel costs;
  const core::ProvisioningOptions popt;
  t = Clock::now();
  for (const auto wl : simdc::kAllWorkloads) {
    o.servers.push_back(core::provision_servers(metrics, *w.env, wl, popt));
    o.components.push_back(core::provision_components(metrics, *w.env, wl, 1.0, costs, popt));
  }
  st.provision = seconds_since(t);

  core::SkuAnalysisOptions sopt;
  sopt.day_stride = kStride;
  t = Clock::now();
  o.skus = core::compare_skus(metrics, *w.env, sopt);
  for (const double ratio : {1.0, 1.5}) {
    o.tco.push_back(core::sku_tco_scenario(o.skus, "S4", "S2", ratio, costs));
  }
  st.sku = seconds_since(t);

  core::EnvironmentOptions eopt;
  eopt.day_stride = kStride;
  t = Clock::now();
  o.environment = core::analyze_environment(metrics, *w.env, eopt);
  st.environment = seconds_since(t);
  return o;
}

std::string digest(const Outputs& o) {
  Digest d;
  for (const auto& rows : o.marginals) add_rows(d, rows);
  for (std::size_t i = 0; i < o.servers.size(); ++i) {
    const auto& servers = o.servers[i];
    for (const auto* r : {&servers.lb, &servers.sf, &servers.mf}) {
      for (const double v : r->overprovision_pct) d.add(v);
    }
    for (const auto& c : servers.clusters) {
      d.add(c.rule);
      d.add(static_cast<std::uint64_t>(c.servers));
      for (const double v : c.requirement) d.add(v);
      for (const double v : c.mu_fraction_deciles) d.add(v);
    }
    for (const double v : servers.sf_mu_deciles) d.add(v);
    add_factors(d, servers.factors);
    const auto& comps = o.components[i];
    for (const auto* c : {&comps.lb, &comps.sf, &comps.mf}) {
      d.add(c->component_level);
      d.add(c->server_level);
    }
    add_factors(d, comps.factors);
  }

  for (const auto& s : o.skus.sf) {
    d.add(s.sku);
    d.add(static_cast<std::uint64_t>(s.racks));
    d.add(s.mean_lambda);
    d.add(s.lambda_stddev);
    d.add(s.peak_mu);
    d.add(s.peak_mu_stddev);
  }
  add_levels(d, o.skus.mf_lambda);
  add_levels(d, o.skus.mf_peak_mu);
  for (const auto& s : o.tco) {
    d.add(s.sf_savings_pct);
    d.add(s.mf_savings_pct);
  }

  const auto& envs = o.environment;
  add_rows(d, envs.all_by_temp);
  add_rows(d, envs.disk_by_temp);
  for (const auto& split : {envs.dc1_temp_split, envs.dc2_temp_split, envs.dc1_rh_split}) {
    d.add(split ? *split : -1.0);
  }
  for (const auto& c : envs.cells) {
    d.add(c.dc);
    d.add(c.condition);
    d.add(static_cast<std::uint64_t>(c.n));
    d.add(c.mean_rate);
    d.add(c.stddev);
  }
  add_factors(d, envs.factors);
  d.add(envs.tree_dump);
  return d.hex();
}

}  // namespace

int run_paper_study(const Args& args) {
  // Set-up is timed several times for a steady median; every job then runs
  // on the last world, which no job changes.
  std::vector<double> setups, simulate_s;
  World world;
  for (int i = 0; i < kSetups; ++i) {
    world = World{};  // release the old world first: peak memory stays one world
    const auto t = Clock::now();
    world = set_up(args.seed);
    setups.push_back(seconds_since(t));
    simulate_s.push_back(world.simulate_s);
  }
  const double tickets = static_cast<double>(world.log->size());

  // Untraced jobs time the pipeline alone. A traced run alternates untraced
  // and traced jobs so the tracing overhead is measured against jobs of the
  // same run.
  std::vector<double> plain, traced;
  std::vector<Stages> stage_runs;
  std::string digest_0;
  std::uint64_t attempted = 0, failed = 0;
  double cart_trees = 0, split_us = 0, presort_us = 0, prune_us = 0;
  const auto start = Clock::now();
  for (int job = 0;; ++job) {
    const bool trace_this = args.trace && job % 2 == 1;
    if (trace_this) obs::tracer().enable();
    const RegistryDelta delta;
    Stages st;
    const auto t = Clock::now();
    const Outputs out = run_job(world, st);
    const double s = seconds_since(t);
    if (trace_this) {
      (void)obs::tracer().drain();
      obs::tracer().disable();
      traced.push_back(s);
      stage_runs.push_back(st);
      cart_trees = delta.counter("cart.trees_grown");
      split_us = delta.histogram_sum("cart.split_search_us");
      presort_us = delta.histogram_sum("cart.presort_us");
      prune_us = delta.histogram_sum("cart.prune_us");
    } else {
      plain.push_back(s);
    }
    std::fprintf(stderr, "paper_study job %llu: %.3f s%s\n",
                 static_cast<unsigned long long>(attempted), s, trace_this ? " (traced)" : "");
    ++attempted;
    const std::string d = digest(out);
    if (digest_0.empty()) digest_0 = d;
    if (d != digest_0) ++failed;
    const int need = args.trace ? 2 * kMinJobs - 2 : kMinJobs;
    if (job + 1 >= need && seconds_since(start) + s > args.seconds) break;
  }

  Metrics m;
  bool correct = failed == 0;
  std::string note;
  if (!args.trace) {
    m.set("setup_s", median(setups), "s");
    m.set("job_s", median(plain), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const core::FailureMetrics metrics(*world.fleet, *world.log);
    const auto t = Clock::now();
    const table::Table tbl = core::rack_day_table(metrics, *world.env,
                                                  {.day_stride = kStride});
    const double table_s = seconds_since(t);
    if (tbl.num_rows() == 0) correct = false;

    Stages st;  // median of each stage over the traced jobs
    const auto med = [&](double Stages::*field) {
      std::vector<double> v;
      for (const auto& s : stage_runs) v.push_back(s.*field);
      return median(v);
    };
    st.index = med(&Stages::index);
    st.marginals = med(&Stages::marginals);
    st.provision = med(&Stages::provision);
    st.sku = med(&Stages::sku);
    st.environment = med(&Stages::environment);
    double coverage = 1.0;  // the worst traced job's
    for (std::size_t i = 0; i < stage_runs.size(); ++i) {
      coverage = std::min(coverage, stage_runs[i].sum() / traced[i]);
    }
    if (coverage < 0.9) {
      correct = false;
      note = "stage times cover less than 90% of the job";
    }
    m.set("simdc.simulate_s", median(simulate_s), "s");
    m.set("simdc.tickets_per_s", tickets / median(simulate_s), "1/s");
    m.set("core.index_s", st.index, "s");
    m.set("core.rack_day_table_s", table_s, "s");
    m.set("core.marginals_s", st.marginals, "s");
    m.set("core.provision_s", st.provision, "s");
    m.set("core.sku_s", st.sku, "s");
    m.set("core.environment_s", st.environment, "s");
    m.set("core.stage_coverage_frac", coverage, "ratio");
    m.set("cart.trees_grown", cart_trees, "count");
    m.set("cart.split_search_us", split_us, "us");
    m.set("cart.presort_us", presort_us, "us");
    m.set("cart.prune_us", prune_us, "us");
    m.set("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0, "ratio");
  }
  print_result(correct, attempted, failed, digest_0, m, note, true);
  return 0;
}

}  // namespace perfbench
