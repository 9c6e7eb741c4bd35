#include "rainshine/simdc/fleet_table.hpp"

#include <algorithm>
#include <cmath>

#include "rainshine/util/check.hpp"

namespace rainshine::simdc {

namespace {

double clamp(double v, double lo, double hi) {
  return std::min(std::max(v, lo), hi);
}

}  // namespace

EnvironmentTable::EnvironmentTable(const Fleet& fleet, const EnvironmentModel& env)
    : env_(&env), num_days_(fleet.spec().num_days) {
  const auto& racks = fleet.racks();
  const std::size_t n = racks.size();
  rack_id_.reserve(n);
  dc_.reserve(n);
  power_off_.reserve(n);
  pos_off_.reserve(n);
  inst_off_.reserve(n);
  for (const Rack& rack : racks) {
    rack_id_.push_back(rack.id);
    dc_.push_back(static_cast<std::uint8_t>(rack.dc));
    // EnvironmentModel::at()'s static per-rack inlet offsets, verbatim.
    power_off_.push_back((rack.rated_power_kw - 8.0) * 0.30);
    const int row_len = fleet.dc_spec(rack.dc).racks_per_row;
    const double center =
        std::abs(static_cast<double>(rack.pos_in_row) - (row_len - 1) / 2.0) /
        std::max(1.0, (row_len - 1) / 2.0);
    pos_off_.push_back((1.0 - center) * 1.2);
    inst_off_.push_back(
        1.2 * env_->hash_normal(3, static_cast<std::uint64_t>(rack.id), 0));
  }

  for (const DataCenterSpec& dc : fleet.spec().datacenters) {
    const auto idx = static_cast<std::size_t>(dc.id);
    const CoolingCoupling& k = env_->coupling_[idx];
    const ClimateSpec& climate = env_->climate_[idx];
    temp_coupling_[idx] = k.temp_coupling;
    rh_coupling_[idx] = k.rh_coupling;
    mean_temp_f_[idx] = climate.mean_temp_f;
    mean_rh_[idx] = climate.mean_rh;
    setpoint_f_[idx] = k.setpoint_f;
    sensor_noise_f_[idx] = k.sensor_noise_f;
    rh_setpoint_[idx] = k.rh_setpoint;
    rh_offset_[idx] = k.rh_offset;
    sensor_noise_rh_[idx] = k.sensor_noise_rh;
  }
}

DayTerms EnvironmentTable::day_terms(util::DayIndex day) const {
  util::require(day >= 0 && day < num_days_, "day outside the fleet window");
  DayTerms terms;
  const util::HourIndex first = util::Calendar::first_hour(day);
  for (std::size_t k = 0; k < EnvironmentModel::kDailyMeanHours.size(); ++k) {
    const util::HourIndex hour = first + EnvironmentModel::kDailyMeanHours[k];
    terms.hours[k] = hour;
    for (std::size_t d = 0; d < kNumDataCenters; ++d) {
      const auto dc = static_cast<DataCenterId>(d);
      const double t_out = env_->outdoor_temperature_f(dc, hour);
      const double rh_out = env_->outdoor_rh(dc, hour);
      terms.coupled_t[d][k] = temp_coupling_[d] * (t_out - mean_temp_f_[d]);
      terms.coupled_rh[d][k] = rh_coupling_[d] * (rh_out - mean_rh_[d]);
    }
  }
  return terms;
}

Conditions EnvironmentTable::daily_mean(std::size_t r, const DayTerms& terms) const {
  const auto d = static_cast<std::size_t>(dc_[r]);
  const auto rack_key = static_cast<std::uint64_t>(rack_id_[r]);
  Conditions acc{0.0, 0.0};
  for (std::size_t k = 0; k < EnvironmentModel::kDailyMeanHours.size(); ++k) {
    const auto hour_key = static_cast<std::uint64_t>(terms.hours[k]);
    // The summands mirror EnvironmentModel::at() term by term, in its
    // addition order (fp addition is not associative).
    acc.temperature_f +=
        clamp(setpoint_f_[d] + terms.coupled_t[d][k] + power_off_[r] +
                  pos_off_[r] + inst_off_[r] +
                  sensor_noise_f_[d] * env_->hash_normal(4, rack_key, hour_key),
              56.0, 90.0);
    acc.relative_humidity +=
        clamp(rh_setpoint_[d] + terms.coupled_rh[d][k] + rh_offset_[d] +
                  sensor_noise_rh_[d] * env_->hash_normal(5, rack_key, hour_key),
              5.0, 87.0);
  }
  acc.temperature_f /= EnvironmentModel::kDailyMeanHours.size();
  acc.relative_humidity /= EnvironmentModel::kDailyMeanHours.size();
  return acc;
}

FleetTable::FleetTable(const HazardModel& hazard)
    : environment_(hazard.fleet(), hazard.environment()),
      cfg_(hazard.config()),
      num_days_(hazard.fleet().spec().num_days) {
  const Fleet& fleet = hazard.fleet();
  const auto& racks = fleet.racks();
  const std::size_t n = racks.size();

  geom_.reserve(n);
  commission_day_.reserve(n);
  dc_.reserve(n);
  static_rate_.reserve(n);
  burst_static_.reserve(n);
  burst_lo_.reserve(n);
  burst_hi_.reserve(n);
  batch_static_.reserve(n);
  batch_lo_.reserve(n);
  batch_hi_.reserve(n);

  std::int32_t min_commission = 0;
  for (const Rack& rack : racks) {
    const SkuSpec& sku = sku_spec(rack.sku);
    geom_.push_back(CellGeom{rack.id, rack.servers(), sku.disks_per_server,
                             sku.dimms_per_server});
    commission_day_.push_back(rack.commission_day);
    dc_.push_back(static_cast<std::uint8_t>(rack.dc));
    min_commission = std::min(min_commission, rack.commission_day);

    // The six rack-static factors, multiplied in exactly rack_day_rate's
    // order: this expression IS the left prefix of that chain.
    std::array<double, kNumFaultTypes> stat{};
    for (std::size_t i = 0; i < kNumFaultTypes; ++i) {
      const FaultType f = kAllFaultTypes[i];
      stat[i] = hazard.base_rate(f) * HazardModel::device_count(rack, f) *
                hazard.sku_multiplier(rack.sku, f) *
                hazard.workload_multiplier(rack.workload, f) *
                hazard.dc_multiplier(rack, f) *
                hazard.power_multiplier(rack.rated_power_kw);
    }
    static_rate_.push_back(stat);

    // burst_rate's static prefix, same operation order as the original.
    const double burst_power =
        1.0 + cfg_.burst_power_slope_per_kw *
                  std::max(0.0, rack.rated_power_kw - cfg_.power_knee_kw);
    burst_static_.push_back(
        cfg_.burst_base_per_rack_day *
        cfg_.dc_burst[static_cast<std::size_t>(rack.dc)] * burst_power);
    const auto [blo, bhi] = hazard.burst_fraction_range(rack);
    burst_lo_.push_back(blo);
    burst_hi_.push_back(bhi);

    batch_static_.push_back(
        cfg_.disk_batch_base_per_rack_day *
        cfg_.dc_disk_batch[static_cast<std::size_t>(rack.dc)] *
        (hazard.bad_vintage(rack) ? cfg_.disk_batch_bad_vintage_mult : 1.0));
    const auto [dlo, dhi] = hazard.disk_batch_fraction_range(rack);
    batch_lo_.push_back(dlo);
    batch_hi_.push_back(dhi);
  }

  for (const DataCenterSpec& dc : fleet.spec().datacenters) {
    const auto idx = static_cast<std::size_t>(dc.id);
    env_sensitive_[idx] = cfg_.env_sensitive[idx];
  }

  time_hw_.resize(static_cast<std::size_t>(num_days_));
  time_sw_.resize(static_cast<std::size_t>(num_days_));
  for (util::DayIndex day = 0; day < num_days_; ++day) {
    // Only the hardware/non-hardware category distinction enters
    // time_multiplier, so one representative fault per category suffices.
    time_hw_[static_cast<std::size_t>(day)] =
        hazard.time_multiplier(day, FaultType::kDiskFailure);
    time_sw_[static_cast<std::size_t>(day)] =
        hazard.time_multiplier(day, FaultType::kSoftwareTimeout);
  }

  // Age depends only on the integer days-in-service delta, so one table
  // covers every (rack, day) pair: delta in [0, last_day - min_commission].
  const std::int64_t max_delta =
      static_cast<std::int64_t>(num_days_) - 1 - min_commission;
  const std::size_t entries =
      n == 0 ? 0 : static_cast<std::size_t>(std::max<std::int64_t>(max_delta, 0) + 1);
  age_mult_.resize(entries);
  infant_.resize(entries);
  for (std::size_t d = 0; d < entries; ++d) {
    // Rack::age_months, verbatim, for delta = d.
    const double days = static_cast<double>(static_cast<std::int32_t>(d));
    const double age_months = days <= 0.0 ? 0.0 : days / 30.44;
    age_mult_[d] = hazard.age_multiplier(age_months);
    infant_[d] = age_months < cfg_.burst_infant_age_months ? 1 : 0;
  }
}

DayTerms FleetTable::day_terms(util::DayIndex day) const {
  DayTerms terms = environment_.day_terms(day);
  terms.time_hw = time_hw_[static_cast<std::size_t>(day)];
  terms.time_sw = time_sw_[static_cast<std::size_t>(day)];
  return terms;
}

void FleetTable::cell_rates(std::size_t r, util::DayIndex day,
                            const DayTerms& terms, CellRates& out) const {
  out.burst_lo = burst_lo_[r];
  out.burst_hi = burst_hi_[r];
  out.batch_lo = batch_lo_[r];
  out.batch_hi = batch_hi_[r];

  const std::int32_t delta = day - commission_day_[r];
  if (delta < 0) {  // not yet in service: every hazard evaluates to zero
    out.fault.fill(0.0);
    out.burst = 0.0;
    out.batch = 0.0;
    return;
  }

  const Conditions c = daily_mean(r, terms);
  const auto d = static_cast<std::size_t>(dc_[r]);
  // environment_multiplier collapses to two values per cell: one for disks,
  // one for every other hardware fault (software sees exactly 1.0).
  double env_hw = 1.0;
  double env_disk = 1.0;
  if (env_sensitive_[d]) {
    if (c.relative_humidity < cfg_.very_low_rh_threshold) {
      env_hw = cfg_.very_low_rh_mult;
    } else if (c.relative_humidity < cfg_.low_rh_threshold) {
      env_hw = cfg_.low_rh_mult;
    }
    env_disk = std::exp(cfg_.disk_temp_slope_per_f *
                        (c.temperature_f - cfg_.temp_reference_f));
    if (c.temperature_f > cfg_.hot_threshold_f) {
      env_disk *= cfg_.hot_mult;
      if (c.relative_humidity < cfg_.dry_threshold_rh) {
        env_disk *= cfg_.hot_dry_extra_mult;
      }
    }
  }

  const double age = age_mult_[static_cast<std::size_t>(delta)];
  const auto& stat = static_rate_[r];
  for (std::size_t i = 0; i < kNumFaultTypes; ++i) {
    const FaultType f = kAllFaultTypes[i];
    const bool hw = is_hardware(f);
    const double time = hw ? terms.time_hw : terms.time_sw;
    const double env =
        !hw ? 1.0 : (f == FaultType::kDiskFailure ? env_disk : env_hw);
    // Completes rack_day_rate's product chain: ((static * age) * time) * env.
    out.fault[i] = stat[i] * age * time * env;
  }

  out.burst = infant_[static_cast<std::size_t>(delta)]
                  ? burst_static_[r] * cfg_.burst_infant_mult
                  : burst_static_[r];
  out.batch = batch_static_[r];
}

}  // namespace rainshine::simdc
