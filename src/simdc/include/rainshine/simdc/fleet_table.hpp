// Columnar (SoA) hot-path view of the fleet for the streaming ticket engine.
//
// simulate_rack_day evaluates the full multi-factor hazard through the
// object graph — Rack -> SkuSpec, HazardModel table lookups, and four
// EnvironmentModel::at() calls per (rack, day) cell, each re-deriving the
// site's outdoor weather and the rack's static airflow offsets. That costs
// hundreds of hash/trig/pow evaluations per cell and reads a dozen scattered
// cache lines; at a million servers (tens of thousands of racks x days) it
// dominates the sweep.
//
// FleetTable flattens everything that is static per rack — the first six
// factors of the hazard product, burst/batch statics, severity ranges, the
// three inlet-temperature offsets — into dense per-rack columns built once,
// and everything that is shared per day — outdoor weather coupling, weekday
// and month multipliers, the age bathtub keyed by integer days-in-service —
// into small per-day tables. The per-cell work drops to a handful of
// multiplies plus the eight irreducible per-(rack, hour) sensor-noise
// hashes.
//
// The environment half (per-rack inlet offsets, per-DC coupling, the
// weather-coupled day terms and daily_mean) is its own type,
// EnvironmentTable, buildable from a Fleet and an EnvironmentModel alone:
// the observation-table builder (core/observations.hpp) reads rack-day
// conditions through it, so simulation and analysis share one mirror.
//
// Bit-identity contract: every value this table produces is computed with
// the SAME operations in the SAME order as the HazardModel /
// EnvironmentModel expressions it mirrors (floating-point multiplication is
// not associative, and a one-ulp rate difference would shift a Poisson draw
// and desynchronize the whole ticket stream). Precomputed factors are
// always complete left-associated prefixes of the original chains, never
// regrouped. tests/simdc/test_fleet_table.cpp pins this cell by cell
// against the reference models.
#pragma once

#include <vector>

#include "rainshine/simdc/tickets.hpp"

namespace rainshine::simdc {

/// Terms shared by every rack for one simulated day: the weather-coupled
/// inlet deltas per (DC, representative hour) and the fleet-wide time
/// multipliers. Computed once per day, read by every cell.
struct DayTerms {
  /// k.temp_coupling * (t_out - climate.mean_temp_f) per DC per
  /// representative hour (EnvironmentModel::kDailyMeanHours).
  std::array<std::array<double, 4>, kNumDataCenters> coupled_t{};
  std::array<std::array<double, 4>, kNumDataCenters> coupled_rh{};
  /// Absolute hour index of each representative hour (the sensor-noise
  /// hash key).
  std::array<util::HourIndex, 4> hours{};
  double time_hw = 1.0;  ///< weekday x month multiplier, hardware faults
  double time_sw = 1.0;  ///< same for software/boot/other faults
};

/// The environment half of the columnar mirror: EnvironmentModel's per-rack
/// static inlet offsets and per-DC cooling coupling, flattened so that a
/// rack-day's mean inlet conditions cost eight noise hashes instead of eight
/// full EnvironmentModel::at() evaluations. Built from a Fleet and an
/// EnvironmentModel alone; FleetTable embeds one for the ticket engine, and
/// core::rack_day_table builds one for the observation table.
class EnvironmentTable {
 public:
  /// Flattens `env` for `fleet`'s racks (index = position in
  /// Fleet::racks()). Keeps a pointer to `env` for the irreducible
  /// per-(rack, hour) noise hash, so `env` must outlive the table.
  EnvironmentTable(const Fleet& fleet, const EnvironmentModel& env);

  [[nodiscard]] std::size_t num_racks() const noexcept { return rack_id_.size(); }
  [[nodiscard]] util::DayIndex num_days() const noexcept { return num_days_; }

  /// The weather-coupled terms and representative hours of `day`; O(DCs)
  /// hash/trig work instead of O(racks). The time multipliers are left at
  /// 1.0 (FleetTable::day_terms fills them).
  [[nodiscard]] DayTerms day_terms(util::DayIndex day) const;

  /// Mean inlet conditions for rack `r`, bit-identical to
  /// EnvironmentModel::daily_mean(rack, day) for the day `terms` was built
  /// for.
  [[nodiscard]] Conditions daily_mean(std::size_t r, const DayTerms& terms) const;

 private:
  const EnvironmentModel* env_;
  util::DayIndex num_days_ = 0;

  // -- Per-rack columns -------------------------------------------------------
  std::vector<std::int32_t> rack_id_;  ///< the sensor-noise hash key
  std::vector<std::uint8_t> dc_;       ///< DataCenterId as index
  // The three per-rack inlet offsets are kept separate (not pre-summed):
  // at() adds them one by one and fp addition is not associative either.
  std::vector<double> power_off_, pos_off_, inst_off_;

  // -- Per-DC environment parameters (copied from the live model; the live
  //    coupling matters — with_setpoint_offset may have shifted it) ----------
  std::array<double, kNumDataCenters> temp_coupling_{};
  std::array<double, kNumDataCenters> rh_coupling_{};
  std::array<double, kNumDataCenters> mean_temp_f_{};
  std::array<double, kNumDataCenters> mean_rh_{};
  std::array<double, kNumDataCenters> setpoint_f_{};
  std::array<double, kNumDataCenters> sensor_noise_f_{};
  std::array<double, kNumDataCenters> rh_setpoint_{};
  std::array<double, kNumDataCenters> rh_offset_{};
  std::array<double, kNumDataCenters> sensor_noise_rh_{};
};

class FleetTable {
 public:
  /// Flattens the hazard's fleet + environment. The table keeps pointers to
  /// neither Rack nor SkuSpec afterwards; it does keep the EnvironmentModel
  /// (for the irreducible per-(rack, hour) noise hash) and the Fleet's
  /// calendar, so both must outlive the table.
  explicit FleetTable(const HazardModel& hazard);

  [[nodiscard]] std::size_t num_racks() const noexcept { return geom_.size(); }
  [[nodiscard]] util::DayIndex num_days() const noexcept { return num_days_; }
  [[nodiscard]] std::int32_t rack_id(std::size_t r) const noexcept {
    return geom_[r].rack_id;
  }
  [[nodiscard]] const CellGeom& geom(std::size_t r) const noexcept {
    return geom_[r];
  }

  /// The day-shared terms: the environment's (EnvironmentTable::day_terms)
  /// plus the fleet-wide time multipliers.
  [[nodiscard]] DayTerms day_terms(util::DayIndex day) const;

  /// Mean inlet conditions for rack `r`, bit-identical to
  /// EnvironmentModel::daily_mean(rack, day) for the day `terms` was built
  /// for.
  [[nodiscard]] Conditions daily_mean(std::size_t r, const DayTerms& terms) const {
    return environment_.daily_mean(r, terms);
  }

  /// Every Poisson intensity simulate_cell consumes for cell (r, day),
  /// bit-identical to the HazardModel evaluations simulate_rack_day makes.
  void cell_rates(std::size_t r, util::DayIndex day, const DayTerms& terms,
                  CellRates& out) const;

 private:
  EnvironmentTable environment_;
  HazardConfig cfg_;
  util::DayIndex num_days_ = 0;

  // -- Per-rack columns (index = position in Fleet::racks()) -----------------
  std::vector<CellGeom> geom_;
  std::vector<std::int32_t> commission_day_;
  std::vector<std::uint8_t> dc_;             ///< DataCenterId as index
  /// Left-associated product of the six rack-static hazard factors
  /// (base * devices * sku * workload * dc * power), one per fault type;
  /// rate = ((static * age) * time) * env completes the original chain.
  std::vector<std::array<double, kNumFaultTypes>> static_rate_;
  std::vector<double> burst_static_;         ///< (base * dc_burst) * power
  std::vector<double> burst_lo_, burst_hi_;
  std::vector<double> batch_static_;
  std::vector<double> batch_lo_, batch_hi_;

  // -- Per-DC hazard switch ---------------------------------------------------
  std::array<bool, kNumDataCenters> env_sensitive_{};

  // -- Per-day / per-age tables ----------------------------------------------
  std::vector<double> time_hw_, time_sw_;    ///< [day]
  /// Bathtub multiplier and infant flag keyed by integer days in service
  /// (delta = day - commission_day >= 0); age_months depends only on delta.
  std::vector<double> age_mult_;
  std::vector<std::uint8_t> infant_;
};

}  // namespace rainshine::simdc
