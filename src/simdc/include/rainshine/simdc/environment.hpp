// Environmental telemetry synthesis.
//
// The paper's DCs instrument temperature and relative humidity per rack (and
// coarser), and its Q3 analysis hinges on how the two cooling technologies
// couple the machine-room environment to the outdoors:
//
//   * DC1 (adiabatic/evaporative, warm dry climate): inlet temperature and
//     humidity track outdoor conditions noticeably; hot, very dry spells
//     push racks above 78F while RH drops under 25% — the joint condition
//     Fig. 18 flags.
//   * DC2 (chilled-water HVAC): a tight envelope around the setpoint,
//     essentially decoupled from weather.
//
// Rather than storing a 2.5-year x fleet-wide trace (hundreds of millions of
// samples), conditions are a pure deterministic function of
// (datacenter, rack, hour): seasonal + diurnal sinusoids, hash-derived daily
// weather deviations shared by all racks of a DC (so environmental stress is
// spatially correlated, as in reality), per-rack static offsets from power
// density and row position, and small sensor noise. Identical inputs always
// yield identical readings for a given seed.
#pragma once

#include <array>

#include "rainshine/simdc/topology.hpp"
#include "rainshine/util/calendar.hpp"

namespace rainshine::simdc {

/// One instantaneous reading at a rack inlet.
struct Conditions {
  double temperature_f = 70.0;      ///< Fahrenheit (Table III: 56-90F)
  double relative_humidity = 45.0;  ///< percent (Table III: 5-87%)
};

/// Outdoor climate parameters for a DC site.
struct ClimateSpec {
  double mean_temp_f = 60.0;        ///< annual mean outdoor temperature
  double seasonal_amplitude_f = 20.0;
  double diurnal_amplitude_f = 10.0;
  double weather_noise_f = 6.0;     ///< sd of day-scale weather deviations
  double mean_rh = 50.0;            ///< annual mean outdoor RH (%)
  double seasonal_rh_swing = 20.0;  ///< RH drops by this much at peak summer
  double weather_noise_rh = 8.0;
  /// Day-of-year at which summer peaks (northern hemisphere mid-July).
  int peak_day_of_year = 200;
};

/// How a DC's cooling couples indoor conditions to the outdoors.
struct CoolingCoupling {
  double setpoint_f = 70.0;
  double temp_coupling = 0.1;   ///< inlet dT per outdoor dT from site mean
  double rh_offset = 0.0;       ///< added to coupled outdoor RH
  double rh_coupling = 0.1;     ///< inlet dRH per outdoor dRH
  double rh_setpoint = 45.0;
  double sensor_noise_f = 0.8;
  double sensor_noise_rh = 2.0;
};

class EnvironmentModel {
 public:
  /// Uses built-in climate/coupling presets chosen by each DC's cooling
  /// technology (see file comment). `seed` decorrelates the weather of
  /// different simulation runs.
  EnvironmentModel(const Fleet& fleet, std::uint64_t seed);

  /// Conditions at `rack`'s inlet during `hour`.
  [[nodiscard]] Conditions at(const Rack& rack, util::HourIndex hour) const;

  /// The representative hours daily_mean averages — four samples capture a
  /// diurnal sinusoid exactly. Shared with the columnar fast path
  /// (fleet_table.hpp), which must average the very same instants.
  static constexpr std::array<int, 4> kDailyMeanHours = {3, 9, 15, 21};

  /// Mean of the day's readings (computed from representative hours).
  [[nodiscard]] Conditions daily_mean(const Rack& rack, util::DayIndex day) const;

  /// Site outdoor temperature (before cooling), e.g. for reporting.
  [[nodiscard]] double outdoor_temperature_f(DataCenterId dc, util::HourIndex hour) const;
  [[nodiscard]] double outdoor_rh(DataCenterId dc, util::HourIndex hour) const;

  [[nodiscard]] static ClimateSpec climate_preset(Cooling cooling) noexcept;
  [[nodiscard]] static CoolingCoupling coupling_preset(Cooling cooling) noexcept;

  /// A copy of this model with `dc`'s cooling setpoint shifted by
  /// `delta_f` degrees — the counterfactual behind the Q3 set-point
  /// trade-off study (what happens to conditions if we run the hall
  /// warmer/cooler). Weather and per-rack offsets are unchanged.
  [[nodiscard]] EnvironmentModel with_setpoint_offset(DataCenterId dc,
                                                      double delta_f) const;

 private:
  // The columnar mirror (fleet_table.hpp) flattens this model's per-rack
  // static offsets and per-(dc, hour) coupled terms into SoA columns; it
  // needs the live climate_/coupling_ state (with_setpoint_offset may have
  // shifted it) and the private noise hash to reproduce at() bit for bit.
  friend class EnvironmentTable;

  const Fleet* fleet_;
  std::uint64_t seed_;
  std::array<ClimateSpec, kNumDataCenters> climate_{};
  std::array<CoolingCoupling, kNumDataCenters> coupling_{};

  /// Deterministic standard-normal value keyed by (stream, a, b).
  [[nodiscard]] double hash_normal(std::uint64_t stream, std::uint64_t a,
                                   std::uint64_t b) const;
};

}  // namespace rainshine::simdc
