// Pins the environment-only EnvironmentTable (built from Fleet +
// EnvironmentModel, as the observation-table builder uses it) bit-identical
// to the hazard-built FleetTable that drives the ticket engine, and so —
// through test_fleet_table.cpp — to EnvironmentModel::daily_mean itself.
#include <gtest/gtest.h>

#include "rainshine/simdc/fleet_table.hpp"
#include "rainshine/util/check.hpp"

namespace rainshine::simdc {
namespace {

TEST(EnvironmentTable, DailyMeanBitIdenticalToHazardBuiltTable) {
  const Fleet fleet(FleetSpec::test_default());
  const EnvironmentModel env(fleet, fleet.spec().seed);
  const HazardModel hazard(fleet, env);
  const FleetTable fleet_table(hazard);
  const EnvironmentTable env_table(fleet, env);

  ASSERT_EQ(env_table.num_racks(), fleet_table.num_racks());
  ASSERT_EQ(env_table.num_days(), fleet_table.num_days());
  for (util::DayIndex day = 0; day < env_table.num_days(); ++day) {
    const DayTerms env_terms = env_table.day_terms(day);
    const DayTerms hazard_terms = fleet_table.day_terms(day);
    EXPECT_EQ(env_terms.hours, hazard_terms.hours);
    for (std::size_t r = 0; r < env_table.num_racks(); ++r) {
      const Conditions got = env_table.daily_mean(r, env_terms);
      const Conditions want = fleet_table.daily_mean(r, hazard_terms);
      EXPECT_EQ(got.temperature_f, want.temperature_f) << "rack " << r << " day " << day;
      EXPECT_EQ(got.relative_humidity, want.relative_humidity)
          << "rack " << r << " day " << day;
    }
  }
}

TEST(EnvironmentTable, TracksSetpointOffsetVariant) {
  const Fleet fleet(FleetSpec::test_default());
  const EnvironmentModel env(fleet, fleet.spec().seed);
  const EnvironmentModel warmer = env.with_setpoint_offset(DataCenterId::kDC2, -3.0);
  const EnvironmentTable table(fleet, warmer);
  for (util::DayIndex day = 0; day < table.num_days(); day += 5) {
    const DayTerms terms = table.day_terms(day);
    for (std::size_t r = 0; r < table.num_racks(); ++r) {
      const Conditions want = warmer.daily_mean(fleet.racks()[r], day);
      const Conditions got = table.daily_mean(r, terms);
      EXPECT_EQ(got.temperature_f, want.temperature_f);
      EXPECT_EQ(got.relative_humidity, want.relative_humidity);
    }
  }
}

TEST(EnvironmentTable, RejectsDaysOutsideTheWindow) {
  const Fleet fleet(FleetSpec::test_default());
  const EnvironmentModel env(fleet, fleet.spec().seed);
  const EnvironmentTable table(fleet, env);
  EXPECT_THROW(table.day_terms(-1), util::precondition_error);
  EXPECT_THROW(table.day_terms(table.num_days()), util::precondition_error);
}

}  // namespace
}  // namespace rainshine::simdc
