// Tests for the mean-field (fluid-limit) ODE of the Diversification
// protocol: the Eq. (7) equilibrium is the fixed point, mass is
// conserved, trajectories converge to it from generic starts, and the
// integer count prediction keeps the population size exact.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/equilibrium.h"
#include "core/mean_field.h"
#include "core/weights.h"

namespace {

using divpp::core::Equilibrium;
using divpp::core::MeanFieldOde;
using divpp::core::MeanFieldState;
using divpp::core::WeightMap;

MeanFieldState equilibrium_state(const WeightMap& weights) {
  const Equilibrium eq = divpp::core::equilibrium_shares(weights);
  return MeanFieldState{eq.dark_share, eq.light_share};
}

TEST(MeanFieldOde, DerivativeVanishesAtEquilibrium) {
  const WeightMap weights({1.0, 2.0, 4.0});
  const MeanFieldOde ode(weights);
  const MeanFieldState state = equilibrium_state(weights);
  const MeanFieldState d = ode.derivative(state);
  for (const double v : d.dark) EXPECT_NEAR(v, 0.0, 1e-12);
  for (const double v : d.light) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(MeanFieldOde, DerivativeSizeValidation) {
  const MeanFieldOde ode(WeightMap({1.0, 2.0}));
  MeanFieldState bad;
  bad.dark = {1.0};
  bad.light = {0.0};
  EXPECT_THROW((void)ode.derivative(bad), std::invalid_argument);
}

TEST(MeanFieldOde, MassIsConserved) {
  // d/dτ Σ(α_i + β_i) = βα − Σα²/w + Σα²/w − βα = 0.
  const WeightMap weights({1.0, 3.0});
  const MeanFieldOde ode(weights);
  MeanFieldState state;
  state.dark = {0.5, 0.3};
  state.light = {0.1, 0.1};
  const double mass_before = state.total_dark() + state.total_light();
  ode.integrate(state, 25.0, 0.01);
  const double mass_after = state.total_dark() + state.total_light();
  EXPECT_NEAR(mass_before, mass_after, 1e-9);
}

TEST(MeanFieldOde, ConvergesToEquilibriumFromAllDark) {
  const WeightMap weights({1.0, 2.0, 5.0});
  const MeanFieldOde ode(weights);
  MeanFieldState state;
  // All-dark equal split (the paper's initial condition b_u(0) = 1).
  state.dark = {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
  state.light = {0.0, 0.0, 0.0};
  ode.integrate(state, 400.0, 0.01);
  const MeanFieldState eq = equilibrium_state(weights);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(state.dark[i], eq.dark[i], 1e-6) << "dark " << i;
    EXPECT_NEAR(state.light[i], eq.light[i], 1e-6) << "light " << i;
  }
}

TEST(MeanFieldOde, ConvergesFromSkewedStart) {
  const WeightMap weights({2.0, 2.0});
  const MeanFieldOde ode(weights);
  MeanFieldState state;
  state.dark = {0.9, 0.02};
  state.light = {0.04, 0.04};
  ode.integrate(state, 600.0, 0.01);
  const MeanFieldState eq = equilibrium_state(weights);
  EXPECT_NEAR(state.dark[0], eq.dark[0], 1e-5);
  EXPECT_NEAR(state.dark[1], eq.dark[1], 1e-5);
}

TEST(MeanFieldOde, IntegrateToFixedPointReportsTime) {
  const WeightMap weights({1.0, 1.0});
  const MeanFieldOde ode(weights);
  MeanFieldState state;
  state.dark = {0.6, 0.4};
  state.light = {0.0, 0.0};
  const double elapsed =
      ode.integrate_to_fixed_point(state, 1e-10, 1e4, 0.05);
  EXPECT_GT(elapsed, 0.0);
  EXPECT_LT(elapsed, 1e4);  // must actually converge
  const MeanFieldState d = ode.derivative(state);
  for (const double v : d.dark) EXPECT_NEAR(v, 0.0, 1e-9);
}

TEST(MeanFieldOde, FromCountsNormalises) {
  const auto state = MeanFieldOde::from_counts({3, 1}, {0, 4});
  EXPECT_NEAR(state.dark[0], 3.0 / 8.0, 1e-12);
  EXPECT_NEAR(state.light[1], 4.0 / 8.0, 1e-12);
  EXPECT_THROW((void)MeanFieldOde::from_counts({}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)MeanFieldOde::from_counts({0}, {0}),
               std::invalid_argument);
}

TEST(MeanFieldOde, ParameterValidation) {
  const MeanFieldOde ode(WeightMap({1.0}));
  MeanFieldState state;
  state.dark = {1.0};
  state.light = {0.0};
  EXPECT_THROW(ode.integrate(state, -1.0, 0.1), std::invalid_argument);
  EXPECT_THROW(ode.integrate(state, 1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(
      (void)ode.integrate_to_fixed_point(state, 0.0, 1.0, 0.1),
      std::invalid_argument);
}

TEST(MeanFieldOde, HeavierColourDominatesAtEquilibrium) {
  const WeightMap weights({1.0, 8.0});
  const MeanFieldOde ode(weights);
  MeanFieldState state;
  state.dark = {0.5, 0.5};
  state.light = {0.0, 0.0};
  ode.integrate(state, 500.0, 0.01);
  EXPECT_GT(state.dark[1], state.dark[0]);
  // Support ratio ≈ weight ratio.
  const double support0 = state.dark[0] + state.light[0];
  const double support1 = state.dark[1] + state.light[1];
  EXPECT_NEAR(support1 / support0, 8.0, 0.05);
}

// predict_counts_after: the integer fluid-limit prediction preserves the
// population exactly and never goes negative, from the adversarial start
// (everyone dark on colour 0 but one agent per other colour) where the
// drift is largest.
TEST(MeanFieldOde, PredictCountsAfterConservesThePopulation) {
  const MeanFieldOde ode(WeightMap({4.0, 1.0, 1.0, 2.0}));
  const std::vector<std::int64_t> dark = {12'342, 1, 1, 1};
  const std::vector<std::int64_t> light = {0, 0, 0, 0};
  for (const std::int64_t horizon : {0LL, 100LL, 10'000LL, 1'000'000LL}) {
    const MeanFieldOde::PredictedCounts p =
        ode.predict_counts_after(dark, light, horizon);
    ASSERT_EQ(p.dark.size(), 4u);
    ASSERT_EQ(p.light.size(), 4u);
    std::int64_t total = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(p.dark[i], 0);
      EXPECT_GE(p.light[i], 0);
      total += p.dark[i] + p.light[i];
    }
    EXPECT_EQ(total, 12'345) << "horizon " << horizon;
  }
  // A zero window is the identity.
  const MeanFieldOde::PredictedCounts same =
      ode.predict_counts_after(dark, light, 0);
  EXPECT_EQ(same.dark, dark);
  EXPECT_EQ(same.light, light);
}

TEST(MeanFieldOde, PredictCountsAfterValidation) {
  const MeanFieldOde ode(WeightMap({1.0, 2.0}));
  const std::vector<std::int64_t> two = {5, 5};
  const std::vector<std::int64_t> three = {5, 5, 0};
  EXPECT_THROW((void)ode.predict_counts_after(two, two, -1),
               std::invalid_argument);
  EXPECT_THROW((void)ode.predict_counts_after(three, two, 10),
               std::invalid_argument);
  EXPECT_THROW((void)ode.predict_counts_after(two, three, 10),
               std::invalid_argument);
}

}  // namespace
