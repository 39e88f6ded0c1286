// Tests for the statistics substrate: online moments, quantiles,
// chi-square, linear fits, and the paper's potential functions on
// hand-worked examples.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "stats/online_stats.h"
#include "stats/potentials.h"

namespace {

using divpp::stats::OnlineStats;

TEST(OnlineStats, EmptyDefaults) {
  OnlineStats s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_TRUE(std::isinf(s.min()));
  EXPECT_TRUE(std::isinf(s.max()));
}

TEST(OnlineStats, MatchesNaiveComputation) {
  const std::vector<double> xs = {1.5, -2.0, 3.25, 0.0, 7.5, -1.25};
  OnlineStats s;
  for (const double x : xs) s.add(x);
  double mean = 0.0;
  for (const double x : xs) mean += x;
  mean /= static_cast<double>(xs.size());
  double var = 0.0;
  for (const double x : xs) var += (x - mean) * (x - mean);
  var /= static_cast<double>(xs.size() - 1);
  EXPECT_EQ(s.count(), static_cast<std::int64_t>(xs.size()));
  EXPECT_NEAR(s.mean(), mean, 1e-12);
  EXPECT_NEAR(s.variance(), var, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(var), 1e-12);
  EXPECT_EQ(s.min(), -2.0);
  EXPECT_EQ(s.max(), 7.5);
  EXPECT_NEAR(s.sum(), mean * static_cast<double>(xs.size()), 1e-12);
}

TEST(OnlineStats, SingleObservationHasZeroVariance) {
  OnlineStats s;
  s.add(4.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.mean(), 4.0);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats whole;
  OnlineStats left;
  OnlineStats right;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(static_cast<double>(i));
    whole.add(x);
    (i < 40 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-12);
  EXPECT_EQ(left.min(), whole.min());
  EXPECT_EQ(left.max(), whole.max());
}

TEST(OnlineStats, MergeWithEmptyIsIdentity) {
  OnlineStats a;
  a.add(1.0);
  a.add(2.0);
  OnlineStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2);
  OnlineStats b;
  b.merge(a);
  EXPECT_EQ(b.count(), 2);
  EXPECT_NEAR(b.mean(), 1.5, 1e-12);
}

TEST(Quantile, InterpolatesLikeNumpy) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_NEAR(divpp::stats::quantile(xs, 0.0), 1.0, 1e-12);
  EXPECT_NEAR(divpp::stats::quantile(xs, 1.0), 4.0, 1e-12);
  EXPECT_NEAR(divpp::stats::quantile(xs, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(divpp::stats::quantile(xs, 0.25), 1.75, 1e-12);
  EXPECT_NEAR(divpp::stats::median(xs), 2.5, 1e-12);
}

TEST(Quantile, RejectsBadInput) {
  EXPECT_THROW((void)divpp::stats::quantile(std::vector<double>{}, 0.5),
               std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)divpp::stats::quantile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW((void)divpp::stats::quantile(xs, 1.1), std::invalid_argument);
}

TEST(ChiSquare, ZeroWhenObservedMatchesExpected) {
  const std::vector<std::int64_t> observed = {50, 50};
  const std::vector<double> expected = {0.5, 0.5};
  EXPECT_NEAR(divpp::stats::chi_square_statistic(observed, expected), 0.0,
              1e-12);
}

TEST(ChiSquare, HandComputedValue) {
  // Observed {60, 40}, expected uniform over 100: (10²/50)·2 = 4.
  const std::vector<std::int64_t> observed = {60, 40};
  const std::vector<double> expected = {0.5, 0.5};
  EXPECT_NEAR(divpp::stats::chi_square_statistic(observed, expected), 4.0,
              1e-12);
}

TEST(ChiSquare, CriticalValueIncreasingInDf) {
  double prev = 0.0;
  for (std::int64_t df = 1; df <= 50; ++df) {
    const double crit = divpp::stats::chi_square_critical_001(df);
    EXPECT_GT(crit, prev);
    prev = crit;
  }
  // df=10 at the 0.999 level is ≈ 29.6.
  EXPECT_NEAR(divpp::stats::chi_square_critical_001(10), 29.6, 1.0);
}

TEST(LinearFit, ExactLineRecovered) {
  const std::vector<double> xs = {0.0, 1.0, 2.0, 3.0};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(2.5 * x - 1.0);
  const auto fit = divpp::stats::linear_fit(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, RejectsDegenerateInput) {
  const std::vector<double> xs = {1.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0};
  EXPECT_THROW((void)divpp::stats::linear_fit(xs, ys), std::invalid_argument);
  EXPECT_THROW((void)divpp::stats::linear_fit(std::vector<double>{1.0},
                                              std::vector<double>{1.0}),
               std::invalid_argument);
}

// ---- potential functions (paper §2.2, §2.3) ----------------------------

TEST(Potentials, ZeroAtPerfectBalance) {
  // values/weights all equal ⇒ every pairwise term vanishes.
  const std::vector<std::int64_t> values = {10, 20, 40};
  const std::vector<double> weights = {1.0, 2.0, 4.0};
  EXPECT_NEAR(divpp::stats::pairwise_potential(values, weights), 0.0, 1e-9);
}

TEST(Potentials, HandComputedPairwise) {
  // q = {4, 1} ⇒ Σ_{i,j} (q_i − q_j)² = 2·(3)² = 18.
  const std::vector<std::int64_t> values = {4, 2};
  const std::vector<double> weights = {1.0, 2.0};
  EXPECT_NEAR(divpp::stats::pairwise_potential(values, weights), 18.0, 1e-9);
}

TEST(Potentials, PhiPsiAreAliases) {
  const std::vector<std::int64_t> values = {7, 3, 9};
  const std::vector<double> weights = {1.0, 1.0, 2.0};
  const double expected = divpp::stats::pairwise_potential(values, weights);
  EXPECT_EQ(divpp::stats::phi_potential(values, weights), expected);
  EXPECT_EQ(divpp::stats::psi_potential(values, weights), expected);
}

TEST(Potentials, MeanCenteredIdentity) {
  // Eq. (3): (1/k) Σ (q_i − x̄)² = pairwise / (2k²).
  const std::vector<std::int64_t> values = {5, 9, 2, 14};
  const std::vector<double> weights = {1.0, 3.0, 1.0, 2.0};
  const double pairwise = divpp::stats::pairwise_potential(values, weights);
  const double centered =
      divpp::stats::mean_centered_potential(values, weights);
  EXPECT_NEAR(centered, pairwise / (2.0 * 16.0), 1e-9);
}

TEST(Potentials, SigmaHandComputed) {
  // σ² = (A/W − a)², A = 12, a = 3, W = 3 ⇒ (4 − 3)² = 1.
  EXPECT_NEAR(divpp::stats::sigma_potential(12, 3, 3.0), 1.0, 1e-12);
  EXPECT_THROW((void)divpp::stats::sigma_potential(1, 1, 0.0),
               std::invalid_argument);
}

TEST(Potentials, DiversityErrorAtFairSharesIsZero) {
  const std::vector<std::int64_t> supports = {25, 50, 25};
  const std::vector<double> weights = {1.0, 2.0, 1.0};
  EXPECT_NEAR(divpp::stats::diversity_error(supports, weights), 0.0, 1e-12);
}

TEST(Potentials, DiversityErrorHandComputed) {
  // n = 100, fair shares (0.5, 0.5), supports (70, 30) ⇒ error 0.2.
  const std::vector<std::int64_t> supports = {70, 30};
  const std::vector<double> weights = {1.0, 1.0};
  EXPECT_NEAR(divpp::stats::diversity_error(supports, weights), 0.2, 1e-12);
}

TEST(Potentials, L2ShareError) {
  const std::vector<std::int64_t> supports = {75, 25};
  const std::vector<double> weights = {1.0, 1.0};
  // (0.25)² + (−0.25)² = 0.125.
  EXPECT_NEAR(divpp::stats::l2_share_error(supports, weights), 0.125, 1e-12);
}

TEST(Potentials, RejectsInvalidInput) {
  const std::vector<std::int64_t> values = {1, 2};
  EXPECT_THROW((void)divpp::stats::pairwise_potential(
                   values, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::stats::pairwise_potential(
                   values, std::vector<double>{1.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW((void)divpp::stats::diversity_error(
                   std::vector<std::int64_t>{0, 0},
                   std::vector<double>{1.0, 1.0}),
               std::invalid_argument);
}

}  // namespace
