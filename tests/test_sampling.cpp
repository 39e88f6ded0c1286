// Tests for the sampling subsystem: Fenwick update/prefix/find unit
// semantics, exact agreement of the Fenwick draw mapping with the linear
// scans of rng/distributions.h, chi-square distributional checks pinning
// every sampler (Fenwick counts, Fenwick propensities, alias table) to
// the linear-scan references.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "rng/distributions.h"
#include "rng/xoshiro.h"
#include "sampling/alias.h"
#include "sampling/fenwick.h"

namespace {

using divpp::rng::Xoshiro256;
using divpp::sampling::AliasTable;
using divpp::sampling::FenwickCounts;
using divpp::sampling::FenwickPropensities;

/// Pearson chi-square statistic of observed hits against an expected pmf.
double chi_square(const std::vector<std::int64_t>& hits,
                  const std::vector<double>& pmf, std::int64_t draws) {
  double chi2 = 0.0;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    const double expected = pmf[i] * static_cast<double>(draws);
    if (expected <= 0.0) {
      EXPECT_EQ(hits[i], 0) << "mass on a zero-probability category " << i;
      continue;
    }
    const double diff = static_cast<double>(hits[i]) - expected;
    chi2 += diff * diff / expected;
  }
  return chi2;
}

// 99.9% chi-square quantiles by degrees of freedom (k - 1); the seeds are
// fixed, so these tests are deterministic — a failure means a real bias,
// not an unlucky run.
double chi2_crit(std::size_t df) {
  switch (df) {
    case 1: return 10.83;
    case 3: return 16.27;
    case 7: return 24.32;
    case 15: return 37.70;
    case 31: return 61.10;
    case 63: return 103.4;
    default: {
      // Wilson–Hilferty approximation, fine for the remaining sizes.
      const double d = static_cast<double>(df);
      const double z = 3.09;  // 99.9% normal quantile
      const double t = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
      return d * t * t * t;
    }
  }
}

// ---- FenwickCounts unit semantics -----------------------------------------

TEST(FenwickCounts, BuildPrefixAndTotal) {
  const std::vector<std::int64_t> counts = {3, 0, 5, 1, 0, 7, 2};
  const FenwickCounts tree(counts);
  EXPECT_EQ(tree.size(), 7);
  EXPECT_EQ(tree.total(), 18);
  std::int64_t running = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(tree.prefix(static_cast<std::int64_t>(i)), running) << i;
    EXPECT_EQ(tree.get(static_cast<std::int64_t>(i)), counts[i]) << i;
    running += counts[i];
  }
  EXPECT_EQ(tree.prefix(tree.size()), 18);
}

TEST(FenwickCounts, AddAndSetKeepPrefixesConsistent) {
  std::vector<std::int64_t> counts = {2, 4, 1, 9, 0, 3};
  FenwickCounts tree(counts);
  Xoshiro256 gen(101);
  for (int round = 0; round < 500; ++round) {
    const auto i = static_cast<std::size_t>(
        divpp::rng::uniform_below(gen, tree.size()));
    if (round % 2 == 0) {
      const std::int64_t delta =
          divpp::rng::uniform_int(gen, -counts[i], 5);
      counts[i] += delta;
      tree.add(static_cast<std::int64_t>(i), delta);
    } else {
      const std::int64_t value = divpp::rng::uniform_below(gen, 12);
      counts[i] = value;
      tree.set(static_cast<std::int64_t>(i), value);
    }
    std::int64_t running = 0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
      ASSERT_EQ(tree.prefix(static_cast<std::int64_t>(j)), running);
      running += counts[j];
    }
    ASSERT_EQ(tree.total(), running);
  }
}

TEST(FenwickCounts, PushBackExtendsTheTree) {
  FenwickCounts tree;
  std::vector<std::int64_t> counts;
  for (std::int64_t v : {5, 0, 3, 3, 8, 1, 0, 2, 6}) {
    tree.push_back(v);
    counts.push_back(v);
    ASSERT_EQ(tree.size(), static_cast<std::int64_t>(counts.size()));
    ASSERT_EQ(tree.total(),
              std::accumulate(counts.begin(), counts.end(), std::int64_t{0}));
    std::int64_t running = 0;
    for (std::size_t j = 0; j < counts.size(); ++j) {
      ASSERT_EQ(tree.prefix(static_cast<std::int64_t>(j)), running);
      running += counts[j];
    }
  }
}

TEST(FenwickCounts, FindMatchesLinearScanExactly) {
  // The strongest pin: for EVERY flattened position the Fenwick descent
  // must land on the same category as the linear scan.
  const std::vector<std::int64_t> counts = {3, 0, 5, 1, 0, 7, 2, 0, 4};
  const FenwickCounts tree(counts);
  std::int64_t position = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    for (std::int64_t c = 0; c < counts[i]; ++c, ++position) {
      ASSERT_EQ(tree.find(position), static_cast<std::int64_t>(i))
          << "position " << position;
    }
  }
  EXPECT_EQ(position, tree.total());
}

TEST(FenwickCounts, FindExcludingMatchesAdjustedScan) {
  const std::vector<std::int64_t> counts = {2, 1, 4, 0, 3};
  const FenwickCounts tree(counts);
  for (std::size_t e = 0; e < counts.size(); ++e) {
    if (counts[e] == 0) continue;
    std::vector<std::int64_t> adjusted = counts;
    --adjusted[e];
    std::int64_t position = 0;
    for (std::size_t i = 0; i < adjusted.size(); ++i) {
      for (std::int64_t c = 0; c < adjusted[i]; ++c, ++position) {
        ASSERT_EQ(tree.find_excluding(position, static_cast<std::int64_t>(e)),
                  static_cast<std::int64_t>(i))
            << "excluded " << e << " position " << position;
      }
    }
  }
}

TEST(ScanFindExcluding, MatchesTheTreeOnEveryTargetAndExclusion) {
  // The count chain draws classes by the counting scan at or below its
  // scan/tree cutoff (16) and by the tree above it; trajectories are
  // stream-identical across the cutoff only if both return the same
  // index everywhere.  Exhaustive over k = 1..17, every exclusion
  // (including none) and every target, on random count vectors over
  // {0, 1, 2, 5} (zero cells land anywhere) plus one vector that is
  // zero but for a single unit.
  const std::int64_t cell_values[] = {0, 1, 2, 5};
  for (std::int64_t k = 1; k <= 17; ++k) {
    Xoshiro256 gen(0x5ca9ULL + static_cast<std::uint64_t>(k));
    for (int trial = 0; trial < 24; ++trial) {
      std::vector<std::int64_t> counts(static_cast<std::size_t>(k));
      for (auto& c : counts)
        c = cell_values[divpp::rng::uniform_below(gen, 4)];
      if (trial == 0) std::fill(counts.begin(), counts.end(), 0);
      counts[static_cast<std::size_t>(trial % k)] += 1;  // total >= 1
      const FenwickCounts tree(counts);
      for (std::int64_t excluded = -1; excluded < k; ++excluded) {
        if (excluded >= 0 && counts[static_cast<std::size_t>(excluded)] == 0)
          continue;
        const std::int64_t available = tree.total() - (excluded >= 0 ? 1 : 0);
        for (std::int64_t target = 0; target < available; ++target) {
          ASSERT_EQ(divpp::sampling::scan_find_excluding(counts, target,
                                                          excluded),
                    tree.find_excluding(target, excluded))
              << "k " << k << " trial " << trial << " excluded " << excluded
              << " target " << target;
        }
      }
    }
  }
}

// ---- FenwickPropensities unit semantics -----------------------------------

TEST(FenwickPropensities, TotalTracksUpdates) {
  std::vector<double> weights = {0.5, 2.0, 0.0, 1.25};
  FenwickPropensities tree(weights);
  EXPECT_NEAR(tree.total(), 3.75, 1e-12);
  tree.set(2, 4.0);
  EXPECT_NEAR(tree.total(), 7.75, 1e-12);
  tree.set(0, 0.0);
  EXPECT_NEAR(tree.total(), 7.25, 1e-12);
  EXPECT_EQ(tree.get(0), 0.0);
  EXPECT_EQ(tree.get(2), 4.0);
}

TEST(FenwickPropensities, ManyUpdatesStayDriftFree) {
  // Hammer one tree with far more updates than the rebuild period and
  // compare against a freshly built tree over the same leaves.
  const std::size_t k = 37;
  std::vector<double> weights(k, 1.0);
  FenwickPropensities tree(weights);
  Xoshiro256 gen(102);
  for (int round = 0; round < 20'000; ++round) {
    const auto i = static_cast<std::size_t>(
        divpp::rng::uniform_below(gen, static_cast<std::int64_t>(k)));
    weights[i] = divpp::rng::uniform01(gen) * 3.0;
    tree.set(static_cast<std::int64_t>(i), weights[i]);
  }
  const FenwickPropensities fresh(weights);
  EXPECT_NEAR(tree.total(), fresh.total(), 1e-9 * fresh.total());
}

TEST(FenwickPropensities, FindNeverReturnsZeroWeightCategory) {
  const std::vector<double> weights = {0.0, 0.0, 2.5, 0.0, 0.5, 0.0};
  const FenwickPropensities tree(weights);
  Xoshiro256 gen(103);
  for (int i = 0; i < 5000; ++i) {
    const std::int64_t idx = tree.sample(gen);
    ASSERT_TRUE(idx == 2 || idx == 4) << idx;
  }
}

TEST(FenwickPropensities, PushBackExtendsTheTree) {
  FenwickPropensities tree;
  tree.push_back(1.0);
  tree.push_back(0.0);
  tree.push_back(3.0);
  EXPECT_EQ(tree.size(), 3);
  EXPECT_NEAR(tree.total(), 4.0, 1e-12);
  EXPECT_EQ(tree.get(2), 3.0);
}

// ---- chi-square pins against the linear-scan references -------------------

TEST(SamplingChiSquare, FenwickCountsMatchesSampleCounts) {
  const std::vector<std::int64_t> counts = {1, 7, 0, 3, 12, 2, 5, 2};
  const std::int64_t total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  std::vector<double> pmf(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i)
    pmf[i] = static_cast<double>(counts[i]) / static_cast<double>(total);

  const FenwickCounts tree(counts);
  constexpr std::int64_t kDraws = 120'000;
  std::vector<std::int64_t> fenwick_hits(counts.size(), 0);
  std::vector<std::int64_t> linear_hits(counts.size(), 0);
  Xoshiro256 gen_fenwick(105);
  Xoshiro256 gen_linear(106);
  for (std::int64_t d = 0; d < kDraws; ++d) {
    ++fenwick_hits[static_cast<std::size_t>(tree.sample(gen_fenwick))];
    ++linear_hits[static_cast<std::size_t>(
        divpp::rng::sample_counts(gen_linear, counts, total))];
  }
  const double crit = chi2_crit(counts.size() - 2);  // one zero category
  EXPECT_LT(chi_square(fenwick_hits, pmf, kDraws), crit);
  EXPECT_LT(chi_square(linear_hits, pmf, kDraws), crit);
}

TEST(SamplingChiSquare, FenwickCountsSameDrawSameResultAsLinearScan) {
  // Sharper than distributional: fed the same generator state, the
  // Fenwick draw must return the identical category as the linear scan,
  // draw for draw (both consume one uniform_below(total)).
  const std::vector<std::int64_t> counts = {4, 0, 9, 1, 6, 0, 2};
  const std::int64_t total = 22;
  const FenwickCounts tree(counts);
  Xoshiro256 gen_a(107);
  Xoshiro256 gen_b(107);
  for (int d = 0; d < 20'000; ++d) {
    ASSERT_EQ(tree.sample(gen_a),
              divpp::rng::sample_counts(gen_b, counts, total));
  }
}

TEST(SamplingChiSquare, FenwickPropensitiesMatchesSampleDiscrete) {
  const std::vector<double> weights = {0.25, 3.0, 0.0, 1.5, 2.25, 0.5, 8.0,
                                       0.75};
  const double total = 16.25;
  std::vector<double> pmf(weights.size());
  for (std::size_t i = 0; i < weights.size(); ++i) pmf[i] = weights[i] / total;

  const FenwickPropensities tree(weights);
  constexpr std::int64_t kDraws = 120'000;
  std::vector<std::int64_t> fenwick_hits(weights.size(), 0);
  std::vector<std::int64_t> linear_hits(weights.size(), 0);
  Xoshiro256 gen_fenwick(108);
  Xoshiro256 gen_linear(109);
  for (std::int64_t d = 0; d < kDraws; ++d) {
    ++fenwick_hits[static_cast<std::size_t>(tree.sample(gen_fenwick))];
    ++linear_hits[static_cast<std::size_t>(
        divpp::rng::sample_discrete(gen_linear, weights))];
  }
  const double crit = chi2_crit(weights.size() - 2);  // one zero category
  EXPECT_LT(chi_square(fenwick_hits, pmf, kDraws), crit);
  EXPECT_LT(chi_square(linear_hits, pmf, kDraws), crit);
}

TEST(SamplingChiSquare, AliasTableMatchesSampleDiscrete) {
  const std::vector<double> weights = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> pmf = {0.1, 0.2, 0.3, 0.4};
  const AliasTable table(weights);
  constexpr std::int64_t kDraws = 200'000;
  std::vector<std::int64_t> alias_hits(weights.size(), 0);
  std::vector<std::int64_t> linear_hits(weights.size(), 0);
  Xoshiro256 gen_alias(110);
  Xoshiro256 gen_linear(111);
  for (std::int64_t d = 0; d < kDraws; ++d) {
    ++alias_hits[static_cast<std::size_t>(table.sample(gen_alias))];
    ++linear_hits[static_cast<std::size_t>(
        divpp::rng::sample_discrete(gen_linear, weights))];
  }
  const double crit = chi2_crit(weights.size() - 1);
  EXPECT_LT(chi_square(alias_hits, pmf, kDraws), crit);
  EXPECT_LT(chi_square(linear_hits, pmf, kDraws), crit);
}

TEST(SamplingChiSquare, LargePaletteFenwickStaysUnbiased) {
  // k = 64 with a skewed count profile — the large-k regime the Fenwick
  // samplers exist for.
  constexpr std::size_t k = 64;
  std::vector<std::int64_t> counts(k);
  for (std::size_t i = 0; i < k; ++i)
    counts[i] = static_cast<std::int64_t>(1 + (i % 7) * (i % 7));
  const std::int64_t total =
      std::accumulate(counts.begin(), counts.end(), std::int64_t{0});
  std::vector<double> pmf(k);
  for (std::size_t i = 0; i < k; ++i)
    pmf[i] = static_cast<double>(counts[i]) / static_cast<double>(total);
  const FenwickCounts tree(counts);
  constexpr std::int64_t kDraws = 400'000;
  std::vector<std::int64_t> hits(k, 0);
  Xoshiro256 gen(112);
  for (std::int64_t d = 0; d < kDraws; ++d)
    ++hits[static_cast<std::size_t>(tree.sample(gen))];
  EXPECT_LT(chi_square(hits, pmf, kDraws), chi2_crit(k - 1));
}

// ---- AliasTable unit tests (moved from test_rng.cpp) ----------------------

TEST(AliasTable, NormalisesProbabilities) {
  const std::vector<double> weights = {2.0, 6.0};
  const AliasTable table(weights);
  EXPECT_EQ(table.size(), 2);
  EXPECT_NEAR(table.probability(0), 0.25, 1e-12);
  EXPECT_NEAR(table.probability(1), 0.75, 1e-12);
}

TEST(AliasTable, SingleCategory) {
  Xoshiro256 gen(23);
  const AliasTable table(std::vector<double>{5.0});
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.sample(gen), 0);
}

TEST(AliasTable, RejectsInvalidInput) {
  EXPECT_THROW(AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{1.0, -2.0}),
               std::invalid_argument);
  EXPECT_THROW(AliasTable(std::vector<double>{0.0}), std::invalid_argument);
  EXPECT_THROW((void)AliasTable(std::vector<double>{1.0}).probability(9),
               std::out_of_range);
}

TEST(FenwickValidation, RejectsNegativeInput) {
  EXPECT_THROW(FenwickCounts(std::vector<std::int64_t>{1, -2}),
               std::invalid_argument);
  EXPECT_THROW(FenwickPropensities(std::vector<double>{1.0, -0.5}),
               std::invalid_argument);
  FenwickCounts counts;
  EXPECT_THROW(counts.push_back(-1), std::invalid_argument);
  FenwickPropensities props;
  EXPECT_THROW(props.push_back(-1.0), std::invalid_argument);
}

}  // namespace
