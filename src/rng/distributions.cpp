#include "rng/distributions.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace divpp::rng {

std::int64_t uniform_below(Xoshiro256& gen, std::int64_t bound) {
  if (bound < 1) throw std::invalid_argument("uniform_below: bound must be >= 1");
  const auto range = static_cast<std::uint64_t>(bound);
  // Lemire's multiply-shift with rejection: exact uniformity.
  std::uint64_t x = gen();
  __uint128_t m = static_cast<__uint128_t>(x) * range;
  auto low = static_cast<std::uint64_t>(m);
  if (low < range) {
    const std::uint64_t threshold = (0 - range) % range;
    while (low < threshold) {
      x = gen();
      m = static_cast<__uint128_t>(x) * range;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::int64_t>(m >> 64);
}

std::int64_t uniform_int(Xoshiro256& gen, std::int64_t lo, std::int64_t hi) {
  if (lo > hi) throw std::invalid_argument("uniform_int: lo must be <= hi");
  return lo + uniform_below(gen, hi - lo + 1);
}

double uniform01(Xoshiro256& gen) {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

bool bernoulli(Xoshiro256& gen, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01(gen) < p;
}

void detail::throw_geometric_domain() {
  throw std::invalid_argument("geometric_failures: p must be in (0, 1]");
}

std::pair<std::int64_t, std::int64_t> two_distinct(Xoshiro256& gen,
                                                   std::int64_t n) {
  if (n < 2) throw std::invalid_argument("two_distinct: need n >= 2");
  const std::int64_t first = uniform_below(gen, n);
  std::int64_t second = uniform_below(gen, n - 1);
  if (second >= first) ++second;
  return {first, second};
}

std::int64_t sample_discrete(Xoshiro256& gen,
                             std::span<const double> weights) {
  if (weights.empty())
    throw std::invalid_argument("sample_discrete: empty weight vector");
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0)
      throw std::invalid_argument("sample_discrete: negative weight");
    total += w;
  }
  if (!(total > 0.0))
    throw std::invalid_argument("sample_discrete: weights sum to zero");
  double target = uniform01(gen) * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(weights.size() - 1);
}

std::int64_t sample_counts(Xoshiro256& gen,
                           std::span<const std::int64_t> counts,
                           std::int64_t total) {
  if (total <= 0) throw std::invalid_argument("sample_counts: total <= 0");
  std::int64_t target = uniform_below(gen, total);
  for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
    target -= counts[i];
    if (target < 0) return static_cast<std::int64_t>(i);
  }
  return static_cast<std::int64_t>(counts.size() - 1);
}

void shuffle(Xoshiro256& gen, std::span<std::int64_t> values) {
  const auto n = static_cast<std::int64_t>(values.size());
  for (std::int64_t i = n - 1; i > 0; --i) {
    const std::int64_t j = uniform_below(gen, i + 1);
    std::swap(values[static_cast<std::size_t>(i)],
              values[static_cast<std::size_t>(j)]);
  }
}

std::vector<std::int64_t> random_permutation(Xoshiro256& gen, std::int64_t n) {
  if (n < 0) throw std::invalid_argument("random_permutation: n must be >= 0");
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), std::int64_t{0});
  shuffle(gen, perm);
  return perm;
}

}  // namespace divpp::rng
