#ifndef DIVPP_RNG_DISTRIBUTIONS_H
#define DIVPP_RNG_DISTRIBUTIONS_H

/// \file distributions.h
/// Bias-free sampling primitives used by the simulation engines.
///
/// All bounded integer sampling goes through Lemire's multiply-shift
/// method with rejection, which is exact (no modulo bias) and branch-light.
/// Counts and indices are signed 64-bit throughout the library (per the
/// C++ Core Guidelines' advice to avoid unsigned arithmetic), so these
/// helpers take and return std::int64_t.

#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rng/xoshiro.h"

namespace divpp::rng {

/// Uniform draw from {0, 1, ..., bound-1}.  \pre bound >= 1.
[[nodiscard]] std::int64_t uniform_below(Xoshiro256& gen, std::int64_t bound);

/// Uniform draw from {lo, ..., hi} inclusive.  \pre lo <= hi.
[[nodiscard]] std::int64_t uniform_int(Xoshiro256& gen, std::int64_t lo,
                                       std::int64_t hi);

/// Uniform double in [0, 1) with 53 random mantissa bits.
[[nodiscard]] double uniform01(Xoshiro256& gen);

/// Bernoulli trial; returns true with probability p (clamped to [0,1]).
[[nodiscard]] bool bernoulli(Xoshiro256& gen, double p);

/// Ceiling returned by geometric_failures() when inversion overflows.
/// For p ≈ 0 the inversion value floor(log U / log(1-p)) can exceed the
/// int64 range (p = 1e-300 yields ~3.7e301); any value this large is far
/// beyond every horizon the engines use (jump chains cap skips at the
/// window edge), so clamping is observationally exact.  The constant is
/// below INT64_MAX by a comfortable margin so callers may add small
/// offsets (e.g. `time + skip`) without overflow.
inline constexpr std::int64_t kGeometricFailuresCeiling =
    std::int64_t{9'000'000'000'000'000'000};  // 9.0e18 < 2^63 - 1

namespace detail {
/// geometric_failures' out-of-line throw for p outside (0, 1].
[[noreturn]] void throw_geometric_domain();
}  // namespace detail

/// Number of failures before the first success in iid Bernoulli(p) trials
/// (i.e. a geometric variable supported on {0, 1, 2, ...}).
/// Sampled by inversion so a single uniform suffices.  \pre p in (0, 1].
/// Edge behaviour: p == 1 returns 0 *without consuming a uniform* (the
/// outcome is deterministic, and skipping the draw keeps jump-chain RNG
/// sequences aligned across engines that special-case certain steps);
/// when p is so small that inversion exceeds the int64 range the result
/// is clamped to kGeometricFailuresCeiling (see its comment).
/// Inline: it is the jump chain's per-transition skip.
[[nodiscard]] inline std::int64_t geometric_failures(Xoshiro256& gen,
                                                     double p) {
  if (!(p > 0.0) || p > 1.0) detail::throw_geometric_domain();
  if (p == 1.0) return 0;  // deterministic: no uniform consumed
  // Inversion: floor(log(U) / log(1-p)) with U in (0, 1].
  const double u = 1.0 - uniform01(gen);  // in (0, 1]
  const double denom = std::log1p(-p);
  const double value = std::log(u) / denom;
  // Overflow guard: for p ≈ 0 the quotient exceeds the int64 range (the
  // smallest representable U bounds |log U| by ~37, so value can reach
  // ~37/p, or ±inf/NaN when log1p underflows to -0); clamp to the
  // documented ceiling instead of invoking UB in the float→int
  // conversion.  Negated comparison so NaN also lands on the ceiling.
  if (!(value < static_cast<double>(kGeometricFailuresCeiling)))
    return kGeometricFailuresCeiling;
  // log(U) <= 0 and log1p(-p) < 0, so the quotient is >= 0 (U = 1 gives
  // -0.0): truncation toward zero is the floor.
  return static_cast<std::int64_t>(value);
}

/// Uniformly random pair of *distinct* indices from {0, ..., n-1}.
/// \pre n >= 2.
[[nodiscard]] std::pair<std::int64_t, std::int64_t> two_distinct(
    Xoshiro256& gen, std::int64_t n);

/// Samples an index i with probability weights[i] / sum(weights) by linear
/// scan.  Retained as the O(k) *reference* sampler: the engines' hot paths
/// use the Fenwick trees in sampling/fenwick.h, and the distributional
/// tests pin those trees against this scan.
/// \pre weights non-empty, all >= 0, sum > 0.
[[nodiscard]] std::int64_t sample_discrete(Xoshiro256& gen,
                                           std::span<const double> weights);

/// Same as sample_discrete but over integer counts — the O(k) reference
/// for sampling::FenwickCounts.  \pre total == sum(counts) > 0.
[[nodiscard]] std::int64_t sample_counts(Xoshiro256& gen,
                                         std::span<const std::int64_t> counts,
                                         std::int64_t total);

/// Fisher–Yates shuffle (deterministic given the generator state).
void shuffle(Xoshiro256& gen, std::span<std::int64_t> values);

/// A uniformly random permutation of {0, ..., n-1}.
[[nodiscard]] std::vector<std::int64_t> random_permutation(Xoshiro256& gen,
                                                           std::int64_t n);

// The Walker/Vose alias table moved to sampling/alias.h
// (divpp::sampling::AliasTable) as part of the sampling subsystem.

}  // namespace divpp::rng

#endif  // DIVPP_RNG_DISTRIBUTIONS_H
