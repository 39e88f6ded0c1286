#ifndef DIVPP_SAMPLING_FENWICK_H
#define DIVPP_SAMPLING_FENWICK_H

/// \file fenwick.h
/// Fenwick-tree (binary indexed tree) dynamic samplers.
///
/// The kinetic-Monte-Carlo workhorse for the lumped count chain: the
/// per-colour counts/propensities change by one entry per transition, so a
/// Fenwick tree gives O(log k) point updates and O(log k) weighted draws
/// where a linear scan pays O(k) per draw.  Two variants:
///
///  * FenwickCounts        — exact integer counts (agent classes);
///  * FenwickPropensities  — double propensities (flip rates), with a
///    periodic rebuild that bounds floating-point drift from incremental
///    deltas.
///
/// Draws map a target into the category ordering exactly like the linear
/// scans in rng/distributions.h (`sample_counts` / `sample_discrete`),
/// which stay as the reference implementations the distributional tests
/// pin these trees against.

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "check/invariant.h"
#include "rng/xoshiro.h"

namespace divpp::sampling {

namespace detail {

[[nodiscard]] constexpr std::int64_t lowbit(std::int64_t i) noexcept {
  return i & -i;
}

}  // namespace detail

/// Fenwick tree over non-negative integer counts with O(log k) point
/// update, prefix sum, and weighted category draw.
class FenwickCounts {
 public:
  FenwickCounts() = default;
  /// Builds over a copy of `counts` in O(k).  \pre all counts >= 0.
  explicit FenwickCounts(std::span<const std::int64_t> counts);

  /// Rebuilds over `counts` in O(k) (structural mutations).
  void assign(std::span<const std::int64_t> counts);

  /// Appends one category holding `value`.  \pre value >= 0.
  void push_back(std::int64_t value);

  /// counts[i] += delta.  \pre the result stays >= 0.  O(log k).
  void add(std::int64_t i, std::int64_t delta) noexcept;

  /// Overwrites counts[i].  \pre value >= 0.  O(log k).
  void set(std::int64_t i, std::int64_t value) noexcept;

  /// Current value of counts[i].  O(1).
  [[nodiscard]] std::int64_t get(std::int64_t i) const noexcept {
    return leaf_[static_cast<std::size_t>(i)];
  }

  /// Sum of counts[0..i) (i may equal size()).  O(log k).
  [[nodiscard]] std::int64_t prefix(std::int64_t i) const noexcept;

  /// Sum of all counts.  O(1).
  [[nodiscard]] std::int64_t total() const noexcept { return total_; }

  /// Number of categories.
  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(leaf_.size());
  }

  /// The category owning flattened position `target`: the smallest i with
  /// prefix(i+1) > target — identical to the linear scan's mapping.
  /// \pre 0 <= target < total().  O(log k).
  [[nodiscard]] std::int64_t find(std::int64_t target) const noexcept {
    return find_excluding(target, -1);
  }

  /// find() over the counts with one unit removed from category
  /// `excluded` (pass -1 for none) — the "minus the tagged/initiator
  /// agent" draw of the count chain, without mutating the tree.
  /// \pre excluded < size(); counts[excluded] >= 1 when excluded >= 0.
  [[nodiscard]] std::int64_t find_excluding(std::int64_t target,
                                            std::int64_t excluded)
      const noexcept;

  /// Draws a category with probability counts[i] / total().
  /// \pre total() >= 1.  Consumes one uniform_below draw.
  [[nodiscard]] std::int64_t sample(rng::Xoshiro256& gen) const;

 private:
  // The tree is padded to a power-of-two capacity with zero leaves: the
  // find descent then needs no bounds check, and its level decisions are
  // computed with mask arithmetic instead of data-dependent branches
  // (random targets mispredict ~50% per level otherwise).  Zero padding
  // is exact for integers: a zero node is always skipped.
  std::vector<std::int64_t> tree_;  // 1-based Fenwick nodes, cap_ + 1 slots
  std::vector<std::int64_t> leaf_;  // raw values, O(1) reads
  std::int64_t total_ = 0;
  std::int64_t cap_ = 0;  // power-of-two capacity >= size()
};

/// The flat-array twin of FenwickCounts::find_excluding: the category
/// owning position `target` among `counts` with one unit removed from
/// category `excluded` (-1 for none), found by a branch-free counting
/// scan — every running prefix that does not exceed `target` moves the
/// index one category right.  Returns the same index as the tree for
/// every target, so swapping one for the other cannot move a stream;
/// for small k the O(k) scan with no data-dependent branch beats the
/// O(log k) descent and needs no tree upkeep on updates.
/// \pre counts non-empty; 0 <= target < sum(counts) - (excluded >= 0);
/// counts[excluded] >= 1 when excluded >= 0.
[[nodiscard]] inline std::int64_t scan_find_excluding(
    std::span<const std::int64_t> counts, std::int64_t target,
    std::int64_t excluded) noexcept {
  const auto k = static_cast<std::int64_t>(counts.size());
  std::int64_t sum = 0;
  std::int64_t index = 0;
  for (std::int64_t i = 0; i < k; ++i) {
    sum += counts[static_cast<std::size_t>(i)] -
           static_cast<std::int64_t>(i == excluded);
    index += static_cast<std::int64_t>(sum <= target);
  }
  // The tree's clamp, so even an out-of-range target maps identically.
  return std::min(index, k - 1);
}

/// Fenwick tree over non-negative double propensities.  Point updates are
/// applied as deltas; every `k` updates the internal nodes are rebuilt
/// from the exactly-stored leaves, so rounding drift never accumulates
/// beyond one rebuild period (amortised O(1) extra per update).
class FenwickPropensities {
 public:
  FenwickPropensities() = default;
  /// Builds over a copy of `weights` in O(k).  \pre all >= 0.
  explicit FenwickPropensities(std::span<const double> weights);

  /// Rebuilds over `weights` in O(k).
  void assign(std::span<const double> weights);

  /// Appends one category holding `weight`.  \pre weight >= 0.
  void push_back(double weight);

  /// Overwrites weights[i].  \pre value >= 0.  Amortised O(log k).
  void set(std::int64_t i, double value) noexcept;

  /// Current value of weights[i].  O(1).
  [[nodiscard]] double get(std::int64_t i) const noexcept {
    return leaf_[static_cast<std::size_t>(i)];
  }

  /// Sum of all weights — O(1) running total, maintained by deltas and
  /// recomputed exactly from the leaves at each periodic rebuild.
  [[nodiscard]] double total() const noexcept { return total_; }

  [[nodiscard]] std::int64_t size() const noexcept {
    return static_cast<std::int64_t>(leaf_.size());
  }

  /// The category owning mass position `target` in [0, total()), with a
  /// fix-up to the nearest positive-weight category should floating-point
  /// descent land on a zero-weight leaf.  \pre some weight > 0.  O(log k).
  [[nodiscard]] std::int64_t find(double target) const noexcept;

  /// Draws category i with probability weights[i] / total().
  /// \pre total() > 0.  Consumes one uniform01 draw.
  [[nodiscard]] std::int64_t sample(rng::Xoshiro256& gen) const;

 private:
  void rebuild() noexcept;
  /// set()'s cold path, once per rebuild period: the checked-build drift
  /// bound on the running total (before `pending_delta` is applied),
  /// then rebuild().
  void periodic_rebuild(double pending_delta) noexcept;

  std::vector<double> tree_;  // 1-based Fenwick nodes
  std::vector<double> leaf_;  // exact values, drift-free
  double total_ = 0.0;
  std::int64_t top_bit_ = 0;
  std::int64_t updates_until_rebuild_ = 0;
};

// ---- hot-path definitions ---------------------------------------------------
// Inline so the jump chain's per-transition point updates and draws
// compile into its loop; the O(k) builders stay in fenwick.cpp.

inline void FenwickCounts::add(std::int64_t i, std::int64_t delta) noexcept {
  SIM_ASSERT(i >= 0 && i < static_cast<std::int64_t>(leaf_.size()));
  leaf_[static_cast<std::size_t>(i)] += delta;
  // Counts are agent tallies: they may never go negative, and the
  // running total mirrors the leaves exactly (integers don't drift).
  SIM_ASSERT(leaf_[static_cast<std::size_t>(i)] >= 0);
  total_ += delta;
  SIM_ASSERT(total_ >= 0);
  for (std::int64_t j = i + 1; j <= cap_; j += detail::lowbit(j))
    tree_[static_cast<std::size_t>(j)] += delta;
}

inline std::int64_t FenwickCounts::find_excluding(std::int64_t target,
                                                  std::int64_t excluded)
    const noexcept {
  // Branch-free descent over the padded tree: each level computes its
  // decision with mask arithmetic, so random targets cost no branch
  // mispredicts.  Zero padding keeps the mapping exact (a zero node can
  // never satisfy `node > target`... it is skipped by `node <= target`
  // only when the remaining mass lies further right, which the invariant
  // target < sum(remaining range) guarantees).
  const std::int64_t* const tree = tree_.data();
  std::int64_t pos = 0;  // 0-based count of leaves strictly left of cursor
  for (std::int64_t bit = cap_; bit > 0; bit >>= 1) {
    const std::int64_t next = pos + bit;
    // tree[next] covers 0-based leaves [pos, next); subtract the excluded
    // unit when its leaf falls inside (unsigned trick handles excluded<0).
    const std::int64_t node =
        tree[next] -
        static_cast<std::int64_t>(
            static_cast<std::uint64_t>(excluded - pos) <
            static_cast<std::uint64_t>(bit));
    const std::int64_t take = -static_cast<std::int64_t>(node <= target);
    target -= node & take;
    pos += bit & take;
  }
  return std::min(pos, static_cast<std::int64_t>(leaf_.size()) - 1);
}

inline void FenwickPropensities::set(std::int64_t i, double value) noexcept {
  SIM_ASSERT(i >= 0 && i < static_cast<std::int64_t>(leaf_.size()));
  SIM_ASSERT(value >= 0.0);
  const double delta = value - leaf_[static_cast<std::size_t>(i)];
  leaf_[static_cast<std::size_t>(i)] = value;
  if (--updates_until_rebuild_ <= 0) {
    periodic_rebuild(delta);
    return;
  }
  total_ += delta;
  const auto n = static_cast<std::int64_t>(leaf_.size());
  for (std::int64_t j = i + 1; j <= n; j += detail::lowbit(j))
    tree_[static_cast<std::size_t>(j)] += delta;
}

inline std::int64_t FenwickPropensities::find(double target) const noexcept {
  const auto n = static_cast<std::int64_t>(leaf_.size());
  std::int64_t pos = 0;
  for (std::int64_t bit = top_bit_; bit > 0; bit >>= 1) {
    const std::int64_t next = pos + bit;
    if (next <= n) {
      const double node = tree_[static_cast<std::size_t>(next)];
      if (node <= target) {
        target -= node;
        pos = next;
      }
    }
  }
  pos = std::min(pos, n - 1);
  // Rounding in the descent can land on a zero-weight leaf; snap to the
  // nearest category that actually carries mass.
  if (leaf_[static_cast<std::size_t>(pos)] > 0.0) return pos;
  for (std::int64_t step = 1; step < n; ++step) {
    if (pos + step < n && leaf_[static_cast<std::size_t>(pos + step)] > 0.0)
      return pos + step;
    if (pos - step >= 0 && leaf_[static_cast<std::size_t>(pos - step)] > 0.0)
      return pos - step;
  }
  return pos;
}

}  // namespace divpp::sampling

#endif  // DIVPP_SAMPLING_FENWICK_H
