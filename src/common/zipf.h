// Zipf (power-law) discrete distribution over ranks 0..n-1.
//
// Rank r (0-based) has weight 1 / (r+1)^alpha. Used for file popularity and
// query popularity in the content model (the paper's workload model [21]
// assumes Zipf-like popularity, as measured for Gnutella-era systems).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace guess {

/// Precomputed-CDF Zipf sampler. Sampling inverts the CDF by binary search,
/// narrowed by an indexed-search guide table (Chen & Asau) to the few ranks
/// whose CDF crosses one table bucket: expected O(1), worst case O(log n).
class ZipfDistribution {
 public:
  /// @param n      number of ranks (> 0)
  /// @param alpha  skew exponent (>= 0; 0 degenerates to uniform)
  ZipfDistribution(std::size_t n, double alpha);

  std::size_t n() const { return cdf_.size(); }
  double alpha() const { return alpha_; }

  /// Draw a rank in [0, n): rank_of(one uniform draw).
  std::size_t sample(Rng& rng) const { return rank_of(rng.uniform()); }

  /// The rank a uniform variate `u` maps to: the first rank whose CDF is
  /// >= u, or n-1 if none is. Defined for every double, so the guide-table
  /// shortcut can be checked against the plain binary search at any u.
  std::size_t rank_of(double u) const;

  /// Probability mass of a given rank.
  double pmf(std::size_t rank) const;

  /// The normalizing constant H = sum_r (r+1)^-alpha.
  double normalizer() const { return normalizer_; }

 private:
  double alpha_;
  double normalizer_;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
  // Guide table over S = buckets_ (a power of two >= n): guide_[k] is the
  // first rank with cdf_[r] >= k/S, for k = 0..S. A variate u in bucket
  // k = floor(u*S) maps to a rank in [guide_[k], guide_[k+1]]. S being a
  // power of two makes u*S and k/S exact, so the narrowed search returns
  // what a full-range search would (DESIGN.md §14).
  double buckets_ = 1.0;
  std::vector<std::uint32_t> guide_;
};

}  // namespace guess
