#include "common/zipf.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace guess {

ZipfDistribution::ZipfDistribution(std::size_t n, double alpha)
    : alpha_(alpha) {
  GUESS_CHECK(n > 0);
  GUESS_CHECK(n <= std::numeric_limits<std::uint32_t>::max());
  GUESS_CHECK(alpha >= 0.0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += std::pow(static_cast<double>(r + 1), -alpha);
    cdf_[r] = acc;
  }
  normalizer_ = acc;
  for (double& c : cdf_) c /= normalizer_;
  cdf_.back() = 1.0;  // guard against rounding drift

  std::size_t buckets = std::bit_ceil(n);
  buckets_ = static_cast<double>(buckets);
  guide_.resize(buckets + 1);
  std::size_t r = 0;
  for (std::size_t k = 0; k <= buckets; ++k) {
    double threshold = static_cast<double>(k) / buckets_;  // exact
    while (cdf_[r] < threshold) ++r;  // stops by n-1: cdf_.back() == 1.0
    guide_[k] = static_cast<std::uint32_t>(r);
  }
}

std::size_t ZipfDistribution::rank_of(double u) const {
  // Rng::uniform() is in [0, 1); anything else (only reachable by calling
  // rank_of directly) takes the full-range search.
  if (u >= 0.0 && u < 1.0) {
    // k/S <= u < (k+1)/S exactly, and cdf_[guide_[k+1]] >= (k+1)/S > u, so
    // the answer lies in [guide_[k], guide_[k+1]]: searching the half-open
    // range returns guide_[k+1] when nothing before it reaches u.
    auto k = static_cast<std::size_t>(u * buckets_);
    auto it = std::lower_bound(cdf_.begin() + guide_[k],
                               cdf_.begin() + guide_[k + 1], u);
    return static_cast<std::size_t>(it - cdf_.begin());
  }
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<std::size_t>(it - cdf_.begin());
}

double ZipfDistribution::pmf(std::size_t rank) const {
  GUESS_CHECK(rank < cdf_.size());
  return std::pow(static_cast<double>(rank + 1), -alpha_) / normalizer_;
}

}  // namespace guess
