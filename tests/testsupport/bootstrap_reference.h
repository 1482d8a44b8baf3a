// Frozen references for the bootstrap path's draw-preserving rewrites.
//
// Verbatim copies of three routines as they stood before the guide-table
// Zipf search, the bitmap library sampler and the hashed sparse index
// sample replaced them. The equivalence tests run each live routine beside
// its reference on twin generators and demand literal == on every output
// and on the next engine draw afterwards, so a rewrite that consumed one
// draw more or less, or mapped one draw differently, fails.
//
// These are the specification, not code under test: do not edit them to
// follow a change in the live routines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "content/types.h"

namespace guess::reference {

/// ZipfDistribution's constructor and sample(), verbatim: a plain
/// lower_bound over the whole CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double alpha) : alpha_(alpha) {
    GUESS_CHECK(n > 0);
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
  }

  std::size_t sample(Rng& rng) const {
    double u = rng.uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::size_t>(it - cdf_.begin());
  }

  /// sample()'s search for a given variate.
  std::size_t rank_of(double u) const {
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return static_cast<std::size_t>(it - cdf_.begin());
  }

  const std::vector<double>& cdf() const { return cdf_; }

 private:
  double alpha_;
  double normalizer_;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r)
};

/// ContentModel::sample_library's body, verbatim, drawing ranks from
/// `file_popularity` and returning the sorted files.
inline std::vector<content::FileId> sample_library(const Zipf& file_popularity,
                                                   std::size_t count,
                                                   Rng& rng) {
  using content::FileId;
  std::unordered_set<FileId> chosen;
  chosen.reserve(count * 2);
  // Distinct Zipf sampling by rejection. Collisions concentrate on the head
  // ranks; with libraries capped well below the catalog this stays cheap.
  while (chosen.size() < count) {
    chosen.insert(static_cast<FileId>(file_popularity.sample(rng)));
  }
  std::vector<FileId> files(chosen.begin(), chosen.end());
  std::sort(files.begin(), files.end());
  return files;
}

/// Rng::sample_indices_into, verbatim (index() is rng.index()).
inline void sample_indices_into(Rng& rng, std::size_t n, std::size_t k,
                                std::vector<std::size_t>& out,
                                std::vector<std::size_t>& scratch) {
  GUESS_CHECK(k <= n);
  out.clear();
  if (out.capacity() < k) out.reserve(k);
  if (k == 0) return;
  // Dense case: partial Fisher–Yates over an explicit index vector.
  if (k * 3 >= n) {
    scratch.resize(n);
    for (std::size_t i = 0; i < n; ++i) scratch[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + rng.index(n - i);
      std::swap(scratch[i], scratch[j]);
      out.push_back(scratch[i]);
    }
    return;
  }
  // Sparse case: rejection sampling. k << n here, so a linear membership
  // scan of the accepted prefix beats a hash set — and accepts/rejects the
  // identical candidate sequence, keeping the engine draws unchanged.
  while (out.size() < k) {
    std::size_t candidate = rng.index(n);
    bool fresh = true;
    for (std::size_t prior : out) {
      if (prior == candidate) {
        fresh = false;
        break;
      }
    }
    if (fresh) out.push_back(candidate);
  }
}

}  // namespace guess::reference
