#include "common/rng.h"

namespace guess {

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  std::vector<std::size_t> scratch;
  sample_indices_into(n, k, out, scratch);
  return out;
}

void Rng::sample_indices_into(std::size_t n, std::size_t k,
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
      std::size_t j = i + index(n - i);
      std::swap(scratch[i], scratch[j]);
      out.push_back(scratch[i]);
    }
    return;
  }
  // Sparse case: rejection sampling with an open-addressing set of 2k
  // slots in `scratch` (load <= 1/2, linear probing), so each membership
  // test is O(1). It accepts and rejects the identical candidate sequence a
  // scan of the accepted prefix would, keeping the engine draws unchanged.
  // 2k < n here, so scratch never outgrows the dense branch's n entries.
  // Candidates are uniform, so the index itself hashes well; it is also
  // < n, so the all-ones marker never collides with one.
  constexpr std::size_t kEmpty = ~std::size_t{0};
  const std::size_t slots = 2 * k;
  scratch.assign(slots, kEmpty);
  while (out.size() < k) {
    std::size_t candidate = index(n);
    std::size_t slot = candidate % slots;
    while (scratch[slot] != kEmpty && scratch[slot] != candidate) {
      if (++slot == slots) slot = 0;
    }
    if (scratch[slot] == kEmpty) {
      scratch[slot] = candidate;
      out.push_back(candidate);
    }
  }
}

}  // namespace guess
