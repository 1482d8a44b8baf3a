// Heap allocations on the bootstrap path: library sampling and initial
// cache seeding run once per peer, so any allocation per file or per pick
// there is multiplied by the population. Also the bytes of the structures
// that are multiplied the same way: a link cache per peer, and a pooled
// query execution per concurrent query.
//
// Built as its own test binary because it replaces global operator new /
// delete with counting versions (the pattern of query_alloc_test.cc).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/epoch_set.h"
#include "content/content_model.h"
#include "guess/link_cache.h"
#include "guess/network.h"
#include "guess/query_execution.h"
#include "sim/simulator.h"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::uint64_t> g_allocated_bytes{0};

void count_allocation(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
}
}  // namespace

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  count_allocation(size);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace guess {
namespace {

std::uint64_t allocation_count() {
  return g_allocations.load(std::memory_order_relaxed);
}

std::uint64_t allocated_bytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

TEST(BootstrapAlloc, SampleLibraryAllocatesAtMostTwicePerCall) {
  // One catalog bitmap plus the library's own file vector, whatever the
  // count; a free rider's empty library allocates nothing.
  content::ContentParams params;
  content::ContentModel model(params);
  const auto max_library = static_cast<std::size_t>(
      params.max_library_fraction * static_cast<double>(params.catalog_size));
  Rng rng(5);
  std::vector<std::uint64_t> per_call;
  per_call.reserve(max_library + 1);
  for (std::size_t count = 0; count <= max_library; ++count) {
    std::uint64_t before = allocation_count();
    content::Library library = model.sample_library(count, rng);
    per_call.push_back(allocation_count() - before);
  }
  EXPECT_EQ(per_call[0], 0u);
  for (std::size_t count = 1; count <= max_library; ++count) {
    ASSERT_LE(per_call[count], 2u) << "count " << count;
  }
}

TEST(BootstrapAlloc, SampleIndicesIntoNeverOutgrowsReservedBuffers) {
  // A caller that reserved k picks and n scratch entries (what the dense
  // branch uses) never allocates, on either branch: sparse (whose
  // membership set takes 2k < n scratch entries) or dense.
  constexpr std::size_t n = 300;
  Rng rng(9);
  std::vector<std::size_t> out;
  std::vector<std::size_t> scratch;
  out.reserve(n);
  scratch.reserve(n);
  std::uint64_t before = allocation_count();
  for (int round = 0; round < 100; ++round) {
    for (std::size_t k : {std::size_t{1}, std::size_t{5}, std::size_t{17},
                          std::size_t{99}, std::size_t{100}, n}) {
      rng.sample_indices_into(n, k, out, scratch);
    }
  }
  EXPECT_EQ(allocation_count() - before, 0u);
}

// Allocations made by initialize() for one population under a given seed
// size. Births draw identically whatever the seed size (seeding runs after
// the last birth), so two seed sizes differ only in what seeding allocated.
std::uint64_t initialize_allocations(std::size_t cache_seed_size) {
  SystemParams system;
  system.network_size = 300;
  system.cache_seed_size = cache_seed_size;
  system.content.catalog_size = 400;
  system.content.query_universe = 500;
  ProtocolParams protocol;
  protocol.cache_size = 120;
  auto config = SimulationConfig().system(system).protocol(protocol);
  sim::Simulator simulator;
  GuessNetwork network(config, simulator, Rng(42));
  std::uint64_t before = allocation_count();
  network.initialize();
  return allocation_count() - before;
}

TEST(BootstrapAlloc, CacheSeedingReusesBuffersAcrossPeers) {
  // The two ways seeding samples its picks: a sparse sample with its hashed
  // membership set, and the dense partial shuffle (k*3 >= n). Picks and
  // scratch are reused across peers and insert_free fills storage each
  // cache reserved at birth, so the totals may differ by a buffer or two. A
  // pick vector allocated per peer (one allocation per peer, two on the
  // dense branch) shows as a gap of the population size, 300.
  const std::uint64_t sparse = initialize_allocations(40);
  const std::uint64_t dense = initialize_allocations(110);
  auto distance = [](std::uint64_t a, std::uint64_t b) {
    return a > b ? a - b : b - a;
  };
  EXPECT_LE(distance(sparse, dense), 2u);
}

TEST(BootstrapAlloc, LinkCacheAllocatesAtMostSixKiB) {
  // Every peer owns one cache, so its heap bytes are multiplied by the
  // population. A 100-entry cache configured the way GuessNetwork::
  // spawn_peer configures it (three selection orderings plus LR retention)
  // holds 3200 bytes of entries, a 512-byte position table and four heaps
  // of 16-bit positions (400 bytes each): about 5.5 KB. Per-cache selection
  // scratch or 16-byte heap items would push it past 6 KiB. Selection
  // scratch is shared per thread, so it is sized before the count starts.
  constexpr std::size_t kCapacity = 100;
  LinkCache::reserve_selection_scratch(kCapacity);
  std::vector<CacheEntry> pong;
  pong.reserve(kCapacity);
  Rng rng(3);
  std::uint64_t before = allocated_bytes();
  LinkCache cache(/*owner=*/0, kCapacity);
  cache.configure_indices({Policy::kLRU, Policy::kMFS, Policy::kMR},
                          Replacement::kLR);
  for (PeerId id = 1; id <= 3 * kCapacity; ++id) {
    CacheEntry entry{id, static_cast<double>(id),
                     static_cast<std::uint32_t>(id % 7),
                     static_cast<std::uint32_t>(id % 3)};
    if (cache.full()) {
      cache.offer(entry, Replacement::kLR, rng);
    } else {
      cache.insert_free(entry);
    }
    cache.touch(id, static_cast<double>(id) + 0.5);
    cache.select_top_into(Policy::kMR, 5, rng, pong);
    cache.select_top_into(Policy::kLRU, kCapacity, rng, pong);
  }
  cache.set_first_hand_only(true);
  ASSERT_TRUE(cache.full());
  EXPECT_LE(allocated_bytes() - before, 6u * 1024u);
}

// Heap bytes one query execution requests while ingesting `probes` Pongs
// of `pong_size` new peers on top of `cache_size` link-cache entries: the
// query cache at its worst, every candidate distinct and none satisfying.
std::uint64_t query_execution_bytes(std::size_t cache_size,
                                    std::size_t probes,
                                    std::size_t pong_size) {
  std::uint64_t before = allocated_bytes();
  QueryExecution query(/*origin=*/0, /*file=*/1, /*desired=*/50, Policy::kMR,
                       0.0);
  // What GuessNetwork::start_query reserves.
  query.reserve_candidates(cache_size + pong_size * 4);
  Rng rng(11);
  PeerId next_id = 1;
  for (std::size_t i = 0; i < cache_size; ++i, ++next_id) {
    query.add_candidate(
        CacheEntry{next_id, 0.0, 0, static_cast<std::uint32_t>(i % 3)}, rng);
  }
  for (std::size_t probe = 0; probe < probes; ++probe) {
    auto probed = query.next_candidate();
    EXPECT_TRUE(probed.has_value());
    if (!probed) break;
    for (std::size_t k = 0; k < pong_size; ++k, ++next_id) {
      query.add_candidate(
          CacheEntry{next_id, 0.0, 0, static_cast<std::uint32_t>(k % 4)},
          probed->id, rng);
    }
  }
  EXPECT_EQ(query.seen(), cache_size + probes * pong_size);
  return allocated_bytes() - before;
}

TEST(QueryExecutionFootprint, CompactSlots) {
  static_assert(QueryExecution::stored_candidate_bytes() == 16);
  static_assert(EpochSet::slot_bytes() == 8);
}

TEST(QueryExecutionFootprint, PaperWorstCaseAtMostHalfTheFormerBytes) {
  // Pooled executions keep their high-water buffers, so this worst case —
  // CacheSize 100 plus the 1000-probe cap × PongSize 5 distinct Pong
  // entries, the paper defaults — is what a long unsatisfied query leaves
  // behind. With 40-byte candidates, a (score, seq, idx) heap and 16-byte
  // dedup slots grown at load 0.5, it requested 1,373,888 bytes. 16-byte
  // candidates with a referrer list and 8-byte slots grown at load 0.75
  // request 646,592; the gate is half the former figure.
  constexpr std::uint64_t kFormerBytes = 1373888;
  EXPECT_LE(query_execution_bytes(100, 1000, 5), kFormerBytes / 2);
}

// Sanity: the counter actually counts (a direct call cannot be elided).
TEST(BootstrapAllocCounter, CountsHeapAllocations) {
  std::uint64_t before = allocation_count();
  void* p = ::operator new(32);
  ::operator delete(p);
  EXPECT_EQ(allocation_count(), before + 1);
}

TEST(BootstrapAllocCounter, CountsRequestedBytes) {
  std::uint64_t before = allocated_bytes();
  void* p = ::operator new(48);
  ::operator delete(p);
  EXPECT_EQ(allocated_bytes(), before + 48);
}

}  // namespace
}  // namespace guess
