#include "content/content_model.h"

#include <gtest/gtest.h>

#include "common/check.h"

#include <limits>
#include <map>

#include "../testsupport/bootstrap_reference.h"

namespace guess::content {
namespace {

ContentParams small_params() {
  ContentParams params;
  params.catalog_size = 500;
  params.query_universe = 600;
  return params;
}

TEST(Library, SortedDistinctAndSearchable) {
  Library lib({1, 5, 9});
  EXPECT_EQ(lib.size(), 3u);
  EXPECT_TRUE(lib.contains(1));
  EXPECT_TRUE(lib.contains(5));
  EXPECT_TRUE(lib.contains(9));
  EXPECT_FALSE(lib.contains(2));
  EXPECT_FALSE(lib.contains(kNonexistentFile));
}

TEST(Library, RejectsUnsortedOrDuplicateFiles) {
  EXPECT_THROW(Library({3, 1}), CheckError);
  EXPECT_THROW(Library({1, 1, 2}), CheckError);
}

TEST(Library, EmptyLibraryContainsNothing) {
  Library lib;
  EXPECT_TRUE(lib.empty());
  EXPECT_FALSE(lib.contains(0));
}

TEST(ContentModel, FreeRiderFractionRespected) {
  ContentModel model(small_params());
  Rng rng(3);
  int free_riders = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) {
    if (model.sample_file_count(rng) == 0) ++free_riders;
  }
  EXPECT_NEAR(static_cast<double>(free_riders) / trials, 0.25, 0.03);
}

TEST(ContentModel, LibraryHasRequestedSizeAndValidFiles) {
  ContentModel model(small_params());
  Rng rng(5);
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{50}}) {
    Library lib = model.sample_library(count, rng);
    EXPECT_EQ(lib.size(), count);
    for (FileId f : lib.files()) EXPECT_LT(f, 500u);
  }
}

TEST(ContentModel, LibrarySizeCapEnforced) {
  ContentModel model(small_params());
  Rng rng(7);
  // Cap is 20% of 500 = 100.
  EXPECT_THROW(model.sample_library(101, rng), CheckError);
  Library lib = model.sample_library(100, rng);
  EXPECT_EQ(lib.size(), 100u);
}

TEST(ContentModel, PopularFilesMoreReplicated) {
  ContentModel model(small_params());
  Rng rng(9);
  int head = 0, tail = 0;
  for (int peer = 0; peer < 2000; ++peer) {
    Library lib = model.sample_peer_library(rng);
    if (lib.contains(0)) ++head;          // most popular file
    if (lib.contains(499)) ++tail;        // least popular file
  }
  EXPECT_GT(head, tail * 3);
}

TEST(ContentModel, QueriesIncludeNonexistentTail) {
  ContentModel model(small_params());
  Rng rng(11);
  int nonexistent = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) {
    FileId f = model.draw_query(rng);
    if (f == kNonexistentFile) {
      ++nonexistent;
    } else {
      EXPECT_LT(f, 500u);
    }
  }
  double observed = static_cast<double>(nonexistent) / trials;
  EXPECT_NEAR(observed, model.nonexistent_query_mass(), 0.01);
  EXPECT_GT(observed, 0.0);
}

TEST(ContentModel, DefaultNonexistentMassNearPaperFloor) {
  // The paper reports ~6% of queries unsatisfiable at NetworkSize=1000;
  // the out-of-catalog mass supplies a few points of that floor (rare
  // zero-replica files supply the rest).
  ContentModel model(ContentParams{});
  EXPECT_GT(model.nonexistent_query_mass(), 0.01);
  EXPECT_LT(model.nonexistent_query_mass(), 0.08);
}

TEST(ContentModel, QueryPopularitySkewedToHead) {
  ContentModel model(small_params());
  Rng rng(13);
  std::map<FileId, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[model.draw_query(rng)];
  EXPECT_GT(counts[0], counts.count(400) ? counts[400] * 2 : 2);
}

TEST(ContentModel, InvalidParamsRejected) {
  ContentParams params;
  params.catalog_size = 0;
  EXPECT_THROW(ContentModel{params}, CheckError);
  params = ContentParams{};
  params.query_universe = params.catalog_size - 1;
  EXPECT_THROW(ContentModel{params}, CheckError);
  params = ContentParams{};
  params.free_rider_fraction = 1.0;
  EXPECT_THROW(ContentModel{params}, CheckError);
}

TEST(ContentModel, LibraryCapCheckedBeforeUse) {
  // NaN, infinity and negatives must be rejected before the (undefined)
  // float-to-integer cast; 2.0 because a cap above the catalog would make
  // distinct sampling loop forever.
  for (double fraction : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(), -0.5,
                          2.0}) {
    ContentParams params;
    params.catalog_size = 100;
    params.query_universe = 100;
    params.max_library_fraction = fraction;
    EXPECT_THROW(ContentModel{params}, CheckError) << fraction;
  }
}

// --- Frozen-reference equivalence of the bitmap sampler ---

void expect_libraries_match_reference(const ContentParams& params,
                                      std::uint64_t seed) {
  ContentModel model(params);
  reference::Zipf frozen(params.catalog_size, params.file_alpha);
  const auto max_library = static_cast<std::size_t>(
      params.max_library_fraction * static_cast<double>(params.catalog_size));
  Rng live(seed);
  Rng ref(seed);
  for (std::size_t count = 1; count <= max_library; ++count) {
    Library lib = model.sample_library(count, live);
    ASSERT_EQ(lib.files(), reference::sample_library(frozen, count, ref))
        << "count " << count;
  }
  EXPECT_EQ(live.engine()(), ref.engine()());
  EXPECT_THROW(model.sample_library(max_library + 1, live), CheckError);
}

TEST(ContentModelFrozenReference, DefaultCatalogEveryCount) {
  expect_libraries_match_reference(ContentParams{}, 17);
}

TEST(ContentModelFrozenReference, TinyCatalogEveryCountUpToFull) {
  // 70 files: two bitmap words, the second partial, sampled up to the
  // whole catalog.
  ContentParams params;
  params.catalog_size = 70;
  params.query_universe = 70;
  params.max_library_fraction = 1.0;
  expect_libraries_match_reference(params, 23);
}

TEST(ContentModel, SharingDistributionIsHeavyTailed) {
  const auto& dist = ContentModel::sharing_distribution();
  // Median sharer offers tens of files; the tail offers thousands.
  EXPECT_LT(dist.quantile(0.5), 100.0);
  EXPECT_GT(dist.quantile(0.99), 1000.0);
}

}  // namespace
}  // namespace guess::content
