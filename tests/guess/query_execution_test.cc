#include "guess/query_execution.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace guess {
namespace {

CacheEntry entry(PeerId id, std::uint32_t files = 0, std::uint32_t res = 0,
                 sim::Time ts = 0.0) {
  return CacheEntry{id, ts, files, res};
}

TEST(ProbeCounters, CountsByOutcome) {
  ProbeCounters counters;
  counters.count(ProbeOutcome::kGood);
  counters.count(ProbeOutcome::kGood);
  counters.count(ProbeOutcome::kDead);
  counters.count(ProbeOutcome::kRefused);
  EXPECT_EQ(counters.good, 2u);
  EXPECT_EQ(counters.dead, 1u);
  EXPECT_EQ(counters.refused, 1u);
  EXPECT_EQ(counters.total(), 4u);
}

TEST(ProbeCounters, Accumulates) {
  ProbeCounters a, b;
  a.good = 1;
  a.dead = 2;
  b.good = 10;
  b.refused = 5;
  a += b;
  EXPECT_EQ(a.good, 11u);
  EXPECT_EQ(a.dead, 2u);
  EXPECT_EQ(a.refused, 5u);
}

TEST(QueryExecution, CandidatesDedupedByPeer) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  EXPECT_TRUE(query.add_candidate(entry(2), rng));
  EXPECT_FALSE(query.add_candidate(entry(2), rng));  // seen before
  EXPECT_EQ(query.queued(), 1u);
  EXPECT_EQ(query.seen(), 1u);
}

TEST(QueryExecution, OriginNeverQueued) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  EXPECT_FALSE(query.add_candidate(entry(1), rng));
  EXPECT_EQ(query.queued(), 0u);
}

TEST(QueryExecution, ProbeOrderFollowsPolicy) {
  QueryExecution query(1, 7, 1, Policy::kMFS, 0.0);
  Rng rng(1);
  query.add_candidate(entry(2, 10), rng);
  query.add_candidate(entry(3, 100), rng);
  query.add_candidate(entry(4, 50), rng);
  EXPECT_EQ(query.next_candidate()->id, 3u);
  EXPECT_EQ(query.next_candidate()->id, 4u);
  EXPECT_EQ(query.next_candidate()->id, 2u);
  EXPECT_FALSE(query.next_candidate().has_value());
}

TEST(QueryExecution, EqualScoresAreFifo) {
  QueryExecution query(1, 7, 1, Policy::kMFS, 0.0);
  Rng rng(1);
  query.add_candidate(entry(10, 5), rng);
  query.add_candidate(entry(11, 5), rng);
  query.add_candidate(entry(12, 5), rng);
  EXPECT_EQ(query.next_candidate()->id, 10u);
  EXPECT_EQ(query.next_candidate()->id, 11u);
  EXPECT_EQ(query.next_candidate()->id, 12u);
}

TEST(QueryExecution, LateCandidatesCompeteByScore) {
  QueryExecution query(1, 7, 1, Policy::kMR, 0.0);
  Rng rng(1);
  query.add_candidate(entry(2, 0, 1), rng);
  EXPECT_EQ(query.next_candidate()->id, 2u);
  // New pong-delivered candidates enter the live ordering.
  query.add_candidate(entry(3, 0, 9), rng);
  query.add_candidate(entry(4, 0, 4), rng);
  EXPECT_EQ(query.next_candidate()->id, 3u);
  EXPECT_EQ(query.next_candidate()->id, 4u);
}

TEST(QueryExecution, ProbedPeerNotReaddable) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  Rng rng(1);
  query.add_candidate(entry(2), rng);
  query.next_candidate();
  EXPECT_FALSE(query.add_candidate(entry(2), rng));
  EXPECT_EQ(query.queued(), 0u);
}

TEST(QueryExecution, SatisfactionAtDesiredResults) {
  QueryExecution query(1, 7, 3, Policy::kRandom, 0.0);
  EXPECT_FALSE(query.satisfied());
  query.add_results(2);
  EXPECT_FALSE(query.satisfied());
  query.add_results(1);
  EXPECT_TRUE(query.satisfied());
  EXPECT_EQ(query.results(), 3u);
}

TEST(QueryExecution, TracksIdentityAndStart) {
  QueryExecution query(42, 17, 1, Policy::kRandom, 123.5);
  EXPECT_EQ(query.origin(), 42u);
  EXPECT_EQ(query.file(), 17u);
  EXPECT_DOUBLE_EQ(query.start_time(), 123.5);
}

TEST(QueryExecution, ZeroDesiredResultsRejected) {
  EXPECT_THROW(QueryExecution(1, 7, 0, Policy::kRandom, 0.0), CheckError);
}

TEST(QueryExecution, OutcomeRecordingFeedsCounters) {
  QueryExecution query(1, 7, 1, Policy::kRandom, 0.0);
  query.record_outcome(ProbeOutcome::kDead);
  query.record_outcome(ProbeOutcome::kGood);
  EXPECT_EQ(query.counters().total(), 2u);
  EXPECT_EQ(query.counters().dead, 1u);
}

}  // namespace
}  // namespace guess
