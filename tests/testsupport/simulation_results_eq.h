// Bitwise-equality assertions over SimulationResults, shared by the
// cross-thread determinism tests (tests/experiments/parallel_runner_test.cc)
// and the integration determinism suite.
//
// "Bitwise" is meant literally: a replication is the same sequence of
// floating-point operations no matter which thread runs it, so every double
// must compare == (not just within a tolerance). The fields compared are the
// ones golden_record() flattens (tests/testsupport/results_golden.h), so one
// list defines what a GUESS result is, for goldens and live runs alike.
#pragma once

#include <gtest/gtest.h>

#include "guess/metrics.h"
#include "search/backend.h"
#include "results_golden.h"

namespace guess::testsupport {

/// Any value GoldenRecorder can flatten, as a one-entry record.
template <typename T>
GoldenRecord flatten(const T& value) {
  GoldenRecorder recorder;
  recorder.add("value", value);
  return recorder.take();
}

inline void expect_identical(const RunningStat& a, const RunningStat& b) {
  expect_matches_golden(flatten(a), flatten(b));
}

inline void expect_identical(const IntervalSeries& a,
                             const IntervalSeries& b) {
  expect_matches_golden(flatten(a), flatten(b));
}

/// Every field of SimulationResults, entry-for-entry.
inline void expect_identical(const SimulationResults& a,
                             const SimulationResults& b) {
  expect_matches_golden(golden_record(a), golden_record(b));
}

/// A GUESS run_search result (its extra_as<SimulationResults>() slot)
/// against a reference.
inline void expect_identical(const search::SearchResults& a,
                             const SimulationResults& b) {
  const auto* engine = a.extra_as<SimulationResults>();
  ASSERT_NE(engine, nullptr) << "not a GUESS run: " << a.backend;
  expect_identical(*engine, b);
}

inline void expect_identical(const search::SearchResults& a,
                             const search::SearchResults& b) {
  const auto* engine = b.extra_as<SimulationResults>();
  ASSERT_NE(engine, nullptr) << "not a GUESS run: " << b.backend;
  expect_identical(a, *engine);
}

}  // namespace guess::testsupport
