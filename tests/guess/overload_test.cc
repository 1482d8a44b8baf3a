// OverloadController unit tests: admission windows, shedding watermarks,
// and the pump/drain protocol (DESIGN.md §13.3).
#include "guess/overload.h"

#include <gtest/gtest.h>

#include <string>

#include "common/check.h"

namespace guess {
namespace {

OverloadParams params_for(OverloadPolicy policy) {
  OverloadParams p;
  p.policy = policy;
  p.max_in_flight = 2;
  p.queue_capacity = 4;
  p.shed_watermark = 2;
  return p;
}

TEST(OverloadPolicyNames, RoundTrip) {
  for (OverloadPolicy policy :
       {OverloadPolicy::kNone, OverloadPolicy::kAdmit, OverloadPolicy::kShed}) {
    EXPECT_EQ(parse_overload_policy(overload_policy_name(policy)), policy);
  }
  EXPECT_THROW(parse_overload_policy("drop"), CheckError);
  EXPECT_THROW(parse_overload_policy(""), CheckError);
}

// "backpressure" is rejected like any unknown name, and the message lists
// the valid ones.
TEST(OverloadPolicyNames, BackpressureIsRejectedWithTheRemainingPolicies) {
  try {
    parse_overload_policy("backpressure");
    FAIL() << "backpressure parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("none | admit | shed)"),
              std::string::npos)
        << e.what();
  }
}

TEST(OverloadController, NoneAdmitsEverythingImmediately) {
  OverloadController c(params_for(OverloadPolicy::kNone));
  for (int i = 0; i < 100; ++i) {
    AdmitDecision d = c.on_arrival(static_cast<double>(i));
    EXPECT_EQ(d.action, AdmitAction::kStart);
    EXPECT_EQ(d.shed, 0u);
  }
  EXPECT_EQ(c.in_flight(), 100u);
  EXPECT_EQ(c.queue_depth(), 0u);
}

TEST(OverloadController, AdmitRejectsAtTheDoorPastTheWindow) {
  OverloadController c(params_for(OverloadPolicy::kAdmit));
  EXPECT_EQ(c.on_arrival(0.0).action, AdmitAction::kStart);
  EXPECT_EQ(c.on_arrival(1.0).action, AdmitAction::kStart);
  AdmitDecision d = c.on_arrival(2.0);
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.shed, 0u);
  EXPECT_EQ(c.in_flight(), 2u);
  EXPECT_EQ(c.queue_depth(), 0u);  // admission control never queues

  // Releasing a slot readmits the next arrival.
  c.on_release();
  EXPECT_EQ(c.on_arrival(3.0).action, AdmitAction::kStart);
}

TEST(OverloadController, ShedQueuesBelowTheWatermark) {
  OverloadController c(params_for(OverloadPolicy::kShed));
  EXPECT_EQ(c.on_arrival(0.0).action, AdmitAction::kStart);
  EXPECT_EQ(c.on_arrival(1.0).action, AdmitAction::kStart);
  EXPECT_EQ(c.on_arrival(2.0).action, AdmitAction::kQueue);
  EXPECT_EQ(c.on_arrival(3.0).action, AdmitAction::kQueue);
  EXPECT_EQ(c.queue_depth(), 2u);

  // Pump: released slot starts the OLDEST queued arrival with its original
  // issue time (queueing delay stays inside its measured latency).
  c.on_release();
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.try_start(&issue));
  EXPECT_DOUBLE_EQ(issue, 2.0);
  EXPECT_FALSE(c.try_start(&issue));  // window full again
  EXPECT_EQ(c.in_flight(), 2u);
  EXPECT_EQ(c.queue_depth(), 1u);
}

TEST(OverloadController, ShedOldestDropsTheLongestWaiterAndTakesTheArrival) {
  OverloadParams p = params_for(OverloadPolicy::kShed);
  OverloadController c(p);
  c.on_arrival(0.0);  // start
  c.on_arrival(1.0);  // start
  c.on_arrival(2.0);  // queue
  c.on_arrival(3.0);  // queue -> at watermark
  AdmitDecision d = c.on_arrival(4.0);
  EXPECT_EQ(d.action, AdmitAction::kQueue);
  EXPECT_EQ(d.shed, 1u);
  EXPECT_DOUBLE_EQ(d.shed_issue, 2.0);  // oldest waiter dropped
  EXPECT_EQ(c.queue_depth(), 2u);       // 3.0 and 4.0 remain

  c.on_release();
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.try_start(&issue));
  EXPECT_DOUBLE_EQ(issue, 3.0);
}

TEST(OverloadController, ShedNewestRefusesTheArrivalInstead) {
  OverloadParams p = params_for(OverloadPolicy::kShed);
  p.shed_oldest = false;
  OverloadController c(p);
  c.on_arrival(0.0);
  c.on_arrival(1.0);
  c.on_arrival(2.0);
  c.on_arrival(3.0);
  AdmitDecision d = c.on_arrival(4.0);
  EXPECT_EQ(d.action, AdmitAction::kReject);
  EXPECT_EQ(d.shed, 1u);                // counted as shed, not rejected
  EXPECT_DOUBLE_EQ(d.shed_issue, 4.0);  // the arrival itself
  EXPECT_EQ(c.queue_depth(), 2u);       // 2.0 and 3.0 untouched
}

TEST(OverloadController, ArrivalsNeverOvertakeTheQueue) {
  // With a non-empty queue a free slot must go to the oldest waiter, not to
  // a fresh arrival (FIFO fairness).
  OverloadController c(params_for(OverloadPolicy::kShed));
  c.on_arrival(0.0);
  c.on_arrival(1.0);
  c.on_arrival(2.0);  // queued
  c.on_release();     // slot free, queue non-empty
  AdmitDecision d = c.on_arrival(3.0);
  EXPECT_EQ(d.action, AdmitAction::kQueue);
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.try_start(&issue));
  EXPECT_DOUBLE_EQ(issue, 2.0);
}

TEST(OverloadController, DrainPopsOldestFirstWithoutTouchingInFlight) {
  OverloadController c(params_for(OverloadPolicy::kShed));
  c.on_arrival(0.0);
  c.on_arrival(1.0);
  c.on_arrival(2.0);
  c.on_arrival(3.0);
  EXPECT_EQ(c.in_flight(), 2u);
  sim::Time issue = -1.0;
  EXPECT_TRUE(c.drain_one(&issue));
  EXPECT_DOUBLE_EQ(issue, 2.0);
  EXPECT_TRUE(c.drain_one(&issue));
  EXPECT_DOUBLE_EQ(issue, 3.0);
  EXPECT_FALSE(c.drain_one(&issue));
  EXPECT_EQ(c.in_flight(), 2u);
}

TEST(OverloadController, RingBufferSurvivesWraparound) {
  OverloadParams p = params_for(OverloadPolicy::kShed);
  p.queue_capacity = 3;
  p.shed_watermark = 3;
  OverloadController c(p);
  c.on_arrival(0.0);
  c.on_arrival(1.0);
  // Cycle the queue several times past its capacity to exercise the ring
  // indices: queue one, start one, repeatedly.
  double t = 2.0;
  for (int round = 0; round < 10; ++round) {
    c.on_arrival(t);
    c.on_release();
    sim::Time issue = -1.0;
    ASSERT_TRUE(c.try_start(&issue));
    EXPECT_DOUBLE_EQ(issue, t);
    t += 1.0;
  }
  EXPECT_EQ(c.queue_depth(), 0u);
}

TEST(OverloadController, ReleaseUnderflowIsAnError) {
  OverloadController c(params_for(OverloadPolicy::kAdmit));
  EXPECT_THROW(c.on_release(), CheckError);
}

TEST(OverloadStats, DerivedRatesHandleEmptyAndTypicalWindows) {
  OverloadStats s;
  EXPECT_DOUBLE_EQ(s.goodput(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.slo_violation_rate(), 0.0);

  s.completed = 80;
  s.open_at_close = 20;
  s.slo_ok = 60;
  EXPECT_DOUBLE_EQ(s.goodput(30.0), 2.0);
  EXPECT_DOUBLE_EQ(s.slo_violation_rate(), 0.4);
}

}  // namespace
}  // namespace guess
