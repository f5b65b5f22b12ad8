#include "rck/noc/error.hpp"
#include "rck/noc/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace rck::noc {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int k = 0; k < 5; ++k) q.schedule_at(7, [&order, k] { order.push_back(k); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, ScheduleAfterUsesNow) {
  EventQueue q;
  SimTime seen = 0;
  q.schedule_at(100, [&] {
    q.schedule_after(50, [&] { seen = q.now(); });
  });
  q.run();
  EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, RejectsSchedulingIntoPast) {
  EventQueue q;
  q.schedule_at(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(50, [] {}), rck::noc::NocError);
}

TEST(EventQueue, RunUntilBound) {
  EventQueue q;
  int fired = 0;
  for (SimTime t : {10u, 20u, 30u, 40u}) q.schedule_at(t, [&] { ++fired; });
  EXPECT_EQ(q.run(25), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pending(), 2u);
  q.run();
  EXPECT_EQ(fired, 4);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  EventQueue q;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 10) q.schedule_after(1, chain);
  };
  q.schedule_at(0, chain);
  q.run();
  EXPECT_EQ(depth, 10);
  EXPECT_EQ(q.now(), 9u);
  EXPECT_EQ(q.fired(), 10u);
}

TEST(EventQueue, EmptyQueueBehaviour) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.run_one(), rck::noc::NocError);
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, NextTimePeeksEarliest) {
  EventQueue q;
  q.schedule_at(42, [] {});
  q.schedule_at(17, [] {});
  EXPECT_EQ(q.next_time(), 17u);
}

TEST(EventQueue, LargeVolumeStaysOrdered) {
  EventQueue q;
  SimTime last = 0;
  bool ordered = true;
  // deterministic pseudo-random times
  std::uint64_t x = 12345;
  for (int k = 0; k < 10000; ++k) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    q.schedule_at(x % 1000000, [&] {
      if (q.now() < last) ordered = false;
      last = q.now();
    });
  }
  q.run();
  EXPECT_TRUE(ordered);
  EXPECT_EQ(q.fired(), 10000u);
}

TEST(EventQueueTargets, UntargetedEventsAffectEveryEntity) {
  // Targets and classes never change the order; they are reported with the
  // head tie group so the model checker can judge commutation, and an
  // untargeted event stays marked as touching anything.
  EventQueue q;
  q.schedule_at(25, [] {}, /*target=*/3, EventClass::Delivery);
  q.schedule_at(25, [] {});  // kUntargeted: may touch anything
  q.schedule_at(40, [] {}, /*target=*/7, EventClass::Timer);
  std::vector<EventQueue::TieRef> tied;
  q.tied(tied);
  ASSERT_EQ(tied.size(), 2u);
  EXPECT_EQ(tied[0].target, 3);
  EXPECT_EQ(tied[0].cls, EventClass::Delivery);
  EXPECT_EQ(tied[1].target, EventQueue::kUntargeted);
  EXPECT_EQ(tied[1].cls, EventClass::Generic);
}

TEST(EventQueueTargets, EventsSchedulingTargetedEventsStayConsistent) {
  EventQueue q;
  q.schedule_at(5, [&] { q.schedule_after(10, [] {}, 2, EventClass::Timer); }, 1);
  q.run_one();
  std::vector<EventQueue::TieRef> tied;
  q.tied(tied);
  ASSERT_EQ(tied.size(), 1u);
  EXPECT_EQ(q.next_time(), 15u);
  EXPECT_EQ(tied[0].target, 2);
  EXPECT_EQ(tied[0].cls, EventClass::Timer);
}

TEST(SimTimeConversion, RoundTrips) {
  EXPECT_DOUBLE_EQ(to_seconds(kPsPerSec), 1.0);
  EXPECT_EQ(from_seconds(2.5), 2500 * kPsPerMs);
  EXPECT_EQ(cycle_ps(800e6), 1250u);
  EXPECT_EQ(cycle_ps(2.4e9), 417u);  // rounded from 416.67
}

}  // namespace
}  // namespace rck::noc
