#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

namespace newtos {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

// Runs the earliest live event in place and returns its time.
SimTime FireNext(EventQueue& q) {
  SimTime when = -1;
  EXPECT_TRUE(q.RunNext(kForever, [&when](SimTime w) { when = w; }));
  return when;
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.Push(30, [&] { order.push_back(3); });
  q.Push(10, [&] { order.push_back(1); });
  q.Push(20, [&] { order.push_back(2); });
  while (!q.Empty()) {
    FireNext(q);
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameInstant) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.Push(42, [&order, i] { order.push_back(i); });
  }
  while (!q.Empty()) {
    FireNext(q);
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  EventHandle h = q.Push(10, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());  // second cancel is a no-op
  EXPECT_TRUE(q.Empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledEventsAreSkippedNotReturned) {
  EventQueue q;
  int fired = 0;
  EventHandle h1 = q.Push(10, [&] { ++fired; });
  q.Push(20, [&] { ++fired; });
  h1.Cancel();
  EXPECT_EQ(q.NextTime(), 20);
  FireNext(q);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, HandleReportsFiredState) {
  EventQueue q;
  EventHandle h = q.Push(5, [] {});
  EXPECT_TRUE(h.pending());
  FireNext(q);
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());  // cannot cancel after firing
}

TEST(EventQueue, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
}

TEST(EventQueue, NextTimeReflectsEarliestLiveEvent) {
  EventQueue q;
  q.Push(100, [] {});
  EventHandle early = q.Push(50, [] {});
  EXPECT_EQ(q.NextTime(), 50);
  early.Cancel();
  EXPECT_EQ(q.NextTime(), 100);
}

TEST(EventQueue, RunNextStopsAtTheBoundary) {
  EventQueue q;
  int fired = 0;
  q.Push(10, [&] { ++fired; });
  q.Push(20, [&] { ++fired; });
  auto ignore = [](SimTime) {};
  EXPECT_TRUE(q.RunNext(10, ignore));  // due exactly at the boundary
  EXPECT_FALSE(q.RunNext(19, ignore));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.LiveSize(), 1u);
  EXPECT_EQ(FireNext(q), 20);
  EXPECT_FALSE(q.RunNext(kForever, ignore));  // empty
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PushedCountsEverything) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) {
    q.Push(i, [] {});
  }
  EXPECT_EQ(q.pushed(), 5u);
}

TEST(EventQueue, StressManyEventsStayOrdered) {
  EventQueue q;
  // Pseudo-random times, then verify non-decreasing pop order.
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 10000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    q.Push(static_cast<SimTime>(x % 100000), [] {});
  }
  SimTime prev = -1;
  while (!q.Empty()) {
    const SimTime t = FireNext(q);
    EXPECT_GE(t, prev);
    prev = t;
  }
}

}  // namespace
}  // namespace newtos
