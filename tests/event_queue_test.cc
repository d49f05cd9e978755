#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "src/sim/random.h"

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

// The two-tier queue against a reference: every event fires in exactly the
// (when, push order) order a std::set yields, whichever tier it sat in.
// Delays straddle the near horizon (0, just under, at and just over it), pile
// up ties at one instant, reach into the past, overflow the near ring, cancel
// entries in both tiers (enough to trigger compaction) and are pushed from
// inside firing callbacks.
class TwoTierOracle {
 public:
  explicit TwoTierOracle(uint64_t seed) : rng_(seed) {}

  void Run(int rounds) {
    for (int r = 0; r < rounds; ++r) {
      const size_t round_start = handles_.size();
      // A burst of more near-horizon events than the ring holds, plus a mix.
      const int burst = static_cast<int>(EventQueue::kNearCapacity) + 40;
      for (int i = 0; i < burst; ++i) {
        Push(now_ + rng_.UniformInt(0, EventQueue::kNearHorizon - 1));
      }
      for (int i = 0; i < 200; ++i) {
        Push(now_ + Delay());
      }
      // Cancel most of the round, in both tiers; the next push compacts.
      CancelSome(250, round_start);
      Push(now_ + Delay());
      EXPECT_LT(q_.RawSize(), handles_.size() - round_start) << "no compaction";
      while (q_.RunNext(kForever, [this](SimTime w) { now_ = w; })) {
      }
      ASSERT_EQ(misfired_, 0u);
      ASSERT_TRUE(expected_.empty()) << expected_.size() << " events never fired";
      ASSERT_EQ(q_.RawSize(), 0u);
    }
  }

  size_t fired() const { return fired_; }

 private:
  SimTime Delay() {
    const SimTime h = EventQueue::kNearHorizon;
    switch (rng_.UniformInt(0, 8)) {
      case 0:
        return 0;
      case 1:
        return h - 1;
      case 2:
        return h;
      case 3:
        return h + 1;
      case 4:
        return 7;  // many ties at one instant
      case 5:
        return -rng_.UniformInt(1, 3 * h);  // in the past
      case 6:
        return rng_.UniformInt(0, h - 1);
      case 7:
        return rng_.UniformInt(h, 20 * h);
      default:
        return rng_.UniformInt(0, 3) * (h / 2);  // ties on the horizon grid
    }
  }

  // An event's id is its push order, which is also its index in handles_.
  void Push(SimTime when) {
    const uint64_t id = handles_.size();
    expected_.insert({when, id});
    handles_.push_back(q_.Push(when, [this, when, id] { Fire(when, id); }));
    whens_.push_back(when);
  }

  void Fire(SimTime when, uint64_t id) {
    // Count mismatches rather than assert each one, so a broken queue reports
    // its first misfire instead of thousands.
    const std::pair<SimTime, uint64_t> key(when, id);
    if ((expected_.empty() || *expected_.begin() != key) && misfired_++ == 0) {
      ADD_FAILURE() << "event " << id << " at " << when << " fired out of (when, seq) order"
                    << " (or twice, or after its cancel)";
    }
    expected_.erase(key);
    ++fired_;
    // Callbacks push more events (some due at this very instant) and cancel.
    if (handles_.size() < kBudget && rng_.Bernoulli(0.5)) {
      const int n = static_cast<int>(rng_.UniformInt(1, 3));
      for (int i = 0; i < n; ++i) {
        Push(now_ + Delay());
      }
    }
    if (rng_.Bernoulli(0.1)) {
      CancelSome(2, 0);
    }
  }

  // Cancels up to `n` random events among those pushed at index `from` on.
  void CancelSome(int n, size_t from) {
    const int64_t last = static_cast<int64_t>(handles_.size()) - 1;
    for (int i = 0; i < n && from < handles_.size(); ++i) {
      const size_t k = static_cast<size_t>(rng_.UniformInt(static_cast<int64_t>(from), last));
      if (handles_[k].Cancel()) {
        expected_.erase(std::make_pair(whens_[k], uint64_t{k}));
      }
    }
  }

  static constexpr size_t kBudget = 200000;  // events pushed from callbacks stop here

  Rng rng_;
  EventQueue q_;
  std::set<std::pair<SimTime, uint64_t>> expected_;
  std::vector<EventHandle> handles_;
  std::vector<SimTime> whens_;
  SimTime now_ = 0;
  size_t fired_ = 0;
  size_t misfired_ = 0;
};

TEST(EventQueue, TwoTierMatchesReferenceOrder) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    TwoTierOracle oracle(seed);
    oracle.Run(20);
    EXPECT_GT(oracle.fired(), 4000u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace newtos
