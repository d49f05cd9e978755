// Tests for the event queue's slot pool: slot recycling, generation-counted
// handle invalidation, cancel-after-fire safety, eager compaction, and the
// in-place dispatch contract (callbacks run in their slot, which never moves
// while they run, and every capture is destroyed exactly once).

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/event_queue.h"
#include "src/sim/simulation.h"

namespace newtos {
namespace {

constexpr SimTime kForever = std::numeric_limits<SimTime>::max();
// Pushed into a fresh queue, kNear lands in the near ring and kFar in the heap.
constexpr SimTime kNear = EventQueue::kNearHorizon / 2;
constexpr SimTime kFar = EventQueue::kNearHorizon * 10;

// Runs the earliest live event in place and returns its time.
SimTime FireNext(EventQueue& q) {
  SimTime when = -1;
  EXPECT_TRUE(q.RunNext(kForever, [&when](SimTime w) { when = w; }));
  return when;
}

// A shared_ptr whose pointee bumps `*deleted` when the last owner lets go.
std::shared_ptr<int> Tracked(int* deleted) {
  return std::shared_ptr<int>(new int(7), [deleted](int* p) {
    ++*deleted;
    delete p;
  });
}

TEST(EventPool, SlotsAreRecycledAcrossPushPopCycles) {
  EventQueue q;
  int fired = 0;
  // Steady push/pop churn must reuse the same slot, not grow the pool: after
  // warm-up, RawSize() stays at 1 and pushed() keeps counting.
  for (int i = 0; i < 1000; ++i) {
    q.Push(i, [&fired] { ++fired; });
    ASSERT_EQ(q.RawSize(), 1u);
    EXPECT_EQ(FireNext(q), i);
  }
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(q.pushed(), 1000u);
}

TEST(EventPool, StaleHandleCannotCancelRecycledSlot) {
  EventQueue q;
  bool first_ran = false;
  bool second_ran = false;
  EventHandle first = q.Push(10, [&first_ran] { first_ran = true; });

  // Fire the first event; its slot is released.
  FireNext(q);
  EXPECT_TRUE(first_ran);
  EXPECT_FALSE(first.pending());

  // The next push recycles the same slot with a bumped generation. The old
  // handle must be stale: cancelling it may not touch the new event.
  q.Push(20, [&second_ran] { second_ran = true; });
  EXPECT_FALSE(first.Cancel());
  ASSERT_FALSE(q.Empty());
  FireNext(q);
  EXPECT_TRUE(second_ran);
}

TEST(EventPool, CancelAfterFireIsSafeAndReturnsFalse) {
  EventQueue q;
  EventHandle h = q.Push(5, [] {});
  FireNext(q);
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
  EXPECT_FALSE(h.Cancel());  // idempotent
}

TEST(EventPool, CancelIsEffectiveAndIdempotent) {
  EventQueue q;
  bool ran = false;
  EventHandle h = q.Push(5, [&ran] { ran = true; });
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());  // second cancel is a no-op
  EXPECT_TRUE(q.Empty());    // lazy discard happens in the accessor
  EXPECT_FALSE(ran);
}

TEST(EventPool, HandlesOutliveTheQueue) {
  EventHandle h;
  {
    EventQueue q;
    h = q.Push(5, [] {});
  }
  // The handle shares ownership of the slot pool, so touching it after the
  // queue is gone is safe. The never-fired event still looks pending (its
  // slot was never released); cancelling it is a harmless no-op beyond
  // flipping that state.
  EXPECT_TRUE(h.pending());
  EXPECT_TRUE(h.Cancel());
  EXPECT_FALSE(h.pending());
  EXPECT_FALSE(h.Cancel());
}

TEST(EventPool, LiveSizeExcludesCancelledEntries) {
  EventQueue q;
  std::vector<EventHandle> handles;
  // Alternate tiers: both count, and so do cancels in either.
  for (int i = 0; i < 10; ++i) {
    handles.push_back(q.Push((i % 2 == 0 ? kNear : kFar) + i, [] {}));
  }
  EXPECT_EQ(q.RawSize(), 10u);
  EXPECT_EQ(q.LiveSize(), 10u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(handles[static_cast<size_t>(i)].Cancel());
  }
  EXPECT_EQ(q.RawSize(), 10u);  // still occupying their tiers
  EXPECT_EQ(q.LiveSize(), 6u);
}

TEST(EventPool, EagerCompactionBoundsCancelledBacklog) {
  EventQueue q;
  // Schedule many events and cancel most of them *behind* a long-lived
  // blocker, so lazy top-of-heap discard can't reclaim them.
  q.Push(0, [] {});
  std::vector<EventHandle> handles;
  for (int i = 0; i < 256; ++i) {
    handles.push_back(q.Push(1000 + i, [] {}));
  }
  for (EventHandle& h : handles) {
    EXPECT_TRUE(h.Cancel());
  }
  EXPECT_EQ(q.LiveSize(), 1u);
  // The next push notices cancelled > heap/2 and compacts in place.
  q.Push(5000, [] {});
  EXPECT_EQ(q.LiveSize(), 2u);
  EXPECT_LE(q.RawSize(), 2u + 1u);  // backlog gone (not just hidden)

  // Pop order is unaffected: blocker at t=0, then the survivor at t=5000.
  EXPECT_EQ(FireNext(q), 0);
  EXPECT_EQ(FireNext(q), 5000);
  EXPECT_TRUE(q.Empty());
}

TEST(EventPool, CompactionPreservesFifoTieBreak) {
  EventQueue q;
  std::vector<int> order;
  // Interleave cancelled and live events at the same timestamp; after the
  // forced compaction, same-time events must still fire in push order.
  std::vector<EventHandle> doomed;
  q.Push(0, [] {});  // blocker so lazy discard can't help
  for (int i = 0; i < 100; ++i) {
    q.Push(10, [&order, i] { order.push_back(i); });
    doomed.push_back(q.Push(10, [] { FAIL() << "cancelled event fired"; }));
    doomed.push_back(q.Push(10, [] { FAIL() << "cancelled event fired"; }));
  }
  for (EventHandle& h : doomed) {
    EXPECT_TRUE(h.Cancel());
  }
  q.Push(20, [] {});  // triggers compaction (200 cancelled > 301/2)
  while (!q.Empty()) {
    FireNext(q);
  }
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventPool, ReserveAvoidsRegrowth) {
  EventQueue q;
  q.Reserve(64);
  for (int i = 0; i < 64; ++i) {
    q.Push(i, [] {});
  }
  EXPECT_EQ(q.RawSize(), 64u);
  while (!q.Empty()) {
    FireNext(q);
  }
}

TEST(EventPool, SimulationCancellationStillWorksEndToEnd) {
  Simulation sim;
  int fired = 0;
  EventHandle keep = sim.Schedule(10, [&fired] { ++fired; });
  EventHandle drop = sim.Schedule(20, [&fired] { fired += 100; });
  EXPECT_TRUE(drop.Cancel());
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(keep.pending());
}

TEST(EventPool, CallbackRunsInPlaceWhileItGrowsThePoolPastAChunk) {
  EventQueue q;
  // Bytes that fill the whole inline buffer, so a relocated or freed slot
  // shows up as a changed sum (and as a use-after-free under ASan).
  struct Capture {
    EventQueue* q;
    int* fired;
    uint64_t* sum;
    std::array<uint32_t, 6> words;
  };
  static_assert(sizeof(Capture) == InlineCallback::kCapacity);
  int fired = 0;
  uint64_t sum_after = 0;
  Capture c{&q, &fired, &sum_after, {1, 2, 3, 4, 5, 6}};
  q.Push(0, [c] {
    // More than one chunk's worth: the pool allocates new chunks while this
    // callback is still running in its own slot.
    for (uint32_t i = 0; i < 2 * EventSlotPool::kChunkSlots + 1; ++i) {
      c.q->Push(1, [f = c.fired] { ++*f; });
    }
    for (uint32_t w : c.words) {
      *c.sum += w;
    }
  });
  FireNext(q);
  EXPECT_EQ(sum_after, 21u);
  while (!q.Empty()) {
    FireNext(q);
  }
  EXPECT_EQ(fired, static_cast<int>(2 * EventSlotPool::kChunkSlots + 1));
}

TEST(EventPool, FiringEventsOwnHandleReadsAsFiredInsideItsCallback) {
  EventQueue q;
  EventHandle self;
  bool pending_inside = true;
  bool cancel_inside = true;
  self = q.Push(5, [&] {
    pending_inside = self.pending();
    cancel_inside = self.Cancel();
  });
  EXPECT_TRUE(self.pending());
  FireNext(q);
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancel_inside);
  EXPECT_FALSE(self.pending());
  EXPECT_EQ(q.LiveSize(), 0u);  // the in-callback Cancel() left no backlog
  EXPECT_EQ(q.RawSize(), 0u);
}

TEST(EventPool, SharedCaptureIsReleasedExactlyOnceWhenItFires) {
  int deleted = 0;
  EventQueue q;
  {
    std::shared_ptr<int> p = Tracked(&deleted);
    q.Push(5, [p] { EXPECT_EQ(*p, 7); });
  }
  EXPECT_EQ(deleted, 0);  // the queued callback still owns it
  FireNext(q);
  EXPECT_EQ(deleted, 1);
  q.Push(6, [] {});  // recycles the slot: nothing left to release
  FireNext(q);
  EXPECT_EQ(deleted, 1);
}

TEST(EventPool, SharedCaptureIsReleasedExactlyOnceByClear) {
  int deleted = 0;
  EventQueue q;
  // One event in each tier: the near ring and the far heap.
  q.Push(5, [p = Tracked(&deleted)] { FAIL() << "cleared event fired"; });
  q.Push(kFar, [p = Tracked(&deleted)] { FAIL() << "cleared event fired"; });
  q.Clear();
  EXPECT_EQ(deleted, 2);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(deleted, 2);
}

TEST(EventPool, SharedCaptureIsReleasedExactlyOnceByCancelAndCompaction) {
  int deleted = 0;
  EventQueue q;
  q.Push(0, [] {});  // blocker so lazy discard can't help
  // 100 near-horizon events: they fill the near ring and overflow into the
  // heap, so compaction releases captures from both tiers.
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 100; ++i) {
    doomed.push_back(q.Push(10 + i, [p = Tracked(&deleted)] { FAIL() << "cancelled"; }));
  }
  for (EventHandle& h : doomed) {
    EXPECT_TRUE(h.Cancel());
  }
  EXPECT_EQ(deleted, 0);  // cancelled, not yet discarded
  q.Push(1000, [] {});    // compacts: 100 cancelled > 101/2
  EXPECT_LE(q.RawSize(), 2u);
  EXPECT_EQ(deleted, 100);
  while (!q.Empty()) {
    FireNext(q);
  }
  EXPECT_EQ(deleted, 100);
}

TEST(EventPool, NearTierCancelChurnStaysBounded) {
  // A timer re-armed many times at one instant (TimerWheel's wake re-arm,
  // poll_policy's halt timer): every re-arm cancels a sub-horizon entry that
  // lazy discard cannot reach, so only eager compaction bounds the backlog.
  EventQueue q;
  int fired = 0;
  q.Push(0, [&] {
    EventHandle timer;
    for (int i = 0; i < 10000; ++i) {
      timer.Cancel();
      timer = q.Push(kNear, [&fired] { ++fired; });
      // 64 entries is where eager compaction starts; both tiers count.
      ASSERT_LE(q.RawSize(), 64u) << "after " << i << " re-arms";
    }
  });
  FireNext(q);
  EXPECT_EQ(q.LiveSize(), 1u);
  EXPECT_EQ(FireNext(q), kNear);
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.RawSize(), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(EventPool, SharedCaptureIsReleasedExactlyOnceByLazyCancelInEitherTier) {
  int deleted = 0;
  EventQueue q;
  EventHandle near = q.Push(kNear, [p = Tracked(&deleted)] { FAIL() << "cancelled"; });
  EventHandle far = q.Push(kFar, [p = Tracked(&deleted)] { FAIL() << "cancelled"; });
  q.Push(2 * kFar, [] {});
  EXPECT_TRUE(near.Cancel());
  EXPECT_TRUE(far.Cancel());
  EXPECT_EQ(deleted, 0);  // cancelled, not yet discarded
  EXPECT_EQ(q.NextTime(), 2 * kFar);  // discards both fronts
  EXPECT_EQ(deleted, 2);
  EXPECT_EQ(q.RawSize(), 1u);
  FireNext(q);
  EXPECT_EQ(deleted, 2);
}

TEST(EventPool, TrivialCaptureSurvivesMoves) {
  int hits = 0;
  int* target = &hits;
  int step = 3;
  InlineCallback a([target, step] { *target += step; });
  InlineCallback b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): moved-from is empty
  InlineCallback c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(c);
  c();
  EXPECT_EQ(hits, 3);
}

}  // namespace
}  // namespace newtos
