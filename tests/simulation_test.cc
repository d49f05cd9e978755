#include "src/sim/simulation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "src/hw/cpu.h"
#include "src/hw/power.h"

namespace newtos {
namespace {

TEST(Simulation, ClockAdvancesToEventTimes) {
  Simulation sim;
  std::vector<SimTime> seen;
  sim.Schedule(10, [&] { seen.push_back(sim.Now()); });
  sim.Schedule(25, [&] { seen.push_back(sim.Now()); });
  sim.Run();
  EXPECT_EQ(seen, (std::vector<SimTime>{10, 25}));
  EXPECT_EQ(sim.Now(), 25);
}

TEST(Simulation, RunUntilStopsAtBoundaryAndAdvancesClock) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);  // idles forward to the boundary
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, RunForIsRelative) {
  Simulation sim;
  sim.RunFor(100);
  EXPECT_EQ(sim.Now(), 100);
  sim.RunFor(50);
  EXPECT_EQ(sim.Now(), 150);
}

TEST(Simulation, EventsCanScheduleMoreEvents) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      sim.Schedule(10, recurse);
    }
  };
  sim.Schedule(10, recurse);
  sim.Run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.Now(), 50);
}

TEST(Simulation, StopEndsRunEarly) {
  Simulation sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    ++fired;
    sim.Stop();
  });
  sim.Schedule(20, [&] { ++fired; });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  sim.Run();  // resumes with the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  sim.RunFor(100);
  SimTime when = -1;
  sim.Schedule(-50, [&] { when = sim.Now(); });
  sim.Run();
  EXPECT_EQ(when, 100);
}

TEST(Simulation, ScheduleAtPastClampsToNow) {
  Simulation sim;
  sim.RunFor(100);
  SimTime when = -1;
  sim.ScheduleAt(10, [&] { when = sim.Now(); });
  sim.Run();
  EXPECT_EQ(when, 100);
}

TEST(Simulation, CancelledEventsDoNotRun) {
  Simulation sim;
  bool ran = false;
  EventHandle h = sim.Schedule(10, [&] { ran = true; });
  h.Cancel();
  sim.Run();
  EXPECT_FALSE(ran);
}

TEST(Simulation, EventsProcessedCounts) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) {
    sim.Schedule(i, [] {});
  }
  EXPECT_EQ(sim.Run(), 7u);
  EXPECT_EQ(sim.events_processed(), 7u);
}

TEST(Simulation, SameInstantEventsRunInScheduleOrder) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(42, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, EventsProcessedAndClockAreSetBeforeTheCallbackRuns) {
  Simulation sim;
  uint64_t seen_count = 0;
  SimTime seen_now = -1;
  sim.Schedule(30, [&] {
    seen_count = sim.events_processed();
    seen_now = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(seen_count, 1u);
  EXPECT_EQ(seen_now, 30);
}

TEST(Simulation, CallbackReadsItsCapturesAfterSchedulingManyChunksOfEvents) {
  Simulation sim;
  const uint32_t n = 3 * EventSlotPool::kChunkSlots;
  uint64_t fired = 0;
  uint64_t tag_after = 0;
  const uint64_t tag = 0x5eed5eed5eedULL;
  sim.Schedule(1, [&sim, &fired, &tag_after, tag, n] {
    for (uint32_t i = 0; i < n; ++i) {
      sim.Schedule(i, [&fired] { ++fired; });
    }
    tag_after = tag;  // read after the pool grew under this running callback
  });
  sim.Run();
  EXPECT_EQ(tag_after, tag);
  EXPECT_EQ(fired, n);
}

TEST(Simulation, FiringEventCannotCancelOrSeeItselfPending) {
  Simulation sim;
  EventHandle self;
  bool pending_inside = true;
  bool cancel_inside = true;
  int fired = 0;
  self = sim.Schedule(10, [&] {
    ++fired;
    pending_inside = self.pending();
    cancel_inside = self.Cancel();
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancel_inside);
  EXPECT_EQ(sim.PendingEvents(), 0u);
}

TEST(Simulation, TrivialCapturesSurviveTheCoreCompletionRing) {
  Simulation sim;
  PowerModel pm;
  Core core(&sim, 0, "cpu0", BigCoreOperatingPoints(), &pm);
  // More work items than the completion ring's initial capacity, so the
  // queued callbacks are relocated when it regrows. Each capture is
  // trivially copyable ({pointer, value}): it moves by memcpy.
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    core.Execute(1000, [&order, i] { order.push_back(i); });
  }
  sim.Run();
  ASSERT_EQ(order.size(), 100u);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

}  // namespace
}  // namespace newtos
