// ChannelChecker: SPSC protocol validation on simulated rings — identity
// binding, FIFO/cursor monotonicity through fault taps, handle reuse, and
// the offline vector-clock trace analysis.

#include "src/check/channel_checker.h"

#include <gtest/gtest.h>

#include <sstream>

#include "src/chan/sim_channel.h"
#include "src/check/stack_check.h"
#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/fault/fault_injector.h"
#include "src/fault/watchdog.h"
#include "src/os/microreboot.h"
#include "src/trace/stack_trace.h"
#include "src/workload/iperf.h"

namespace newtos {
namespace {

bool HasRule(const ChannelChecker& check, const std::string& rule) {
  for (const ChannelChecker::Violation& v : check.violations()) {
    if (v.rule == rule) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Identity binding on live channels.

TEST(ChannelChecker, DetectsSecondProducer) {
  Simulation sim;
  SimChannel<int> chan(&sim, "ring", 8);
  ChannelChecker check;
  const uint32_t alice = check.RegisterActor("alice");
  const uint32_t bob = check.RegisterActor("bob");
  chan.EnableCheck(&check);
  {
    ChannelChecker::ScopedActor scope(&check, alice);
    chan.Push(1);
  }
  EXPECT_TRUE(check.ok());
  {
    ChannelChecker::ScopedActor scope(&check, bob);  // the wiring bug
    chan.Push(2);
  }
  EXPECT_FALSE(check.ok());
  EXPECT_TRUE(HasRule(check, "second-producer"));
  EXPECT_EQ(check.violations()[0].ring, "ring");
}

TEST(ChannelChecker, DetectsSecondConsumerEvenOnSharedRings) {
  Simulation sim;
  SimChannel<int> chan(&sim, "ring", 8);
  ChannelChecker check;
  const uint32_t alice = check.RegisterActor("alice");
  const uint32_t bob = check.RegisterActor("bob");
  chan.EnableCheck(&check);
  check.DeclareSharedProducers(&chan, "test: many producers by design");
  {
    ChannelChecker::ScopedActor scope(&check, alice);
    chan.Push(1);
    chan.Push(2);
  }
  {
    ChannelChecker::ScopedActor scope(&check, bob);
    chan.Push(3);  // fine: producers are declared shared
    chan.Pop();    // bob binds the consumer side
  }
  EXPECT_TRUE(check.ok());
  {
    ChannelChecker::ScopedActor scope(&check, alice);
    chan.Pop();  // shared covers producers only, never consumers
  }
  EXPECT_TRUE(HasRule(check, "second-consumer"));
}

TEST(ChannelChecker, AnonymousOperationsNeitherBindNorViolate) {
  Simulation sim;
  SimChannel<int> chan(&sim, "ring", 8);
  ChannelChecker check;
  const uint32_t alice = check.RegisterActor("alice");
  chan.EnableCheck(&check);
  chan.Push(1);  // no actor in scope: a test poking the channel directly
  {
    ChannelChecker::ScopedActor scope(&check, alice);
    chan.Push(2);  // alice binds the producer side
  }
  chan.Pop();  // anonymous again
  EXPECT_TRUE(check.ok());
}

// ---------------------------------------------------------------------------
// FIFO and cursor discipline through fault taps.

TEST(ChannelChecker, DelayTapPreservesFifoOrder) {
  // The regression this PR fixes: a pass-through message overtaking one held
  // by a delay tap used to reorder delivery. The checker watches delivery
  // seqs; head-of-line blocking in SimChannel now keeps them monotone.
  Simulation sim;
  SimChannel<int> chan(&sim, "ring", 8);
  ChannelChecker check;
  chan.EnableCheck(&check);
  chan.SetTap([](int& v) {
    ChanTapDecision d;
    if (v == 0) {
      d.action = ChanTapAction::kDelay;
      d.delay = 100 * kMicrosecond;
    }
    return d;
  });
  chan.Push(0);  // held
  chan.Push(1);  // queues behind the held message
  chan.Push(2);
  sim.RunFor(kMillisecond);
  EXPECT_EQ(chan.size(), 3u);
  EXPECT_EQ(*chan.Pop(), 0);
  EXPECT_EQ(*chan.Pop(), 1);
  EXPECT_EQ(*chan.Pop(), 2);
  EXPECT_TRUE(check.ok()) << [&] {
    std::ostringstream os;
    check.Report(os);
    return os.str();
  }();
}

TEST(ChannelChecker, DuplicateTapDeliversCleanly) {
  Simulation sim;
  SimChannel<int> chan(&sim, "ring", 8);
  ChannelChecker check;
  chan.EnableCheck(&check);
  chan.SetTap([](int& v) {
    ChanTapDecision d;
    if (v == 1) {
      d.action = ChanTapAction::kDuplicate;
    }
    return d;
  });
  chan.Push(0);
  chan.Push(1);  // delivered twice — same seq twice is legal, backwards isn't
  sim.RunFor(kMillisecond);
  EXPECT_EQ(chan.size(), 3u);
  while (chan.Pop()) {
  }
  EXPECT_TRUE(check.ok());
}

TEST(ChannelChecker, DropTapKeepsAccountsBalanced) {
  Simulation sim;
  SimChannel<int> chan(&sim, "ring", 8);
  ChannelChecker check;
  chan.EnableCheck(&check);
  int n = 0;
  chan.SetTap([&n](int&) {
    ChanTapDecision d;
    if (++n % 2 == 0) {
      d.action = ChanTapAction::kDrop;
    }
    return d;
  });
  for (int i = 0; i < 6; ++i) {
    chan.Push(i);
  }
  sim.RunFor(kMillisecond);
  while (chan.Pop()) {
  }
  EXPECT_TRUE(check.ok());
}

TEST(ChannelChecker, SyntheticReorderIsFlagged) {
  // Drive the hooks directly, as a hypothetical buggy tap would: push #2's
  // message lands before push #1's.
  ChannelChecker check;
  int ring = 0;
  check.Register(&ring, "bad-ring");
  check.OnProducerPush(&ring, 1, 0);
  check.OnProducerPush(&ring, 2, 0);
  check.OnDeliver(&ring, 2);
  check.OnDeliver(&ring, 1);  // overtaken
  EXPECT_TRUE(HasRule(check, "deliver-reorder"));
}

TEST(ChannelChecker, PopBeforePushIsFlagged) {
  ChannelChecker check;
  int ring = 0;
  check.Register(&ring, "bad-ring");
  check.OnPop(&ring, 0);  // nothing was ever delivered
  EXPECT_TRUE(HasRule(check, "pop-before-push"));
}

TEST(ChannelChecker, HandleReuseIsFlagged) {
  ChannelChecker check;
  int ring = 0;
  check.Register(&ring, "ring");
  check.OnProducerPush(&ring, 1, /*hop=*/77);
  check.OnDeliver(&ring, 1);
  check.OnProducerPush(&ring, 2, /*hop=*/77);  // recycled while in flight
  EXPECT_TRUE(HasRule(check, "handle-reuse"));
}

TEST(ChannelChecker, ViolationFloodIsSuppressedPerRingAndRule) {
  ChannelChecker check;
  int ring = 0;
  check.Register(&ring, "bad-ring");
  for (int i = 0; i < 10; ++i) {
    check.OnPop(&ring, 0);
  }
  EXPECT_EQ(check.violations().size(), 1u);
  EXPECT_EQ(check.suppressed(), 9u);
}

// ---------------------------------------------------------------------------
// Offline trace analysis (vector-clock happens-before).

TEST(ChannelChecker, AnalyzeTraceAcceptsBalancedHops) {
  TraceRecorder rec(1024);
  const TrackId t = rec.RegisterTrack("chan");
  const NameId n = rec.InternName("in-flight");
  rec.set_enabled(true);
  rec.AsyncBegin(100, t, n, /*hop=*/1);
  rec.AsyncBegin(200, t, n, /*hop=*/2);
  rec.AsyncEnd(300, t, n, /*hop=*/1);
  rec.AsyncEnd(400, t, n, /*hop=*/2);
  ChannelChecker check;
  EXPECT_EQ(check.AnalyzeTrace(rec), 0u);
  EXPECT_TRUE(check.ok());
}

TEST(ChannelChecker, AnalyzeTraceFlagsEndWithoutBegin) {
  TraceRecorder rec(1024);
  const TrackId t = rec.RegisterTrack("chan");
  const NameId n = rec.InternName("in-flight");
  rec.set_enabled(true);
  rec.AsyncEnd(300, t, n, /*hop=*/9);  // consumed a message never produced
  ChannelChecker check;
  EXPECT_GT(check.AnalyzeTrace(rec), 0u);
  EXPECT_TRUE(HasRule(check, "end-without-begin"));
}

TEST(ChannelChecker, AnalyzeTraceFlagsTimeInversion) {
  TraceRecorder rec(1024);
  const TrackId t = rec.RegisterTrack("chan");
  const NameId n = rec.InternName("in-flight");
  rec.set_enabled(true);
  rec.AsyncBegin(500, t, n, /*hop=*/1);
  rec.AsyncEnd(100, t, n, /*hop=*/1);  // delivered before it was sent
  ChannelChecker check;
  EXPECT_GT(check.AnalyzeTrace(rec), 0u);
  EXPECT_TRUE(HasRule(check, "hb-inversion"));
  EXPECT_TRUE(HasRule(check, "track-time-regression"));
}

TEST(ChannelChecker, AnalyzeTraceStrictModeFlagsHandleReuse) {
  TraceRecorder rec(1024);
  const TrackId t = rec.RegisterTrack("chan");
  const NameId n = rec.InternName("in-flight");
  rec.set_enabled(true);
  rec.AsyncBegin(100, t, n, /*hop=*/1);
  rec.AsyncBegin(200, t, n, /*hop=*/1);  // same hop in flight twice
  rec.AsyncEnd(300, t, n, /*hop=*/1);
  rec.AsyncEnd(400, t, n, /*hop=*/1);
  ChannelChecker lax;
  EXPECT_EQ(lax.AnalyzeTrace(rec), 0u);  // duplicate taps do this legitimately
  ChannelChecker strict;
  ChannelChecker::TraceOptions opts;
  opts.strict_handle_reuse = true;
  EXPECT_GT(strict.AnalyzeTrace(rec, opts), 0u);
  EXPECT_TRUE(HasRule(strict, "handle-reuse"));
}

// ---------------------------------------------------------------------------
// Full-stack integration: the wired testbed keeps the protocol clean, with
// and without fault taps in the rings.

struct RunningIperf {
  explicit RunningIperf(Testbed& tb)
      : api(tb.stack()->CreateApp("iperf", tb.machine().core(0))),
        sender(api,
               [&tb] {
                 IperfSender::Params p;
                 p.dst = tb.peer_addr();
                 return p;
               }()),
        sink(&tb.peer()) {
    sender.Start();
  }
  SocketApi* api;
  IperfSender sender;
  IperfPeerSink sink;
};

TEST(StackCheck, CleanBulkRunHasNoViolations) {
  Testbed tb;
  RunningIperf load(tb);
  ChannelChecker check;
  StackChecker wiring(&check);
  wiring.Attach(tb.stack());
  tb.sim().RunFor(200 * kMillisecond);
  EXPECT_GT(load.sink.total_bytes(), 1'000'000u);
  std::ostringstream report;
  check.Report(report);
  EXPECT_TRUE(check.ok()) << report.str();
}

TEST(StackCheck, FaultTapsPreserveChannelDiscipline) {
  // Satellite check for the fault subsystem: drops, duplicates and delays in
  // the TCP rings must never break SPSC identity, cursor monotonicity or
  // FIFO order — the taps model a misbehaving ring, not a lawless one.
  Testbed tb;
  RunningIperf load(tb);
  ChannelChecker check;
  StackChecker wiring(&check);
  wiring.Attach(tb.stack());

  FaultPlan plan;
  plan.seed = 21;
  for (const FaultClass cls :
       {FaultClass::kChanDrop, FaultClass::kChanDuplicate, FaultClass::kChanDelay}) {
    FaultSpec spec;
    spec.cls = cls;
    spec.target = "tcp";
    spec.probability = 0.01;
    plan.faults.push_back(spec);
  }
  FaultInjector injector(&tb.sim(), std::move(plan));
  injector.Arm(tb.stack());
  tb.sim().RunFor(300 * kMillisecond);

  EXPECT_GT(injector.counters().chan_drops + injector.counters().chan_dups +
                injector.counters().chan_delays,
            0u);
  std::ostringstream report;
  check.Report(report);
  EXPECT_TRUE(check.ok()) << report.str();
}

TEST(StackCheck, WatchdogRecoveryKeepsIdentitiesStable) {
  // A crash + watchdog-driven restart drains rings and replays wiring; none
  // of that may smuggle a second identity onto any ring.
  Testbed tb;
  RunningIperf load(tb);
  MicrorebootManager mgr(&tb.sim());
  WatchdogServer watchdog(&tb.sim(), &mgr, WatchdogServer::Params());
  watchdog.BindCore(tb.machine().core(kWatchdogCore));
  for (Server* s : tb.stack()->SystemServers()) {
    watchdog.Watch(s, 1'000'000);
  }
  watchdog.Start();

  ChannelChecker check;
  StackChecker wiring(&check);
  wiring.Attach(tb.stack());
  wiring.AttachServer(&watchdog);

  tb.sim().RunFor(50 * kMillisecond);
  tb.stack()->ip()->Hang();  // silent failure; the watchdog must catch it
  tb.sim().RunFor(200 * kMillisecond);

  EXPECT_GE(mgr.incidents().size(), 1u);
  std::ostringstream report;
  check.Report(report);
  EXPECT_TRUE(check.ok()) << report.str();
}

TEST(StackCheck, TracedRunAnalyzesClean) {
  // The online checker and the offline trace analysis agree: a healthy
  // traced run produces an async-hop history with no causal violations.
  Testbed tb;
  StackTracer::Options topt;
  topt.ring_capacity = 1 << 19;  // the 20 ms run records ~290k events; keep them all
  topt.samplers = false;
  StackTracer tracer(&tb.sim(), tb.stack(), topt);
  RunningIperf load(tb);
  ChannelChecker check;
  StackChecker wiring(&check);
  wiring.Attach(tb.stack());
  tracer.Enable();
  tb.sim().RunFor(20 * kMillisecond);
  tracer.Disable();
  EXPECT_EQ(tracer.recorder().dropped(), 0u);
  EXPECT_EQ(check.AnalyzeTrace(tracer.recorder()), 0u);
  std::ostringstream report;
  check.Report(report);
  EXPECT_TRUE(check.ok()) << report.str();
}

}  // namespace
}  // namespace newtos
