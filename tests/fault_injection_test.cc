// Fault injection: channel taps, wire corruption, and watchdog-driven
// recovery from silent failures (hang, livelock) and crashes mid-protocol.

#include "src/fault/fault_injector.h"

#include <gtest/gtest.h>

#include "src/chan/sim_channel.h"
#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/fault/invariants.h"
#include "src/fault/watchdog.h"
#include "src/os/microreboot.h"
#include "src/sim/random.h"
#include "src/workload/iperf.h"

namespace newtos {
namespace {

// ---------------------------------------------------------------------------
// Channel-tap semantics on a raw SimChannel.

TEST(ChanTap, DropSwallowsMessagesInTransit) {
  Simulation sim;
  SimChannel<int> chan(&sim, "t", 8);
  int n = 0;
  chan.SetTap([&n](int&) {
    ChanTapDecision d;
    if (++n % 2 == 0) {
      d.action = ChanTapAction::kDrop;
    }
    return d;
  });
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(chan.Push(i));  // injected drops still report producer success
  }
  sim.RunFor(kMillisecond);
  EXPECT_EQ(chan.size(), 3u);
  EXPECT_EQ(chan.stats().injected_drops, 3u);
  EXPECT_EQ(chan.stats().pushes, 3u);
}

TEST(ChanTap, DuplicateDeliversTwice) {
  Simulation sim;
  SimChannel<int> chan(&sim, "t", 8);
  chan.SetTap([](int& v) {
    ChanTapDecision d;
    if (v == 1) {
      d.action = ChanTapAction::kDuplicate;
    }
    return d;
  });
  chan.Push(0);
  chan.Push(1);
  sim.RunFor(kMillisecond);
  EXPECT_EQ(chan.size(), 3u);
  EXPECT_EQ(chan.stats().injected_dups, 1u);
}

TEST(ChanTap, DelayHoldsThenReleasesInOrder) {
  Simulation sim;
  SimChannel<int> chan(&sim, "t", 8);
  chan.SetTap([](int& v) {
    ChanTapDecision d;
    if (v == 0) {
      d.action = ChanTapAction::kDelay;
      d.delay = 100 * kMicrosecond;
    }
    return d;
  });
  chan.Push(0);  // held back
  chan.Push(1);  // must not overtake the held message: the ring is a FIFO
  EXPECT_EQ(chan.size(), 0u);
  sim.RunFor(200 * kMicrosecond);
  EXPECT_EQ(chan.size(), 2u);
  EXPECT_EQ(*chan.Front(), 0);  // push order preserved through the delay
  EXPECT_EQ(chan.stats().injected_delays, 1u);
}

TEST(ChanTap, SameSeedSameDecisions) {
  auto run = [](uint64_t seed) {
    Simulation sim;
    SimChannel<int> chan(&sim, "t", 64);
    Rng rng(seed);
    chan.SetTap([&rng](int&) {
      ChanTapDecision d;
      if (rng.Bernoulli(0.3)) {
        d.action = ChanTapAction::kDrop;
      }
      return d;
    });
    for (int i = 0; i < 50; ++i) {
      chan.Push(i);
    }
    sim.RunFor(kMillisecond);
    std::vector<int> survivors;
    while (auto v = chan.Pop()) {
      survivors.push_back(*v);
    }
    return survivors;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---------------------------------------------------------------------------
// End-to-end injection through the stack.

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

// Arms a watchdog over every stack server; returns it started.
struct RecoveryPlane {
  explicit RecoveryPlane(Testbed& tb)
      : mgr(&tb.sim()), watchdog(&tb.sim(), &mgr, WatchdogServer::Params()) {
    MultiserverStack* stack = tb.stack();
    watchdog.BindCore(tb.machine().core(kWatchdogCore));
    for (Server* s : stack->SystemServers()) {
      watchdog.Watch(s, stack->RestartCycles(s));
    }
    watchdog.Start();
  }
  MicrorebootManager mgr;
  WatchdogServer watchdog;
};

TEST(FaultInjection, WireBitFlipsAreDroppedByChecksums) {
  Testbed tb;
  RunningIperf load(tb);

  FaultPlan plan;
  plan.seed = 11;
  FaultSpec spec;
  spec.cls = FaultClass::kWireBitFlip;
  spec.probability = 0.01;
  plan.faults.push_back(spec);

  FaultInjector injector(&tb.sim(), std::move(plan));
  injector.ArmWire(tb.machine().nic());
  injector.ArmWire(tb.peer().nic());
  tb.sim().RunFor(500 * kMillisecond);

  EXPECT_GT(injector.counters().wire_flips, 0u);
  // Every flipped frame was discarded at a checksum-verification point...
  const uint64_t drops = tb.stack()->ip()->rx_checksum_drops() +
                         tb.stack()->tcp()->rx_checksum_drops() +
                         tb.peer().rx_checksum_drops();
  EXPECT_GT(drops, 0u);
  // ...so no corrupt segment reached a socket, and the transfer survived.
  for (TcpConnection* c : tb.stack()->tcp()->host().Connections()) {
    EXPECT_EQ(c->stats().corrupt_segments_accepted, 0u);
  }
  for (TcpConnection* c : tb.peer().tcp().Connections()) {
    EXPECT_EQ(c->stats().corrupt_segments_accepted, 0u);
  }
  EXPECT_GT(load.sink.total_bytes(), 10'000'000u);
}

TEST(FaultInjection, ChannelCorruptionIsDroppedNotDelivered) {
  Testbed tb;
  RunningIperf load(tb);

  FaultPlan plan;
  plan.seed = 12;
  FaultSpec spec;
  spec.cls = FaultClass::kChanCorrupt;
  spec.target = "tcp";
  spec.probability = 0.02;
  plan.faults.push_back(spec);

  FaultInjector injector(&tb.sim(), std::move(plan));
  injector.Arm(tb.stack());
  tb.sim().RunFor(500 * kMillisecond);

  EXPECT_GT(injector.counters().chan_corrupts, 0u);
  EXPECT_GT(tb.stack()->tcp()->rx_checksum_drops() + tb.stack()->ip()->rx_checksum_drops(), 0u);
  for (TcpConnection* c : tb.stack()->tcp()->host().Connections()) {
    EXPECT_EQ(c->stats().corrupt_segments_accepted, 0u);
  }
  EXPECT_GT(load.sink.total_bytes(), 10'000'000u);
}

TEST(FaultInjection, WatchdogDetectsAndRecoversHang) {
  Testbed tb;
  tb.stack()->tcp()->set_checkpointing(true);
  RunningIperf load(tb);
  RecoveryPlane rp(tb);

  FaultPlan plan;
  FaultSpec spec;
  spec.cls = FaultClass::kServerHang;
  spec.target = "ip";
  spec.at = 100 * kMillisecond;
  plan.faults.push_back(spec);
  FaultInjector injector(&tb.sim(), std::move(plan));
  injector.Arm(tb.stack());

  tb.sim().RunFor(kSecond);

  EXPECT_EQ(injector.counters().hangs, 1u);
  ASSERT_FALSE(rp.watchdog.detections().empty());
  const auto& det = rp.watchdog.detections()[0];
  EXPECT_EQ(det.server, "ip");
  // Silence is noticed within the configured deadline (plus one probe period
  // of sampling slack) — not tied to the hung server ever responding.
  EXPECT_LE(det.detected_at - det.last_ack,
            rp.watchdog.DetectionDeadline() + rp.watchdog.params().heartbeat_interval);

  const RecoveryCheck rc = CheckBoundedRecovery(rp.mgr.incidents(), 100 * kMillisecond);
  EXPECT_TRUE(rc.all_recovered);
  EXPECT_TRUE(rc.all_within_bound);
  EXPECT_FALSE(tb.stack()->ip()->hung());
  EXPECT_FALSE(tb.stack()->ip()->crashed());

  // The transfer kept going after recovery.
  const uint64_t after_recovery = load.sink.total_bytes();
  tb.sim().RunFor(500 * kMillisecond);
  EXPECT_GT(load.sink.total_bytes(), after_recovery + 10'000'000u);
}

TEST(FaultInjection, WatchdogDetectsAndRecoversLivelock) {
  Testbed tb;
  tb.stack()->tcp()->set_checkpointing(true);
  RunningIperf load(tb);
  RecoveryPlane rp(tb);

  FaultPlan plan;
  FaultSpec spec;
  spec.cls = FaultClass::kServerLivelock;
  spec.target = "tcp";
  spec.at = 100 * kMillisecond;
  plan.faults.push_back(spec);
  FaultInjector injector(&tb.sim(), std::move(plan));
  injector.Arm(tb.stack());

  tb.sim().RunFor(kSecond);

  EXPECT_EQ(injector.counters().livelocks, 1u);
  ASSERT_FALSE(rp.watchdog.detections().empty());
  EXPECT_EQ(rp.watchdog.detections()[0].server, "tcp");
  const RecoveryCheck rc = CheckBoundedRecovery(rp.mgr.incidents(), 100 * kMillisecond);
  EXPECT_TRUE(rc.all_recovered);
  EXPECT_TRUE(rc.all_within_bound);
  EXPECT_FALSE(tb.stack()->tcp()->hung());
}

TEST(FaultInjection, HeartbeatsRaiseNoFalsePositivesUnderLoad) {
  Testbed tb;
  RunningIperf load(tb);
  RecoveryPlane rp(tb);
  tb.sim().RunFor(600 * kMillisecond);

  EXPECT_GT(rp.watchdog.probes_sent(), 0u);
  EXPECT_GT(rp.watchdog.acks_received(), 0u);
  EXPECT_TRUE(rp.watchdog.detections().empty())
      << "a fully loaded but healthy stack must never be escalated";
  EXPECT_TRUE(rp.mgr.incidents().empty());
  EXPECT_GT(load.sink.total_bytes(), 50'000'000u);
}

TEST(FaultInjection, BoundedRecoveryHoldsAtSlowStackFrequency) {
  // The acceptance bar: a hang is detected and repaired within the bound at
  // both the full-speed and the slowed stack plane.
  for (FreqKhz freq : {3'600'000 * kKhz, 1'200'000 * kKhz}) {
    Testbed tb;
    DedicatedSlowPlan(*tb.stack(), freq, 3'600'000 * kKhz).Apply(tb.machine());
    tb.stack()->tcp()->set_checkpointing(true);
    RunningIperf load(tb);
    RecoveryPlane rp(tb);

    FaultPlan plan;
    FaultSpec spec;
    spec.cls = FaultClass::kServerHang;
    spec.target = "tcp";
    spec.at = 100 * kMillisecond;
    plan.faults.push_back(spec);
    FaultInjector injector(&tb.sim(), std::move(plan));
    injector.Arm(tb.stack());

    tb.sim().RunFor(kSecond);

    const RecoveryCheck rc = CheckBoundedRecovery(rp.mgr.incidents(), 100 * kMillisecond);
    EXPECT_TRUE(rc.all_recovered) << "stack at " << freq << " kHz";
    EXPECT_TRUE(rc.all_within_bound)
        << "stack at " << freq << " kHz: detect " << rc.worst_detect << " recover "
        << rc.worst_recover;
  }
}

// ---------------------------------------------------------------------------
// Microreboot at protocol-critical moments.

TEST(FaultRecovery, MicrorebootDuringTcpHandshake) {
  Testbed tb;
  tb.stack()->tcp()->set_checkpointing(true);
  IperfPeerSink sink(&tb.peer());

  SocketApi* api = tb.stack()->CreateApp("client", tb.machine().core(0));
  bool established = false;
  bool closed = false;
  uint64_t handle = 0;
  api->SetEventHandler([&](const Msg& m) {
    if (m.type == MsgType::kEvtEstablished && m.handle == handle) {
      established = true;
    }
    if (m.type == MsgType::kEvtClosed && m.handle == handle) {
      closed = true;
    }
  });
  handle = api->Connect(tb.peer_addr(), kIperfPort);

  // Kill the TCP server while the SYN exchange is in flight.
  MicrorebootManager mgr(&tb.sim());
  mgr.InjectCrash(tb.stack()->tcp(), 10 * kMicrosecond, tb.stack()->config().tcp.restart_cycles);
  tb.sim().RunFor(2 * kSecond);

  // The connection attempt resolved one way or the other — nothing wedged.
  EXPECT_TRUE(mgr.AllRecovered());
  EXPECT_TRUE(established || closed)
      << "a handshake interrupted by a microreboot must complete or fail cleanly";

  // And the recovered server accepts fresh connections that move real data.
  SocketApi* api2 = tb.stack()->CreateApp("client2", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api2, sp);
  sender.Start();
  tb.sim().RunFor(300 * kMillisecond);
  EXPECT_GT(sink.total_bytes(), 10'000'000u);
}

TEST(FaultRecovery, MicrorebootDuringSackLossRecovery) {
  TestbedOptions opt;
  opt.link_loss = 0.01;  // keep SACK loss-recovery machinery constantly busy
  opt.stack.tcp_params.sack = true;
  Testbed tb(opt);
  tb.stack()->tcp()->set_checkpointing(true);
  RunningIperf load(tb);
  tb.sim().RunFor(150 * kMillisecond);
  const uint64_t before = load.sink.total_bytes();
  ASSERT_GT(before, 0u);

  // Crash mid-transfer: on a 1% lossy link the sender is essentially always
  // holding SACK state for some hole when the server dies.
  MicrorebootManager mgr(&tb.sim());
  mgr.InjectCrash(tb.stack()->tcp(), tb.sim().Now() + kMillisecond,
                  tb.stack()->config().tcp.restart_cycles);
  tb.sim().RunFor(3 * kSecond);

  EXPECT_TRUE(mgr.AllRecovered());
  EXPECT_EQ(tb.stack()->tcp()->host().connection_count(), 1u);
  EXPECT_GT(load.sink.total_bytes(), before + 10'000'000u)
      << "the stream must resume after a reboot that interrupted loss recovery";
}

}  // namespace
}  // namespace newtos
