// Switch-fabric model tests: port FIFO ordering, switching latency,
// shared-backplane bandwidth, egress tail drop under incast fan-in, and
// routing. Most hosts share one Simulation here — the fabric's contract is
// identical with or without lanes; lane_test.cc covers the parallel side.
// The ingress-log tests at the end spread ports over several Simulations,
// stepped in lockstep windows on one thread.

#include "src/fabric/switch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/net/packet_pool.h"
#include "src/sim/simulation.h"

namespace newtos {
namespace {

constexpr Ipv4Addr kAddrA = Ipv4(10, 0, 0, 1);
constexpr Ipv4Addr kAddrB = Ipv4(10, 0, 0, 2);
constexpr Ipv4Addr kAddrC = Ipv4(10, 0, 0, 3);
constexpr Ipv4Addr kAddrD = Ipv4(10, 0, 0, 4);

PacketPtr Frame(Ipv4Addr src, Ipv4Addr dst, uint32_t payload, uint64_t tag = 0) {
  PacketPtr p = MakePacket();
  p->ip.proto = IpProto::kUdp;
  p->ip.src = src;
  p->ip.dst = dst;
  p->payload_bytes = payload;
  p->app_tag = tag;
  return p;
}

// Runs the simulation in lookahead windows, flushing the fabric at each
// boundary — exactly what LaneEngine does, inlined for single-sim tests.
void Pump(Simulation& sim, Switch& sw, SimTime duration) {
  const SimTime until = sim.Now() + duration;
  while (sim.Now() < until) {
    sim.RunUntil(std::min(sim.Now() + sw.Lookahead(), until));
    sw.Flush();
  }
  // Drain arrivals scheduled by the final flush.
  sim.Run();
  sw.Flush();
  sim.Run();
}

class FabricTest : public ::testing::Test {
 protected:
  explicit FabricTest(SwitchParams params = {}) : sw_(params) {}

  // Attaches a NIC and records every host-visible arrival (time, app_tag).
  Nic* AddHost(Ipv4Addr addr) {
    nics_.push_back(std::make_unique<Nic>(&sim_, "nic", Nic::Params{}));
    Nic* nic = nics_.back().get();
    sw_.AttachNic(nic, &sim_, addr);
    arrivals_.push_back(std::make_unique<std::vector<std::pair<SimTime, uint64_t>>>());
    auto* log = arrivals_.back().get();
    nic->SetRxNotify([this, nic, log] {
      while (PacketPtr p = nic->PollRx()) {
        log->emplace_back(sim_.Now(), p->app_tag);
      }
    });
    return nic;
  }

  const std::vector<std::pair<SimTime, uint64_t>>& arrivals(int host) {
    return *arrivals_[static_cast<size_t>(host)];
  }

  Simulation sim_;
  Switch sw_;
  std::vector<std::unique_ptr<Nic>> nics_;
  std::vector<std::unique_ptr<std::vector<std::pair<SimTime, uint64_t>>>> arrivals_;
};

TEST_F(FabricTest, PortPreservesFifoOrderAndLineRateSpacing) {
  Nic* a = AddHost(kAddrA);
  AddHost(kAddrB);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(a->Transmit(Frame(kAddrA, kAddrB, 1000, i)));
  }
  Pump(sim_, sw_, 1 * kMillisecond);

  ASSERT_EQ(arrivals(1).size(), 8u);
  for (uint64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(arrivals(1)[i].second, i) << "frames reordered through the port";
  }
  // Back-to-back frames leave the egress wire one serialization time apart.
  const SimTime ser = sw_.EgressSerializationTime(Frame(kAddrA, kAddrB, 1000)->FrameBytes());
  for (size_t i = 1; i < 8; ++i) {
    EXPECT_EQ(arrivals(1)[i].first - arrivals(1)[i - 1].first, ser);
  }
}

TEST(FabricLatencyTest, SwitchingLatencyShiftsArrivalOneForOne) {
  SimTime base_arrival = 0;
  for (SimTime extra : {SimTime{0}, 5 * kMicrosecond}) {
    SwitchParams params;
    params.switching_latency = 1 * kMicrosecond + extra;
    Simulation sim;
    Switch sw(params);
    Nic a(&sim, "a", {});
    Nic b(&sim, "b", {});
    sw.AttachNic(&a, &sim, kAddrA);
    sw.AttachNic(&b, &sim, kAddrB);
    SimTime arrival = 0;
    b.SetRxNotify([&] {
      while (PacketPtr p = b.PollRx()) {
        arrival = sim.Now();
      }
    });
    a.Transmit(Frame(kAddrA, kAddrB, 1000));
    Pump(sim, sw, 1 * kMillisecond);
    ASSERT_GT(arrival, 0);
    if (extra == 0) {
      base_arrival = arrival;
    } else {
      EXPECT_EQ(arrival - base_arrival, extra);
    }
  }
}

TEST(FabricBackplaneTest, SharedFabricBandwidthSerializesCrossTraffic) {
  // a->c and b->d at the same instant. With a non-blocking backplane both
  // pairs are independent and arrive together; with a shared backplane at
  // port rate, the second frame waits one fabric serialization behind the
  // first (ties break by ingress port id, so a's frame goes first).
  for (double fabric_gbps : {0.0, 10.0}) {
    SwitchParams params;
    params.fabric_gbps = fabric_gbps;
    Simulation sim;
    Switch sw(params);
    Nic a(&sim, "a", {}), b(&sim, "b", {}), c(&sim, "c", {}), d(&sim, "d", {});
    sw.AttachNic(&a, &sim, kAddrA);
    sw.AttachNic(&b, &sim, kAddrB);
    sw.AttachNic(&c, &sim, kAddrC);
    sw.AttachNic(&d, &sim, kAddrD);
    SimTime at_c = 0, at_d = 0;
    c.SetRxNotify([&] {
      while (c.PollRx()) {
        at_c = sim.Now();
      }
    });
    d.SetRxNotify([&] {
      while (d.PollRx()) {
        at_d = sim.Now();
      }
    });
    a.Transmit(Frame(kAddrA, kAddrC, 1000));
    b.Transmit(Frame(kAddrB, kAddrD, 1000));
    Pump(sim, sw, 1 * kMillisecond);
    ASSERT_GT(at_c, 0);
    ASSERT_GT(at_d, 0);
    if (fabric_gbps == 0.0) {
      EXPECT_EQ(at_c, at_d) << "non-blocking backplane must not couple ports";
    } else {
      const SimTime fabric_ser =
          sw.EgressSerializationTime(Frame(kAddrA, kAddrC, 1000)->FrameBytes());
      EXPECT_EQ(at_d - at_c, fabric_ser) << "shared backplane must serialize";
    }
  }
}

class IncastDropTest : public FabricTest {
 protected:
  static SwitchParams Params() {
    SwitchParams p;
    p.egress_queue_slots = 8;
    return p;
  }
  IncastDropTest() : FabricTest(Params()) {}
};

TEST_F(IncastDropTest, EgressQueueTailDropsIncastOverflow) {
  Nic* a = AddHost(kAddrA);
  Nic* b = AddHost(kAddrB);
  AddHost(kAddrC);
  // Two senders at full line rate into one egress port: 2x oversubscribed,
  // 8-frame buffer => sustained tail drop.
  const int per_sender = 64;
  for (uint64_t i = 0; i < per_sender; ++i) {
    ASSERT_TRUE(a->Transmit(Frame(kAddrA, kAddrC, 1400, i)));
    ASSERT_TRUE(b->Transmit(Frame(kAddrB, kAddrC, 1400, i)));
  }
  Pump(sim_, sw_, 5 * kMillisecond);

  const Switch::PortStats& out = sw_.port_stats(2);
  EXPECT_GT(out.egress_drops, 0u) << "2x incast into an 8-slot buffer must drop";
  EXPECT_EQ(out.out_frames, arrivals(2).size());
  // Conservation: every ingress frame was either delivered or tail-dropped.
  EXPECT_EQ(sw_.port_stats(0).in_frames + sw_.port_stats(1).in_frames,
            out.out_frames + out.egress_drops);
  EXPECT_EQ(sw_.stats().unrouted_drops, 0u);
}

TEST(FabricFairnessTest, FairShareAcrossCompetingSenders) {
  // Tag frames per sender and check delivered counts stay balanced when two
  // equal senders overflow one egress port.
  SwitchParams params;
  params.egress_queue_slots = 8;
  Simulation sim;
  Switch sw(params);
  Nic a(&sim, "a", {}), b(&sim, "b", {}), c(&sim, "c", {});
  sw.AttachNic(&a, &sim, kAddrA);
  sw.AttachNic(&b, &sim, kAddrB);
  sw.AttachNic(&c, &sim, kAddrC);
  uint64_t from_a = 0, from_b = 0;
  c.SetRxNotify([&] {
    while (PacketPtr p = c.PollRx()) {
      (p->app_tag == 1 ? from_a : from_b)++;
    }
  });
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(a.Transmit(Frame(kAddrA, kAddrC, 1400, 1)));
    ASSERT_TRUE(b.Transmit(Frame(kAddrB, kAddrC, 1400, 2)));
  }
  Pump(sim, sw, 5 * kMillisecond);
  ASSERT_GT(from_a + from_b, 0u);
  const uint64_t diff = from_a > from_b ? from_a - from_b : from_b - from_a;
  EXPECT_LE(diff, 2u) << "equal offered load must split the egress port evenly";
}

TEST_F(FabricTest, UnroutedDestinationIsDroppedAndCounted) {
  Nic* a = AddHost(kAddrA);
  AddHost(kAddrB);
  a->Transmit(Frame(kAddrA, Ipv4(10, 9, 9, 9), 100));
  Pump(sim_, sw_, 1 * kMillisecond);
  EXPECT_EQ(sw_.stats().unrouted_drops, 1u);
  EXPECT_EQ(sw_.stats().routed_frames, 0u);
  EXPECT_TRUE(arrivals(1).empty());
}

TEST_F(FabricTest, MultiHomedAddressBinding) {
  Nic* a = AddHost(kAddrA);
  AddHost(kAddrB);
  sw_.BindAddress(kAddrC, 1);  // second address out of port 1
  a->Transmit(Frame(kAddrA, kAddrC, 100, 77));
  Pump(sim_, sw_, 1 * kMillisecond);
  ASSERT_EQ(arrivals(1).size(), 1u);
  EXPECT_EQ(arrivals(1)[0].second, 77u);
}

TEST(FabricLookaheadTest, LookaheadIsSwitchingPlusMinPropagation) {
  SwitchParams params;
  params.switching_latency = 3 * kMicrosecond;
  params.port_propagation = 4 * kMicrosecond;
  Simulation sim;
  Switch sw(params);
  Nic a(&sim, "a", {}), b(&sim, "b", {});
  sw.AttachNic(&a, &sim, kAddrA);
  sw.AttachNic(&b, &sim, kAddrB, 2 * kMicrosecond);  // shorter cable wins
  EXPECT_EQ(sw.Lookahead(), 5 * kMicrosecond);
}

// --- per-lane ingress logs ---------------------------------------------------

// Steps every simulation to each window edge, then flushes: LaneEngine's
// windowing with the lanes run one after another on this thread.
void PumpLanes(const std::vector<Simulation*>& sims, Switch& sw, SimTime duration) {
  const SimTime until = sims[0]->Now() + duration;
  SimTime w = sims[0]->Now();
  while (w < until) {
    w = std::min(w + sw.Lookahead(), until);
    for (Simulation* sim : sims) {
      sim->RunUntil(w);
    }
    sw.Flush();
  }
}

struct TieRun {
  std::vector<std::pair<SimTime, uint64_t>> arrivals;  // at the sink
  uint64_t out_frames = 0;
  uint64_t egress_drops = 0;
};

// Four senders fire identical back-to-back bursts into one sink behind an
// 8-slot egress queue, so every frame time is a 4-way tie and the rotating
// tie cursor decides who is delivered. Port p is attached from simulation
// sim_of[p]; the sink (last port) from simulation 0.
TieRun RunTies(const std::vector<int>& sim_of) {
  SwitchParams params;
  params.egress_queue_slots = 8;
  std::vector<std::unique_ptr<Simulation>> sims;
  std::vector<Simulation*> lanes;
  for (int i = 0; i <= *std::max_element(sim_of.begin(), sim_of.end()); ++i) {
    sims.push_back(std::make_unique<Simulation>());
    lanes.push_back(sims.back().get());
  }
  Switch sw(params);
  std::vector<std::unique_ptr<Nic>> senders;
  for (size_t p = 0; p < sim_of.size(); ++p) {
    Simulation* sim = lanes[static_cast<size_t>(sim_of[p])];
    senders.push_back(std::make_unique<Nic>(sim, "tx", Nic::Params{}));
    sw.AttachNic(senders.back().get(), sim, Ipv4(10, 0, 1, static_cast<uint8_t>(p)));
  }
  Nic sink(lanes[0], "sink", {});
  sw.AttachNic(&sink, lanes[0], kAddrA);
  TieRun run;
  sink.SetRxNotify([&] {
    while (PacketPtr p = sink.PollRx()) {
      run.arrivals.emplace_back(lanes[0]->Now(), p->app_tag);
    }
  });
  for (size_t p = 0; p < senders.size(); ++p) {
    for (uint64_t k = 0; k < 32; ++k) {
      EXPECT_TRUE(senders[p]->Transmit(
          Frame(Ipv4(10, 0, 1, static_cast<uint8_t>(p)), kAddrA, 1000, p * 1000 + k)));
    }
  }
  PumpLanes(lanes, sw, 2 * kMillisecond);
  const Switch::PortStats out = sw.port_stats(static_cast<int>(senders.size()));
  run.out_frames = out.out_frames;
  run.egress_drops = out.egress_drops;
  return run;
}

TEST(FabricIngressLogTest, TieArbitrationIsIndependentOfHowPortsShareLogs) {
  const TieRun one = RunTies({0, 0, 0, 0});
  ASSERT_GT(one.egress_drops, 0u) << "the rig must overflow for ties to matter";
  ASSERT_EQ(one.arrivals.size(), one.out_frames);
  // Every sender wins some grants: the cursor rotates rather than locking on.
  for (uint64_t sender = 0; sender < 4; ++sender) {
    EXPECT_TRUE(std::any_of(one.arrivals.begin(), one.arrivals.end(),
                            [&](const auto& a) { return a.second / 1000 == sender; }))
        << "sender " << sender;
  }
  // Interleaved and lopsided splits put each port's frames in a different
  // log, and a log's ports out of port order; the delivered timeline must
  // not notice.
  for (const std::vector<int>& split :
       {std::vector<int>{0, 1, 0, 1}, std::vector<int>{1, 0, 0, 2}, std::vector<int>{3, 2, 1, 0}}) {
    const TieRun many = RunTies(split);
    EXPECT_EQ(many.arrivals, one.arrivals);
    EXPECT_EQ(many.out_frames, one.out_frames);
    EXPECT_EQ(many.egress_drops, one.egress_drops);
  }
}

TEST_F(IncastDropTest, FlushedLogIsNotDeliveredAgain) {
  Nic* a = AddHost(kAddrA);
  Nic* b = AddHost(kAddrB);
  AddHost(kAddrC);
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(a->Transmit(Frame(kAddrA, kAddrC, 1400, i)));
    ASSERT_TRUE(b->Transmit(Frame(kAddrB, kAddrC, 1400, i)));
  }
  Pump(sim_, sw_, 1 * kMillisecond);
  const Switch::PortStats before = sw_.port_stats(2);
  const uint64_t routed = sw_.stats().routed_frames;
  ASSERT_GT(before.egress_drops, 0u) << "dropped frames must still sit in the logs";
  ASSERT_EQ(before.out_frames, arrivals(2).size());

  // No ingress since the last Flush: further flushes find nothing new.
  for (int i = 0; i < 3; ++i) {
    sw_.Flush();
    sim_.Run();
  }
  const Switch::PortStats after = sw_.port_stats(2);
  EXPECT_EQ(after.out_frames, before.out_frames);
  EXPECT_EQ(after.out_bytes, before.out_bytes);
  EXPECT_EQ(after.egress_drops, before.egress_drops);
  EXPECT_EQ(sw_.stats().routed_frames, routed);
  EXPECT_EQ(arrivals(2).size(), before.out_frames);

  // The next ingress starts a fresh log: exactly the new frame is delivered.
  ASSERT_TRUE(a->Transmit(Frame(kAddrA, kAddrC, 1400, 99)));
  Pump(sim_, sw_, 1 * kMillisecond);
  EXPECT_EQ(sw_.port_stats(2).out_frames, before.out_frames + 1);
  EXPECT_EQ(sw_.port_stats(2).egress_drops, before.egress_drops);
  ASSERT_EQ(arrivals(2).size(), before.out_frames + 1);
  EXPECT_EQ(arrivals(2).back().second, 99u);
}

TEST(FabricIngressLogTest, DroppedFramesReturnToTheirPoolOnTheNextIngress) {
  PacketPool pool;  // outlives everything below, the Switch included
  SwitchParams params;
  params.egress_queue_slots = 2;
  Simulation sim;
  {
    Switch sw(params);
    Nic a(&sim, "a", {}), b(&sim, "b", {}), c(&sim, "c", {});
    sw.AttachNic(&a, &sim, kAddrA);
    sw.AttachNic(&b, &sim, kAddrB);
    sw.AttachNic(&c, &sim, kAddrC);
    c.SetRxNotify([&] {
      while (c.PollRx()) {
      }
    });
    PacketPool::ScopedUse use(&pool);
    for (uint64_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(a.Transmit(Frame(kAddrA, kAddrC, 1400, i)));
      ASSERT_TRUE(b.Transmit(Frame(kAddrB, kAddrC, 1400, i)));
    }
    Pump(sim, sw, 1 * kMillisecond);
    const uint64_t drops = sw.port_stats(2).egress_drops;
    ASSERT_GT(drops, 0u);
    // Delivered packets were consumed by the sink, and drops of earlier
    // windows went back at later ingresses; the last window's drops wait in
    // the flushed log for their lane.
    EXPECT_GT(pool.stats().outstanding, 0u);
    EXPECT_LE(pool.stats().outstanding, drops);

    // The lane's next Ingress clears its log into the pool.
    ASSERT_TRUE(a.Transmit(Frame(kAddrA, kAddrC, 1400, 99)));
    Pump(sim, sw, 1 * kMillisecond);
    EXPECT_EQ(sw.port_stats(2).egress_drops, drops);
    EXPECT_EQ(pool.stats().outstanding, 0u);

    // Overflow once more and leave the dropped frames in the logs: the
    // Switch's destructor must hand them back to the still-live pool.
    for (uint64_t i = 0; i < 16; ++i) {
      ASSERT_TRUE(a.Transmit(Frame(kAddrA, kAddrC, 1400, i)));
      ASSERT_TRUE(b.Transmit(Frame(kAddrB, kAddrC, 1400, i)));
    }
    Pump(sim, sw, 1 * kMillisecond);
    ASSERT_GT(sw.port_stats(2).egress_drops, drops);
    EXPECT_GT(pool.stats().outstanding, 0u);
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
}

}  // namespace
}  // namespace newtos
