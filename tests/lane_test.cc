// Parallel-lane equivalence: the repo's core claim for the fabric subsystem
// is that lane partitioning is a pure performance knob. A 1-lane run (the
// determinism oracle: no threads, no barriers) and an N-lane run of the
// same scenario must produce bit-identical stream digests, counters and
// derived figure rows. These tests hold both incast rigs to that, pin the
// oracle against checked-in goldens, and exercise the LaneEngine windowing
// machinery directly.
//
// The suite also runs under TSan in CI (see .github/workflows/ci.yml): the
// multi-lane path must be clean under the race detector with the channel
// checkers enabled.

#include "src/fabric/lane.h"

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <vector>

#include "src/fabric/incast.h"
#include "src/fabric/switch.h"
#include "src/host/affinity.h"
#include "src/sim/random.h"

namespace newtos {
namespace {

// --- LaneEngine mechanics -------------------------------------------------

TEST(LaneEngineTest, SingleLaneRunsWindowedOnCallerThread) {
  LaneEngine engine(1);
  engine.SetLookahead(10 * kMicrosecond);
  uint64_t ticks = 0;
  std::function<void()> tick = [&] {
    ++ticks;
    engine.lane(0).sim().Schedule(1 * kMicrosecond, [&] { tick(); });
  };
  engine.lane(0).sim().Schedule(0, [&] { tick(); });
  engine.RunFor(1 * kMillisecond);
  EXPECT_EQ(engine.Now(), 1 * kMillisecond);
  // Fires at t = 0, 1us, ..., 1ms inclusive (RunUntil runs events <= until).
  EXPECT_EQ(ticks, 1001u);
}

TEST(LaneEngineTest, AllLanesReachTheBarrierClock) {
  LaneEngine engine(4);
  engine.SetLookahead(5 * kMicrosecond);
  struct Ticker {
    Simulation* sim = nullptr;
    uint64_t count = 0;
    void Fire() {
      ++count;
      sim->Schedule(2 * kMicrosecond, [this] { Fire(); });
    }
  };
  std::vector<std::unique_ptr<Ticker>> tickers;
  for (int i = 0; i < 4; ++i) {
    tickers.push_back(std::make_unique<Ticker>());
    tickers.back()->sim = &engine.lane(i).sim();
    Ticker* t = tickers.back().get();
    t->sim->Schedule(0, [t] { t->Fire(); });
  }
  engine.RunFor(1 * kMillisecond);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(engine.lane(i).sim().Now(), 1 * kMillisecond);
    EXPECT_EQ(tickers[static_cast<size_t>(i)]->count, 501u) << "lane " << i;
  }
  EXPECT_EQ(engine.Now(), 1 * kMillisecond);
  // Perfectly balanced load: every lane carries ~1/4 of the events.
  EXPECT_NEAR(engine.MaxLaneShare(), 0.25, 0.01);
}

TEST(LaneEngineTest, BarrierFlushRunsOncePerWindow) {
  // Many short runs, most not a whole number of windows: between runs the
  // workers re-park, and within a run they spin or futex-wait at each
  // window edge. Every flush must see all lanes stopped at the same edge.
  constexpr SimTime kLookahead = 10 * kMicrosecond;
  const SimTime kRuns[] = {3 * kMicrosecond, 10 * kMicrosecond, 25 * kMicrosecond,
                           47 * kMicrosecond, 100 * kMicrosecond};
  for (int lanes : {2, 3, 4}) {
    LaneEngine engine(lanes);
    engine.SetLookahead(kLookahead);
    std::vector<SimTime> edges;  // one entry per flush: the common lane clock
    engine.SetBarrierFlush([&] {
      const SimTime edge = engine.lane(0).sim().Now();
      for (int i = 1; i < lanes; ++i) {
        if (engine.lane(i).sim().Now() != edge) {
          edges.push_back(-1);  // lanes disagree: fails the comparison below
          return;
        }
      }
      edges.push_back(edge);
    });
    std::vector<SimTime> expected;
    for (int run = 0; run < 200; ++run) {
      const SimTime start = engine.Now();
      const SimTime until = start + kRuns[run % 5];
      for (SimTime w = start; w < until;) {
        w = std::min(w + kLookahead, until);
        expected.push_back(w);
      }
      engine.RunUntil(until);
      ASSERT_EQ(edges, expected) << lanes << " lanes, run " << run;
      for (int i = 0; i < lanes; ++i) {
        ASSERT_EQ(engine.lane(i).sim().Now(), until) << lanes << " lanes, lane " << i;
      }
    }
  }
}

// --- UDP incast equivalence ----------------------------------------------

UdpIncastOptions UdpOptions(int lanes) {
  UdpIncastOptions o;
  o.topo.n_clients = 8;
  o.topo.lanes = lanes;
  o.topo.seed = 1234;
  o.topo.fabric = IncastFabricDefaults();
  o.payload_bytes = 1024;
  o.pps_per_client = 200'000.0;  // 8 clients ~= 1.4x the SUT egress port
  o.poisson = true;
  return o;
}

struct UdpRun {
  uint64_t digest = 0;
  uint64_t delivered = 0;
  uint64_t sent = 0;
  uint64_t egress_drops = 0;
  uint64_t routed = 0;
};

UdpRun RunUdp(int lanes) {
  UdpIncastBed bed(UdpOptions(lanes));
  bed.Start();
  bed.RunFor(30 * kMillisecond);
  UdpRun r;
  r.digest = bed.Digest();
  r.delivered = bed.delivered();
  r.sent = bed.sent();
  r.egress_drops = bed.fabric().port_stats(0).egress_drops;
  r.routed = bed.fabric().stats().routed_frames;
  return r;
}

TEST(LaneEquivalence, UdpIncastIdenticalAcrossLaneCounts) {
  const UdpRun oracle = RunUdp(1);
  ASSERT_GT(oracle.delivered, 0u);
  ASSERT_GT(oracle.egress_drops, 0u) << "scenario must actually incast";
  for (int lanes : {2, 4}) {
    const UdpRun run = RunUdp(lanes);
    EXPECT_EQ(run.digest, oracle.digest) << lanes << " lanes";
    EXPECT_EQ(run.delivered, oracle.delivered) << lanes << " lanes";
    EXPECT_EQ(run.sent, oracle.sent) << lanes << " lanes";
    EXPECT_EQ(run.egress_drops, oracle.egress_drops) << lanes << " lanes";
    EXPECT_EQ(run.routed, oracle.routed) << lanes << " lanes";
  }
}

// With every lane confined to one CPU the engine must not spin (a spinning
// lane would burn the timeslice of the lane it waits for): waiters park at
// once, and the run still reproduces the oracle.
TEST(LaneEquivalence, UdpIncastOnOneCpuParksAndMatchesOracle) {
  const UdpRun oracle = RunUdp(1);
  cpu_set_t saved;
  CPU_ZERO(&saved);
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  ASSERT_TRUE(PinThisThreadToCpu(0));
  EXPECT_EQ(AvailableCpuCount(), 1);
  UdpRun run;
  uint64_t parks = 0;
  {
    UdpIncastBed bed(UdpOptions(4));
    bed.Start();
    bed.RunFor(30 * kMillisecond);
    run.digest = bed.Digest();
    run.delivered = bed.delivered();
    parks = bed.engine().barrier_parks();
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(run.digest, oracle.digest);
  EXPECT_EQ(run.delivered, oracle.delivered);
  EXPECT_GT(parks, 0u) << "one CPU: waiters must take the futex path";
}

// Golden pinned from the 1-lane oracle; see file comment in
// determinism_test.cc for the update policy.
constexpr uint64_t kGoldenUdpDigest = 15093716963679013214ULL;
constexpr uint64_t kGoldenUdpDelivered = 34392;

TEST(LaneEquivalence, UdpIncastMatchesGolden) {
  const UdpRun oracle = RunUdp(1);
  EXPECT_EQ(oracle.digest, kGoldenUdpDigest)
      << "UDP incast stream diverged from the checked-in golden";
  EXPECT_EQ(oracle.delivered, kGoldenUdpDelivered);
}

// --- TCP incast equivalence ----------------------------------------------

TcpIncastOptions TcpOptions(int lanes) {
  TcpIncastOptions o;
  o.topo.n_clients = 4;
  o.topo.lanes = lanes;
  o.topo.seed = 99;
  o.topo.fabric = IncastFabricDefaults();
  o.topo.fabric.egress_queue_slots = 16;  // small buffer: visible incast
  o.burst_bytes = 128 * 1024;
  return o;
}

struct TcpRun {
  uint64_t digest = 0;
  uint64_t bytes = 0;
  int established = 0;
  uint64_t retransmits = 0;
  uint64_t timeouts = 0;
  uint64_t segs_rcvd = 0;
  uint64_t rtt_count = 0;
  SimTime rtt_p50 = 0;
};

TcpRun RunTcp(int lanes) {
  TcpIncastBed bed(TcpOptions(lanes));
  bed.Start();
  bed.RunFor(60 * kMillisecond);
  TcpRun r;
  r.digest = bed.Digest();
  r.bytes = bed.total_bytes();
  r.established = bed.established();
  const TcpStats stats = bed.AggregateClientStats();
  r.retransmits = stats.retransmits;
  r.timeouts = stats.timeouts;
  r.segs_rcvd = stats.segs_rcvd;
  const LatencyHistogram rtt = bed.ClientRttHistogram();
  r.rtt_count = rtt.count();
  r.rtt_p50 = rtt.P50();
  return r;
}

// The client aggregate carries every TcpStats field: with tail loss probes on,
// the lossy 4-client incast fires some, and the aggregate must count them.
TEST(TcpIncast, AggregateCountsTailLossProbes) {
  TcpIncastOptions o = TcpOptions(1);
  o.stack.tcp_params.tail_loss_probe = true;
  TcpIncastBed bed(o);
  bed.Start();
  bed.RunFor(60 * kMillisecond);
  EXPECT_GT(bed.AggregateClientStats().tlp_probes, 0u);
}

TEST(LaneEquivalence, TcpIncastIdenticalAcrossLaneCounts) {
  const TcpRun oracle = RunTcp(1);
  ASSERT_EQ(oracle.established, 4);
  ASSERT_GT(oracle.bytes, 0u);
  for (int lanes : {2, 4}) {
    const TcpRun run = RunTcp(lanes);
    EXPECT_EQ(run.digest, oracle.digest) << lanes << " lanes";
    EXPECT_EQ(run.bytes, oracle.bytes) << lanes << " lanes";
    EXPECT_EQ(run.established, oracle.established) << lanes << " lanes";
    EXPECT_EQ(run.retransmits, oracle.retransmits) << lanes << " lanes";
    EXPECT_EQ(run.timeouts, oracle.timeouts) << lanes << " lanes";
    EXPECT_EQ(run.segs_rcvd, oracle.segs_rcvd) << lanes << " lanes";
    EXPECT_EQ(run.rtt_count, oracle.rtt_count) << lanes << " lanes";
    EXPECT_EQ(run.rtt_p50, oracle.rtt_p50) << lanes << " lanes";
  }
}

// The fig13 observables at small N, pinned from the 1-lane oracle. Any
// engine change that moves these must update the goldens and say why.
// Updated for the RFC 6298 (5.7) backoff fix: incast is a lossy scenario,
// and the RTO backoff now survives ACKs of retransmitted (Karn-ambiguous)
// segments, resetting only on a fresh RTT sample. Goodput *rose* (25.3 MB ->
// 26.1 MB): the sustained backoff suppresses spurious repeat timeouts that
// used to collapse cwnd mid-recovery. The timer-wheel swap itself moved
// nothing here — the whole suite, these pins included, was green with the
// timers on the wheel and the old backoff semantics.
constexpr uint64_t kGoldenTcpDigest = 7560822709408149440ULL;
constexpr uint64_t kGoldenTcpBytes = 26132939;

TEST(LaneEquivalence, TcpIncastMatchesGolden) {
  const TcpRun oracle = RunTcp(1);
  EXPECT_EQ(oracle.digest, kGoldenTcpDigest)
      << "TCP incast stream diverged from the checked-in golden";
  EXPECT_EQ(oracle.bytes, kGoldenTcpBytes);
}

// Golden for the fig13_incast bench's smallest row (N=2, 3.6 GHz): the same
// topology, warm-up and measurement window the bench runs, so the published
// CSV is pinned here byte-for-byte at small N. Lane count must not matter.
// Updated for the RFC 6298 (5.7) backoff fix — see the note on
// kGoldenTcpDigest above; same mechanism (+15% goodput at N=2, where the
// 16-slot egress queue makes timeout recovery the dominant dynamic).
constexpr uint64_t kGoldenFig13Digest = 54466340423464051ULL;
constexpr uint64_t kGoldenFig13Bytes = 156431676;

TEST(LaneEquivalence, Fig13SmallNMatchesGoldenAtAnyLaneCount) {
  for (int lanes : {1, 2}) {
    TcpIncastOptions o;
    o.topo.n_clients = 2;
    o.topo.lanes = lanes;
    o.topo.seed = 42;
    o.topo.fabric = IncastFabricDefaults();
    o.topo.fabric.egress_queue_slots = 16;
    o.system_freq = 3'600'000 * kKhz;
    o.burst_bytes = 128 * 1024;
    TcpIncastBed bed(o);
    bed.Start();
    bed.RunFor(40 * kMillisecond);
    bed.window().Reset(bed.engine().Now());
    bed.RunFor(160 * kMillisecond);
    EXPECT_EQ(bed.Digest(), kGoldenFig13Digest) << "lanes=" << lanes;
    EXPECT_EQ(bed.window().bytes(), kGoldenFig13Bytes) << "lanes=" << lanes;
  }
}

// Re-running the same options in-process reproduces the same digest: no
// hidden global state leaks between beds (pools, RNGs, fabric cursors).
TEST(LaneEquivalence, RepeatedRunsAreBitIdentical) {
  const UdpRun a = RunUdp(4);
  const UdpRun b = RunUdp(4);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.delivered, b.delivered);
}

// Each lane numbers its packets from its own pool's counter, so a packet's
// number within its pool (id minus the pool's base) depends only on its own
// lane's simulation, not on how the lane threads interleave: two same-seed
// 3-lane runs deliver the same numbers in the same order. A 1-lane run is no
// reference here: all its clients share lane 0's pool, so its numbers differ
// by design.
std::vector<uint64_t> PoolSequenceNumbersAtSink(int lanes) {
  const UdpIncastOptions options = UdpOptions(lanes);
  std::vector<uint64_t> base_of_client;
  std::vector<uint64_t> numbers;  // declared before the bed, whose sink writes it
  UdpIncastBed bed(options);
  for (int c = 0; c < options.topo.n_clients; ++c) {
    base_of_client.push_back(bed.engine().lane(IncastLaneOfClient(c, lanes)).pool().id_base());
  }
  bed.sut().udp().Unbind(kUdpFloodPort);
  bed.sut().udp().Bind(kUdpFloodPort, [&](const PacketPtr& p) {
    numbers.push_back(p->id - base_of_client[static_cast<size_t>(IncastClientIndex(p->ip.src))]);
  });
  bed.Start();
  bed.RunFor(10 * kMillisecond);
  return numbers;
}

TEST(LaneEquivalence, PacketIdsWithinEachPoolIgnoreThreadTiming) {
  const std::vector<uint64_t> first = PoolSequenceNumbersAtSink(3);
  const std::vector<uint64_t> second = PoolSequenceNumbersAtSink(3);
  ASSERT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace newtos
