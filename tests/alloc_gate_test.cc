// Zero-allocation gates: after warm-up, the engine's steady state performs no
// heap allocation, in every configuration the paper's runs use.
//
// The counting global allocator (tools/alloc_count) is linked into this test
// binary and no other. Each case samples AllocCount() at the edges of a
// measured simulated window and asserts the difference is zero:
//
//   EngineAllocGate   fig2-style bulk TCP through the multiserver stack, with
//                     tracing off, wired-but-disabled (the shipping
//                     configuration) and recording;
//   FabricAllocGate   a 32-client UDP incast through the switch fabric, 1 lane
//                     (the oracle) against 4 lanes: identical digests, no
//                     allocation on any lane, busiest lane <= half the events;
//                     once with Poisson senders and once with synchronized
//                     ones, whose same-instant arrivals exercise the switch's
//                     round-robin tie arbitration;
//   MillionFlowAllocGate  10^6 concurrent TCP flows on two timer wheels;
//   ScenarioAllocGate  the .nsc interpreter over scenarios/wan/alloc_gate.nsc.
//
// Sanitizer runtimes allocate behind the scenes, so tests/CMakeLists.txt
// builds this binary only without ASan, and leaves the scenario case out
// under TSan as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/fabric/incast.h"
#include "src/metrics/timeseries.h"
#include "src/net/tcp_host.h"
#include "src/scenario/parser.h"
#include "src/scenario/runner.h"
#include "src/sim/timer_wheel.h"
#include "src/trace/stack_trace.h"
#include "src/workload/iperf.h"
#include "tools/alloc_count/alloc_count.h"

namespace newtos {
namespace {

// --- Engine: fig2 bulk TCP, three trace modes -------------------------------

enum class TraceMode { kOff, kWired, kOn };

struct EngineWindow {
  uint64_t events = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
};

// The fig2 first sweep point: all cores at base clock, bulk TCP TX at line
// rate. Steady state is pure engine churn: segments, ACKs, channel hops,
// core work items, delayed-ACK timers.
EngineWindow RunEngine(TraceMode trace_mode) {
  Testbed tb;
  DedicatedSlowPlan(*tb.stack(), 3'600'000 * kKhz, 3'600'000 * kKhz).Apply(tb.machine());

  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());

  // Trace wiring happens before warm-up so the recorder ring, sampler
  // probes, and burst-duration buffers all reach steady state inside it.
  std::unique_ptr<StackTracer> tracer;
  if (trace_mode != TraceMode::kOff) {
    StackTracer::Options topt;
    topt.ring_capacity = 1 << 18;
    tracer = std::make_unique<StackTracer>(&tb.sim(), tb.stack(), topt);
    if (trace_mode == TraceMode::kOn) {
      tracer->Enable();
    }
  }

  sender.Start();

  // Warm-up: connection setup, slow start, and every pool/ring growing to
  // its steady-state footprint.
  tb.sim().RunFor(150 * kMillisecond);

  const uint64_t events0 = tb.sim().events_processed();
  const uint64_t allocs0 = AllocCount();
  const uint64_t bytes0 = AllocBytes();

  tb.sim().RunFor(50 * kMillisecond);

  EngineWindow r;
  r.events = tb.sim().events_processed() - events0;
  r.allocs = AllocCount() - allocs0;
  r.alloc_bytes = AllocBytes() - bytes0;
  return r;
}

class EngineAllocGate : public ::testing::TestWithParam<TraceMode> {};

TEST_P(EngineAllocGate, Fig2WindowIsAllocationFree) {
  const EngineWindow r = RunEngine(GetParam());
  ASSERT_GT(r.events, 0u) << "the measured window ran no events";
  EXPECT_EQ(r.allocs, 0u) << r.alloc_bytes << " bytes over " << r.events
                          << " events; the engine fast path must be allocation-free "
                             "after warm-up";
}

std::string TraceModeName(const ::testing::TestParamInfo<TraceMode>& mode) {
  switch (mode.param) {
    case TraceMode::kOff:
      return "off";
    case TraceMode::kWired:
      return "wired";
    case TraceMode::kOn:
      return "on";
  }
  return "unknown";
}

INSTANTIATE_TEST_SUITE_P(Trace, EngineAllocGate,
                         ::testing::Values(TraceMode::kOff, TraceMode::kWired, TraceMode::kOn),
                         TraceModeName);

// --- Fabric: 32-client UDP incast, 1 lane vs 4 ------------------------------

struct FabricWindow {
  uint64_t events = 0;
  uint64_t allocs = 0;
  double max_lane_share = 0.0;
  uint64_t digest = 0;
  uint64_t delivered = 0;
};

// 32 clients flooding one sink at ~4x its egress line rate. The excess is
// tail-dropped inside the fabric at zero cost to the destination lane, so
// event load concentrates on the client lanes — the topology lanes exploit.
// Poisson senders almost never reach the switch at one instant. Synchronized
// senders (constant rate, all started at t = 0) arrive in 32-way ties every
// gap, so Switch::Flush's round-robin arbitration decides whose frames the
// egress queue drops, and a lane-dependent rotation shows in the digest.
FabricWindow RunFabric(int lanes, bool synchronized) {
  UdpIncastOptions o;
  o.topo.n_clients = 32;
  o.topo.lanes = lanes;
  o.topo.seed = 42;
  o.topo.fabric = IncastFabricDefaults();
  o.topo.fabric.port_propagation = 20 * kMicrosecond;
  o.payload_bytes = 1024;
  o.pps_per_client = 150'000.0;
  o.poisson = !synchronized;
  UdpIncastBed bed(o);
  bed.Start();

  // Warm-up: every pool, ring and staging buffer to its high-water mark.
  bed.RunFor(50 * kMillisecond);

  LaneEngine& engine = bed.engine();
  std::vector<uint64_t> events0(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    events0[static_cast<size_t>(i)] = engine.lane(i).sim().events_processed();
  }
  const uint64_t allocs0 = AllocCount();

  bed.RunFor(50 * kMillisecond);

  FabricWindow r;
  r.allocs = AllocCount() - allocs0;
  uint64_t max_lane = 0;
  for (int i = 0; i < lanes; ++i) {
    const uint64_t d = engine.lane(i).sim().events_processed() - events0[static_cast<size_t>(i)];
    r.events += d;
    max_lane = std::max(max_lane, d);
  }
  r.max_lane_share =
      r.events > 0 ? static_cast<double>(max_lane) / static_cast<double>(r.events) : 0.0;
  r.digest = bed.Digest();
  r.delivered = bed.delivered();
  return r;
}

void ExpectFabricMatchesOracle(bool synchronized) {
  const FabricWindow oracle = RunFabric(1, synchronized);
  const FabricWindow split = RunFabric(4, synchronized);
  ASSERT_GT(oracle.events, 0u);

  // Bit-identical to the 1-lane oracle.
  EXPECT_EQ(split.digest, oracle.digest);
  EXPECT_EQ(split.delivered, oracle.delivered);
  // Every lane's fast path is allocation-free after warm-up.
  EXPECT_EQ(oracle.allocs, 0u) << "1-lane run";
  EXPECT_EQ(split.allocs, 0u) << "4-lane run";
  // The busiest lane bounds the speedup at 1 / share; the incast topology
  // must leave >= 2x on a 4-core host.
  EXPECT_LE(split.max_lane_share, 0.5);
}

TEST(FabricAllocGate, IncastDigestMatchesOracleAllocationFreeAndBalanced) {
  ExpectFabricMatchesOracle(/*synchronized=*/false);
}

TEST(FabricAllocGate, SynchronizedIncastDigestMatchesOracle) {
  ExpectFabricMatchesOracle(/*synchronized=*/true);
}

// --- Timer wheel: 10^6 concurrent flows -------------------------------------

constexpr Ipv4Addr kMillionClientIp = Ipv4(10, 1, 0, 1);
constexpr Ipv4Addr kMillionServerIp = Ipv4(10, 1, 0, 2);
constexpr uint16_t kMillionBasePort = 80;
constexpr size_t kMillionFlows = 1'000'000;
// One TcpHost owns one ephemeral range (16384 ports), so flow-key capacity
// scales with listening ports: 64 ports x 16384 = 1,048,576 distinct keys.
constexpr int kMillionPortBlocks = 64;
constexpr int kPortBlockCapacity = 16384;
constexpr SimTime kMillionWireDelay = 50 * kMicrosecond;
// A per-flow heap timer would hold one pending event per armed timer; the
// wheels hold one wake each plus the packets in flight. The gate wants the
// pending events below this fraction of the peak armed timers.
constexpr size_t kMaxPendingPerArmed = 4;

// Two bare TcpHosts (no cycle-cost model) joined by a fixed-delay wire.
class MillionBed {
 public:
  MillionBed()
      : server_(&sim_, kMillionServerIp, [this](PacketPtr p) { Wire(std::move(p), &client_); }),
        client_(&sim_, kMillionClientIp, [this](PacketPtr p) { Wire(std::move(p), &server_); }) {
    for (int b = 0; b < kMillionPortBlocks; ++b) {
      server_.Listen(static_cast<uint16_t>(kMillionBasePort + b), TcpHost::AppHooks{});
    }
  }

  Simulation& sim() { return sim_; }
  TcpHost& server() { return server_; }
  TcpHost& client() { return client_; }
  size_t opened() const { return conns_.size(); }
  size_t established() const { return established_; }

  // Opens `count` connections against listening port `port`. Fresh port
  // blocks never collide in the ephemeral allocator, so this is O(count).
  // Returns false when the ephemeral range runs out.
  bool OpenBlock(uint16_t port, size_t count) {
    TcpHost::AppHooks hooks;
    hooks.on_established = [this](TcpConnection*) { ++established_; };
    hooks.on_closed = [this](TcpConnection*) { --established_; };
    for (size_t i = 0; i < count; ++i) {
      TcpConnection* c = client_.Connect(kMillionServerIp, port, hooks);
      if (c == nullptr) {
        return false;
      }
      conns_.push_back(c);
    }
    return true;
  }

  // Runs the simulation until all opened connections are established.
  bool SettleEstablished() {
    for (int i = 0; i < 1000 && established_ < conns_.size(); ++i) {
      sim_.RunFor(10 * kMillisecond);
    }
    return established_ == conns_.size();
  }

  // Rotating-slice driver: every 100 us, `per_tick` connections each send a
  // small payload. Every send arms the client RTO and the server delayed-ACK
  // on the wheels; the ACK cancels the RTO — continuous arm/fire/cancel
  // churn across the whole socket population.
  void StartDriver(size_t per_tick) {
    per_tick_ = per_tick;
    driving_ = true;
    sim_.Schedule(100 * kMicrosecond, [this] { DriverTick(); });
  }
  void StopDriver() { driving_ = false; }

 private:
  void Wire(PacketPtr p, TcpHost* dst) {
    sim_.Schedule(kMillionWireDelay, [p = std::move(p), dst] { dst->OnPacket(p); });
  }

  void DriverTick() {
    if (!driving_) {
      return;
    }
    const size_t n = conns_.size();
    for (size_t i = 0; i < per_tick_ && n > 0; ++i) {
      cursor_ = cursor_ + 1 < n ? cursor_ + 1 : 0;
      conns_[cursor_]->Send(256);
    }
    sim_.Schedule(100 * kMicrosecond, [this] { DriverTick(); });
  }

  Simulation sim_;
  TcpHost server_;
  TcpHost client_;
  std::vector<TcpConnection*> conns_;
  size_t established_ = 0;
  size_t cursor_ = 0;
  size_t per_tick_ = 0;
  bool driving_ = false;
};

TEST(MillionFlowAllocGate, WheelsHoldAMillionFlowsAllocationFree) {
  MillionBed bed;

  // Ramp: one fresh port block at a time (collision-free). Sample the
  // allocator after the first block and at the end, so per-socket memory
  // flatness is measurable.
  const uint64_t bytes_start = AllocBytes();
  uint64_t bytes_early = 0;
  size_t early_count = 0;
  for (int b = 0; b < kMillionPortBlocks && bed.opened() < kMillionFlows; ++b) {
    const size_t count = std::min<size_t>(kPortBlockCapacity, kMillionFlows - bed.opened());
    ASSERT_TRUE(bed.OpenBlock(static_cast<uint16_t>(kMillionBasePort + b), count))
        << "ephemeral range exhausted on port block " << b;
    bed.sim().RunFor(2 * kMillisecond);
    if (b == 0) {
      bytes_early = AllocBytes();
      early_count = bed.opened();
    }
  }
  ASSERT_TRUE(bed.SettleEstablished())
      << "only " << bed.established() << "/" << kMillionFlows << " connections established";
  const uint64_t bytes_full = AllocBytes();
  // Two sockets per flow: one on each host.
  const double bytes_per_socket_early =
      static_cast<double>(bytes_early - bytes_start) / (2.0 * static_cast<double>(early_count));
  const double bytes_per_socket_late = static_cast<double>(bytes_full - bytes_early) /
                                       (2.0 * static_cast<double>(kMillionFlows - early_count));

  // Steady state: rotating sends keep both wheels churning. Warm up first so
  // every pool, ring, hash table and scratch list reaches its high-water
  // mark, then demand zero allocations in the measured window.
  bed.server().wheel()->Reserve(1 << 13);
  bed.client().wheel()->Reserve(1 << 13);
  bed.sim().ReserveEvents(1 << 16);
  TimeSeries armed_series(&bed.sim(), 5 * kMillisecond, [&bed] {
    return static_cast<double>(bed.server().wheel()->armed() + bed.client().wheel()->armed());
  });
  armed_series.Reserve(256);  // steady window / interval, with slack
  armed_series.Start();
  bed.StartDriver(/*per_tick=*/1000);
  bed.sim().RunFor(20 * kMillisecond);

  const uint64_t events0 = bed.sim().events_processed();
  const uint64_t fires0 = bed.server().wheel()->fires() + bed.client().wheel()->fires();
  const uint64_t allocs0 = AllocCount();
  bed.sim().RunFor(20 * kMillisecond);
  const uint64_t steady_allocs = AllocCount() - allocs0;
  const uint64_t steady_events = bed.sim().events_processed() - events0;
  const uint64_t steady_fires =
      bed.server().wheel()->fires() + bed.client().wheel()->fires() - fires0;
  const size_t pending_events = bed.sim().PendingEvents();
  size_t peak_armed = 0;
  for (const TimeSeries::Point& p : armed_series.points()) {
    peak_armed = std::max(peak_armed, static_cast<size_t>(p.value));
  }
  armed_series.Stop();
  bed.StopDriver();

  // Both tables hold every flow.
  EXPECT_EQ(bed.client().connection_count(), kMillionFlows);
  EXPECT_EQ(bed.server().connection_count(), kMillionFlows);
  // The timer/packet fast path is allocation-free at 10^6 flows...
  EXPECT_EQ(steady_allocs, 0u) << "over " << steady_events << " steady-state events";
  // ...and the window actually exercised the timer path.
  EXPECT_GT(steady_fires, 0u) << "the steady window fired no wheel timers";
  // One wake per wheel, not one pending event per flow timer.
  EXPECT_LE(kMaxPendingPerArmed * pending_events, peak_armed)
      << pending_events << " pending simulator events against " << peak_armed
      << " peak armed timers";
  // Per-socket memory does not grow with the connection count.
  EXPECT_LE(bytes_per_socket_late, bytes_per_socket_early)
      << "bytes/socket over the rest of the ramp vs over the first block";
}

// --- Scenario interpreter ---------------------------------------------------

#ifdef NEWTOS_SCENARIO_DIR
// A lossy-WAN script with channel faults, link shaping and expects armed must
// add no heap traffic to the engine's steady state, at every frequency it
// sweeps.
TEST(ScenarioAllocGate, WanScriptWindowIsAllocationFree) {
  scenario::Script script;
  scenario::ParseError err;
  ASSERT_TRUE(scenario::LoadScript(std::string(NEWTOS_SCENARIO_DIR) + "/wan/alloc_gate.nsc",
                                   &script, &err))
      << err.Format();
  ASSERT_FALSE(script.freqs.empty());
  for (const FreqKhz freq : script.freqs) {
    uint64_t allocs_at_begin = 0;
    uint64_t window_allocs = 0;
    scenario::RunnerOptions ro;
    ro.on_window_begin = [&allocs_at_begin] { allocs_at_begin = AllocCount(); };
    ro.on_window_end = [&allocs_at_begin, &window_allocs] {
      window_allocs = AllocCount() - allocs_at_begin;
    };
    scenario::ScenarioRunner runner(std::move(ro));
    const scenario::ScenarioOutcome o = runner.RunOne(script, freq);
    EXPECT_GT(o.window_events, 0u) << "at " << freq << " kHz";
    EXPECT_EQ(window_allocs, 0u) << "at " << freq << " kHz over " << o.window_events
                                 << " window events";
  }
}
#endif

}  // namespace
}  // namespace newtos
