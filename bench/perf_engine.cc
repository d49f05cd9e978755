// Engine gates: zero steady-state allocations, and lane equivalence.
//
//   perf_engine --check [--trace off|wired|on]
//     Runs the fig2-style bulk-TCP scenario (one iperf connection, dedicated
//     stack cores at base clock) through warm-up and then a 50 ms simulated
//     window, and fails unless the window performed zero heap allocations.
//     The counting global allocator (tools/alloc_count) is linked into this
//     binary. --trace picks the tracing mode: off (no tracer built), wired
//     (full tracing wired but disabled, the shipping configuration) or on
//     (recording with samplers). The gate passes in all three: the trace
//     fast path is a POD copy into a preallocated ring.
//   perf_engine --check --lanes N
//     A 32-client UDP incast through the switch fabric, run with 1 lane (the
//     oracle) and with N lanes. Fails unless the N-lane run reproduces the
//     1-lane digest bit-for-bit, every lane is allocation-free in steady
//     state, and, for N >= 4, the busiest lane holds at most half the events,
//     so >= 2x speedup is available on a 4-core host. Each row prints how
//     often a lane parked on the futex per lookahead window (about 0 while
//     the lanes spin; up to N-1 when they outnumber the CPUs).
//
// Exit codes: 0 ok, 1 gate failure, 2 usage. Host speed is measured by
// perfbench/, not here.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/fabric/incast.h"
#include "src/trace/stack_trace.h"
#include "src/workload/iperf.h"
#include "tools/alloc_count/alloc_count.h"

namespace newtos {
namespace {

enum class TraceMode { kOff, kWired, kOn };

const char* TraceModeName(TraceMode m) {
  switch (m) {
    case TraceMode::kOff:
      return "off";
    case TraceMode::kWired:
      return "wired";
    case TraceMode::kOn:
      return "on";
  }
  return "?";
}

struct EngineWindow {
  uint64_t events = 0;
  uint64_t packets = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t trace_events = 0;
  double goodput_gbps = 0.0;

  double allocs_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(events);
  }
};

// The fig2 first sweep point: all cores at base clock, bulk TCP TX at line
// rate. Steady state is pure engine churn: segments, ACKs, channel hops,
// core work items, delayed-ACK timers.
EngineWindow RunEngine(SimTime window, TraceMode trace_mode) {
  TestbedOptions options;
  Testbed tb(options);
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
  sink.window().Reset(tb.sim().Now());

  const Nic::Stats& nic = tb.machine().nic()->stats();
  const uint64_t events0 = tb.sim().events_processed();
  const uint64_t packets0 = nic.tx_packets + nic.rx_packets;
  const uint64_t allocs0 = AllocCount();
  const uint64_t bytes0 = AllocBytes();

  tb.sim().RunFor(window);

  EngineWindow r;
  r.events = tb.sim().events_processed() - events0;
  r.packets = nic.tx_packets + nic.rx_packets - packets0;
  r.allocs = AllocCount() - allocs0;
  r.alloc_bytes = AllocBytes() - bytes0;
  r.goodput_gbps = sink.window().GbitsPerSec(tb.sim().Now());
  r.trace_events = tracer != nullptr ? tracer->recorder().recorded() : 0;
  return r;
}

int CheckEngine(TraceMode trace_mode) {
  const SimTime window = 50 * kMillisecond;
  const EngineWindow r = RunEngine(window, trace_mode);

  std::printf("perf_engine — fig2-style bulk TCP TX, %0.0f ms simulated window (trace %s)\n",
              ToSeconds(window) * 1e3, TraceModeName(trace_mode));
  std::printf("  events            %12llu\n", static_cast<unsigned long long>(r.events));
  std::printf("  packets           %12llu\n", static_cast<unsigned long long>(r.packets));
  std::printf("  allocations       %12llu (%llu bytes)\n",
              static_cast<unsigned long long>(r.allocs),
              static_cast<unsigned long long>(r.alloc_bytes));
  std::printf("  allocs/event      %12.6f\n", r.allocs_per_event());
  std::printf("  trace events      %12llu\n", static_cast<unsigned long long>(r.trace_events));
  std::printf("  goodput           %12.3f Gbit/s\n", r.goodput_gbps);

  if (r.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu steady-state allocations (%.6f per event); the engine fast "
                 "path must be allocation-free after warm-up\n",
                 static_cast<unsigned long long>(r.allocs), r.allocs_per_event());
    return 1;
  }
  std::printf("OK: steady state is allocation-free (trace %s)\n", TraceModeName(trace_mode));
  return 0;
}

// --- Fabric mode (--lanes) -------------------------------------------------

constexpr int kFabricClients = 32;

struct FabricWindow {
  int lanes = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
  double max_lane_share = 0.0;
  uint64_t windows = 0;
  uint64_t barrier_parks = 0;  // futex waits at window barriers
  uint64_t digest = 0;
  uint64_t delivered = 0;

  double parks_per_window() const {
    return windows == 0 ? 0.0 : static_cast<double>(barrier_parks) / static_cast<double>(windows);
  }
};

// 32 clients flooding one sink at ~4x its egress line rate. The excess is
// tail-dropped inside the fabric at zero cost to the destination lane, so
// event load concentrates on the client lanes — the topology lanes exploit.
FabricWindow RunFabric(int lanes, SimTime window) {
  UdpIncastOptions o;
  o.topo.n_clients = kFabricClients;
  o.topo.lanes = lanes;
  o.topo.seed = 42;
  o.topo.fabric = IncastFabricDefaults();
  o.topo.fabric.port_propagation = 20 * kMicrosecond;
  o.payload_bytes = 1024;
  o.pps_per_client = 150'000.0;
  o.poisson = true;
  UdpIncastBed bed(o);
  bed.Start();

  // Warm-up: every pool, ring and staging buffer to its high-water mark.
  bed.RunFor(50 * kMillisecond);

  LaneEngine& engine = bed.engine();
  std::vector<uint64_t> events0(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    events0[static_cast<size_t>(i)] = engine.lane(i).sim().events_processed();
  }
  const uint64_t parks0 = engine.barrier_parks();
  const uint64_t allocs0 = AllocCount();

  bed.RunFor(window);

  FabricWindow r;
  r.lanes = lanes;
  r.allocs = AllocCount() - allocs0;
  r.windows = static_cast<uint64_t>((window + engine.lookahead() - 1) / engine.lookahead());
  r.barrier_parks = engine.barrier_parks() - parks0;
  uint64_t max_lane = 0;
  for (int i = 0; i < lanes; ++i) {
    const uint64_t d =
        engine.lane(i).sim().events_processed() - events0[static_cast<size_t>(i)];
    r.events += d;
    max_lane = max_lane > d ? max_lane : d;
  }
  r.max_lane_share =
      r.events > 0 ? static_cast<double>(max_lane) / static_cast<double>(r.events) : 0.0;
  r.digest = bed.Digest();
  r.delivered = bed.delivered();
  return r;
}

int CheckFabric(int lanes) {
  const SimTime window = 50 * kMillisecond;
  std::vector<FabricWindow> runs;
  for (int n : lanes > 1 ? std::vector<int>{1, lanes} : std::vector<int>{1}) {
    runs.push_back(RunFabric(n, window));
    const FabricWindow& r = runs.back();
    std::printf("lanes %-2d  events %10llu  windows %6llu  parks/window %.3f  allocs %6llu  "
                "max lane share %.3f  digest %016llx\n",
                r.lanes, static_cast<unsigned long long>(r.events),
                static_cast<unsigned long long>(r.windows), r.parks_per_window(),
                static_cast<unsigned long long>(r.allocs), r.max_lane_share,
                static_cast<unsigned long long>(r.digest));
  }

  const FabricWindow& base = runs.front();
  const FabricWindow& top = runs.back();
  if (top.digest != base.digest || top.delivered != base.delivered) {
    std::fprintf(stderr,
                 "FAIL: %d-lane run diverged from the 1-lane oracle "
                 "(digest %016llx vs %016llx, delivered %llu vs %llu)\n",
                 top.lanes, static_cast<unsigned long long>(top.digest),
                 static_cast<unsigned long long>(base.digest),
                 static_cast<unsigned long long>(top.delivered),
                 static_cast<unsigned long long>(base.delivered));
    return 1;
  }
  for (const FabricWindow& r : runs) {
    if (r.allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu steady-state allocations in the %d-lane run; every lane's "
                   "fast path must be allocation-free after warm-up\n",
                   static_cast<unsigned long long>(r.allocs), r.lanes);
      return 1;
    }
  }
  if (top.lanes >= 4 && top.max_lane_share > 0.5) {
    std::fprintf(stderr,
                 "FAIL: max lane share %.3f > 0.5 — the busiest lane bounds speedup to "
                 "%.1fx; the incast topology must leave >= 2x on a 4-core host\n",
                 top.max_lane_share, 1.0 / top.max_lane_share);
    return 1;
  }
  std::printf("OK: %d-lane run is bit-identical to the oracle, allocation-free, and "
              "balanced (max lane share %.3f => %.1fx speedup available)\n",
              top.lanes, top.max_lane_share, 1.0 / top.max_lane_share);
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr, "usage: %s --check [--trace off|wired|on] [--lanes N]\n", argv0);
  return 2;
}

int Run(int argc, char** argv) {
  bool check = false;
  int lanes = 0;  // 0 = engine gate; >= 1 = fabric gate
  TraceMode trace_mode = TraceMode::kOff;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      const long requested = std::strtol(argv[++i], nullptr, 10);
      const std::string why = IncastLanesError(kFabricClients, requested);
      if (!why.empty()) {
        std::fprintf(stderr, "--lanes: %s\n", why.c_str());
        return 2;
      }
      lanes = static_cast<int>(requested);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "off") == 0) {
        trace_mode = TraceMode::kOff;
      } else if (std::strcmp(mode, "wired") == 0) {
        trace_mode = TraceMode::kWired;
      } else if (std::strcmp(mode, "on") == 0) {
        trace_mode = TraceMode::kOn;
      } else {
        std::fprintf(stderr, "unknown --trace mode '%s' (off|wired|on)\n", mode);
        return 2;
      }
    } else {
      return Usage(argv[0]);
    }
  }
  if (!check) {
    return Usage(argv[0]);
  }
  return lanes > 0 ? CheckFabric(lanes) : CheckEngine(trace_mode);
}

}  // namespace
}  // namespace newtos

int main(int argc, char** argv) { return newtos::Run(argc, argv); }
