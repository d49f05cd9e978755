// Engine perf microbench: events/sec, packets/sec, and allocations/event.
//
// Runs the fig2-style bulk-TCP scenario (one iperf connection, dedicated
// stack cores at base clock) for a fixed simulated window and reports how
// fast the *host* executes it. A counting global allocator measures how many
// heap allocations the engine performs per simulated event — the pooled
// fast path must hold this at zero in steady state.
//
// Modes:
//   (default)  full measurement window, prints a table and writes
//              BENCH_engine.json at the repo root (override with --out PATH);
//              host_cpus records how many CPUs this process could run on
//   --check    short window asserting allocations/event == 0 in steady
//              state; exits non-zero on regression. Wired into ctest.
//   --trace M  M = off (no tracer built), wired (full tracing wired but
//              disabled — the shipping configuration), on (recording with
//              samplers). The --check gate passes in *all three* modes: the
//              trace fast path is a POD copy into a preallocated ring.
//   --lanes N  fabric mode: a 32-client UDP incast through the switch
//              fabric, swept over lane counts up to N, written to
//              BENCH_fabric.json. Reports honest host wall-clock plus each
//              lane's event share — the serial fraction that bounds the
//              speedup a multicore host can extract (speedup <= 1/share);
//              host_cpus records how many CPUs this process could run on.
//              Each row also prints the lookahead windows in the measured
//              span and how often a lane parked on the futex per window
//              (about 0 while the lanes spin; up to N-1 when oversubscribed).
//              With --check: asserts the N-lane run reproduces the 1-lane
//              digest bit-for-bit, performs zero steady-state allocations
//              on every lane, and stays balanced enough that >= 2x speedup
//              is available on a 4-core host (max share <= 0.5).

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/fabric/incast.h"
#include "src/host/affinity.h"
#include "src/metrics/report.h"
#include "src/trace/stack_trace.h"
#include "src/workload/iperf.h"

// --- Counting allocator hook -----------------------------------------------
// Replaces global operator new/delete for this binary only. Counts every
// allocation; forwarding to malloc keeps behaviour identical.

namespace {
std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_alloc_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace newtos {
namespace {

#ifndef NEWTOS_REPO_ROOT
#define NEWTOS_REPO_ROOT "."
#endif

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

struct PerfResult {
  uint64_t events = 0;
  uint64_t packets = 0;
  uint64_t allocs = 0;
  uint64_t alloc_bytes = 0;
  uint64_t trace_events = 0;
  double wall_seconds = 0.0;
  double goodput_gbps = 0.0;
  double sim_window_ms = 0.0;

  double events_per_sec() const { return static_cast<double>(events) / wall_seconds; }
  double packets_per_sec() const { return static_cast<double>(packets) / wall_seconds; }
  double allocs_per_event() const {
    return events == 0 ? 0.0 : static_cast<double>(allocs) / static_cast<double>(events);
  }
};

// The fig2 first sweep point: all cores at base clock, bulk TCP TX at line
// rate. Steady state is pure engine churn: segments, ACKs, channel hops,
// core work items, delayed-ACK timers.
PerfResult MeasureEngine(SimTime window, TraceMode trace_mode) {
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
  const uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const auto wall0 = std::chrono::steady_clock::now();

  tb.sim().RunFor(window);

  const auto wall1 = std::chrono::steady_clock::now();
  PerfResult r;
  r.events = tb.sim().events_processed() - events0;
  r.packets = nic.tx_packets + nic.rx_packets - packets0;
  r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
  r.wall_seconds = std::chrono::duration<double>(wall1 - wall0).count();
  r.goodput_gbps = sink.window().GbitsPerSec(tb.sim().Now());
  r.sim_window_ms = ToSeconds(window) * 1e3;
  r.trace_events = tracer != nullptr ? tracer->recorder().recorded() : 0;
  return r;
}

// --- Fabric mode (--lanes) -------------------------------------------------

struct FabricPerf {
  int lanes = 0;
  uint64_t events = 0;
  uint64_t allocs = 0;
  double wall_seconds = 0.0;
  double max_lane_share = 0.0;
  uint64_t windows = 0;
  uint64_t barrier_parks = 0;  // futex waits at window barriers
  uint64_t digest = 0;
  uint64_t delivered = 0;
  std::vector<uint64_t> per_lane_events;

  double events_per_sec() const { return static_cast<double>(events) / wall_seconds; }
  double parks_per_window() const {
    return windows == 0 ? 0.0 : static_cast<double>(barrier_parks) / static_cast<double>(windows);
  }
};

// 32 clients flooding one sink at ~4x its egress line rate. The excess is
// tail-dropped inside the fabric at zero cost to the destination lane, so
// event load concentrates on the client lanes — the topology lanes exploit.
FabricPerf MeasureFabric(int lanes, SimTime window) {
  UdpIncastOptions o;
  o.topo.n_clients = 32;
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
  const uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto wall0 = std::chrono::steady_clock::now();

  bed.RunFor(window);

  const auto wall1 = std::chrono::steady_clock::now();
  FabricPerf r;
  r.lanes = lanes;
  r.wall_seconds = std::chrono::duration<double>(wall1 - wall0).count();
  r.allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.windows = static_cast<uint64_t>((window + engine.lookahead() - 1) / engine.lookahead());
  r.barrier_parks = engine.barrier_parks() - parks0;
  r.per_lane_events.resize(static_cast<size_t>(lanes));
  uint64_t max_lane = 0;
  for (int i = 0; i < lanes; ++i) {
    const uint64_t d =
        engine.lane(i).sim().events_processed() - events0[static_cast<size_t>(i)];
    r.per_lane_events[static_cast<size_t>(i)] = d;
    r.events += d;
    max_lane = max_lane > d ? max_lane : d;
  }
  r.max_lane_share =
      r.events > 0 ? static_cast<double>(max_lane) / static_cast<double>(r.events) : 0.0;
  r.digest = bed.Digest();
  r.delivered = bed.delivered();
  return r;
}

std::string LaneSweepJson(const std::vector<FabricPerf>& sweep) {
  std::string out = "[";
  char buf[256];
  for (size_t i = 0; i < sweep.size(); ++i) {
    const FabricPerf& r = sweep[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"lanes\": %d, \"events\": %llu, \"events_per_sec\": %.0f, "
                  "\"wall_seconds\": %.6f, \"allocs\": %llu, \"max_lane_share\": %.4f, "
                  "\"windows\": %llu, \"parks_per_window\": %.4f}",
                  i == 0 ? "" : ", ", r.lanes, static_cast<unsigned long long>(r.events),
                  r.events_per_sec(), r.wall_seconds,
                  static_cast<unsigned long long>(r.allocs), r.max_lane_share,
                  static_cast<unsigned long long>(r.windows), r.parks_per_window());
    out += buf;
  }
  out += "]";
  return out;
}

int RunFabric(int lanes, bool check, const std::string& out_path) {
  const SimTime window = check ? 50 * kMillisecond : 200 * kMillisecond;

  std::vector<FabricPerf> sweep;
  std::vector<int> counts;
  for (int n = 1; n < lanes; n *= 2) {
    counts.push_back(n);
  }
  counts.push_back(lanes);
  if (check && lanes > 1) {
    counts = {1, lanes};  // the equivalence pair; keep the gate fast
  }
  for (int n : counts) {
    sweep.push_back(MeasureFabric(n, window));
    const FabricPerf& r = sweep.back();
    std::printf("lanes %-2d  events %10llu  events/sec %10.0f  windows %6llu  "
                "parks/window %.3f  allocs %6llu  max lane share %.3f  digest %016llx\n",
                r.lanes, static_cast<unsigned long long>(r.events), r.events_per_sec(),
                static_cast<unsigned long long>(r.windows), r.parks_per_window(),
                static_cast<unsigned long long>(r.allocs), r.max_lane_share,
                static_cast<unsigned long long>(r.digest));
  }

  const FabricPerf& base = sweep.front();
  const FabricPerf& top = sweep.back();

  if (check) {
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
    for (const FabricPerf& r : sweep) {
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

  JsonWriter w;
  w.Str("bench", "perf_engine_fabric")
      .Str("scenario", "udp_incast_32_clients")
      .Int("host_cpus", AvailableCpuCount())
      .Num("sim_window_ms", ToSeconds(window) * 1e3, 1)
      .Raw("lane_sweep", LaneSweepJson(sweep))
      .Num("events_per_sec_1lane", base.events_per_sec(), 0)
      .Num("events_per_sec_top", top.events_per_sec(), 0)
      .Num("wall_speedup_measured", base.wall_seconds / top.wall_seconds, 3)
      .Num("max_lane_share_top", top.max_lane_share, 4)
      .Num("speedup_bound_from_share",
           top.max_lane_share > 0.0 ? 1.0 / top.max_lane_share : 0.0, 3)
      .Bool("digests_identical", top.digest == base.digest)
      .Uint("digest", base.digest)
      .Uint("delivered_datagrams", base.delivered);
  if (!WriteFileChecked(out_path, w.Finish())) {
    std::fprintf(stderr, "perf_engine: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

bool WriteJson(const PerfResult& r, TraceMode trace_mode, const std::string& path) {
  JsonWriter w;
  w.Str("bench", "perf_engine")
      .Str("scenario", "fig2_bulk_tx_base_clock")
      .Int("host_cpus", AvailableCpuCount())
      .Str("trace", TraceModeName(trace_mode))
      .Num("sim_window_ms", r.sim_window_ms, 1)
      .Uint("events", r.events)
      .Uint("packets", r.packets)
      .Num("wall_seconds", r.wall_seconds, 6)
      .Num("events_per_sec", r.events_per_sec(), 0)
      .Num("packets_per_sec", r.packets_per_sec(), 0)
      .Uint("allocs", r.allocs)
      .Uint("alloc_bytes", r.alloc_bytes)
      .Num("allocs_per_event", r.allocs_per_event(), 6)
      .Uint("trace_events", r.trace_events)
      .Num("goodput_gbps", r.goodput_gbps, 3);
  if (!WriteFileChecked(path, w.Finish())) {
    std::fprintf(stderr, "perf_engine: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Run(int argc, char** argv) {
  bool check = false;
  int lanes = 0;  // 0 = engine mode; >= 1 = fabric mode
  TraceMode trace_mode = TraceMode::kOff;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      lanes = std::atoi(argv[++i]);
      if (lanes < 1) {
        std::fprintf(stderr, "--lanes must be >= 1\n");
        return 2;
      }
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
      std::fprintf(stderr,
                   "usage: %s [--check] [--trace off|wired|on] [--lanes N] [--out PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  if (lanes > 0) {
    if (out.empty()) {
      out = std::string(NEWTOS_REPO_ROOT) + "/BENCH_fabric.json";
    }
    return RunFabric(lanes, check, out);
  }
  if (out.empty()) {
    out = std::string(NEWTOS_REPO_ROOT) + "/BENCH_engine.json";
  }

  const SimTime window = check ? 50 * kMillisecond : 500 * kMillisecond;
  const PerfResult r = MeasureEngine(window, trace_mode);

  std::printf("perf_engine — fig2-style bulk TCP TX, %0.0f ms simulated window (trace %s)\n",
              r.sim_window_ms, TraceModeName(trace_mode));
  std::printf("  events            %12llu\n", static_cast<unsigned long long>(r.events));
  std::printf("  packets           %12llu\n", static_cast<unsigned long long>(r.packets));
  std::printf("  wall seconds      %12.4f\n", r.wall_seconds);
  std::printf("  events/sec        %12.0f\n", r.events_per_sec());
  std::printf("  packets/sec       %12.0f\n", r.packets_per_sec());
  std::printf("  allocations       %12llu (%llu bytes)\n",
              static_cast<unsigned long long>(r.allocs),
              static_cast<unsigned long long>(r.alloc_bytes));
  std::printf("  allocs/event      %12.6f\n", r.allocs_per_event());
  std::printf("  trace events      %12llu\n", static_cast<unsigned long long>(r.trace_events));
  std::printf("  goodput           %12.3f Gbit/s\n", r.goodput_gbps);

  if (check) {
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

  return WriteJson(r, trace_mode, out) ? 0 : 1;
}

}  // namespace
}  // namespace newtos

int main(int argc, char** argv) { return newtos::Run(argc, argv); }
