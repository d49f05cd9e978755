// Tab. 5 — Connection churn: the handshake/teardown path on slow cores.
//
// Short-lived connections (HTTP/1.0 style: connect, one request, close) are
// the stress case for the TCP server's control path — SYN handling, accept
// dispatch, FIN teardown, TIME_WAIT reaping — none of which appears in bulk
// streaming. Sweeping the stack frequency answers whether the control path
// knees earlier than the data path.
//
// Expected shape: at full clock the handshake overhead is hidden behind the
// closed-loop latency (churn costs only a few percent). Once the stack
// saturates, the control path's extra segments and events (SYN exchange,
// FIN exchange, accept/close notifications — roughly double the messages of
// a keep-alive request) come straight out of throughput, so churn serves
// about half the keep-alive rate below the knee. Keep-alive wins everywhere.
//
// --million mode: the timer-wheel scale test. Builds 10^6 concurrent TCP
// connections between two bare TcpHosts (no cycle-cost model — this measures
// the *host engine*, not the simulated CPU), drives a rotating slice of them
// with small sends so RTO/delayed-ACK timers continuously arm, fire and
// cancel across both per-host wheels, and measures:
//   - setup and teardown rates (host wall-clock),
//   - steady-state allocations per event (a counting global allocator; the
//     wheel's intrusive nodes and the engine's pools must hold this at ZERO),
//   - allocated bytes per socket at two ramp points (flat = per-socket
//     memory does not grow with connection count),
//   - wheel stats (fires, wakes, spurious wakes, cascades) and the pending
//     simulator events while ~10^6 sockets hold live timers (one wake per
//     wheel, not one event per flow).
// Results land in the "million" and "knee" sections of BENCH_timers.json
// (the "micro" section, written by bench/timer_micro, is preserved).
// --million --check is the ctest gate: full 10^6 flows, asserts zero
// steady-state allocations, skips the slow knee sweep and teardown timing.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/common.h"
#include "src/core/steering.h"
#include "src/host/affinity.h"
#include "src/metrics/report.h"
#include "src/metrics/table.h"
#include "src/metrics/timeseries.h"
#include "src/net/tcp_host.h"
#include "src/sim/timer_wheel.h"

// --- Counting allocator hook (same pattern as bench/perf_engine.cc) --------

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

// --- Knee curve (the original Tab. 5 measurement) --------------------------

double MeasureChurnRps(FreqKhz stack_freq, bool keep_alive) {
  Testbed tb;
  DedicatedSlowPlan(*tb.stack(), stack_freq, 3'600'000 * kKhz).Apply(tb.machine());
  SocketApi* api = tb.stack()->CreateApp("httpd", tb.machine().core(0));
  HttpParams hp;
  hp.concurrency = 32;
  hp.server_compute_cycles = 2'000;
  hp.keep_alive = keep_alive;
  HttpServerApp server(api, hp);
  server.Start();
  tb.sim().RunFor(2 * kMillisecond);
  HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
  client.Start();
  tb.sim().RunFor(100 * kMillisecond);
  client.ResetWindow(tb.sim().Now());
  tb.sim().RunFor(200 * kMillisecond);
  return client.window().EventsPerSec(tb.sim().Now());
}

// --- Million-flow churn -----------------------------------------------------

constexpr Ipv4Addr kMillionClientIp = Ipv4(10, 1, 0, 1);
constexpr Ipv4Addr kMillionServerIp = Ipv4(10, 1, 0, 2);
constexpr uint16_t kMillionBasePort = 80;
// One TcpHost owns one ephemeral range (16384 ports), so flow-key capacity
// scales with listening ports: 64 ports x 16384 = 1,048,576 distinct keys.
constexpr int kMillionPortBlocks = 64;
constexpr int kPortBlockCapacity = 16384;
constexpr SimTime kMillionWireDelay = 50 * kMicrosecond;

class MillionBed {
 public:
  explicit MillionBed(size_t target)
      : target_(target),
        server_(&sim_, kMillionServerIp, [this](PacketPtr p) { Wire(std::move(p), &client_); }),
        client_(&sim_, kMillionClientIp, [this](PacketPtr p) { Wire(std::move(p), &server_); }) {
    TcpHost::AppHooks server_hooks;
    server_hooks.on_established = [this](TcpConnection* c) {
      server_by_key_[c->key()] = c;
    };
    server_hooks.on_closed = [this](TcpConnection* c) { server_by_key_.erase(c->key()); };
    for (int b = 0; b < kMillionPortBlocks; ++b) {
      server_.Listen(static_cast<uint16_t>(kMillionBasePort + b), server_hooks);
    }
  }

  Simulation& sim() { return sim_; }
  TcpHost& server() { return server_; }
  TcpHost& client() { return client_; }
  size_t established() const { return established_; }
  uint64_t sends() const { return sends_; }

  // Opens `count` connections against listening port `port`. Fresh port
  // blocks never collide in the ephemeral allocator, so this is O(count).
  void OpenBlock(uint16_t port, size_t count) {
    TcpHost::AppHooks hooks;
    hooks.on_established = [this](TcpConnection*) { ++established_; };
    hooks.on_closed = [this](TcpConnection*) { --established_; };
    for (size_t i = 0; i < count; ++i) {
      TcpConnection* c = client_.Connect(kMillionServerIp, port, hooks);
      if (c == nullptr) {
        std::fprintf(stderr, "million: ephemeral range exhausted on port %u\n", port);
        std::abort();
      }
      conns_.push_back(c);
    }
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

  // Gracefully closes the first `count` connections from both ends and runs
  // the sim until FIN/TIME_WAIT teardown finishes and both tables shrink.
  void CloseSlice(size_t count) {
    for (size_t i = 0; i < count && i < conns_.size(); ++i) {
      TcpConnection* c = conns_[i];
      auto it = server_by_key_.find(c->key().Reversed());
      if (it != server_by_key_.end()) {
        it->second->CloseSend();
      }
      c->CloseSend();
    }
    const size_t want = conns_.size() - count;
    for (int i = 0; i < 1000 && (client_.connection_count() > want ||
                                 server_.connection_count() > want); ++i) {
      sim_.RunFor(15 * kMillisecond);  // > TIME_WAIT (10 ms)
      client_.ReapClosed();
      server_.ReapClosed();
    }
    conns_.erase(conns_.begin(), conns_.begin() + static_cast<ptrdiff_t>(count));
  }

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
      ++sends_;
    }
    sim_.Schedule(100 * kMicrosecond, [this] { DriverTick(); });
  }

  size_t target_;
  Simulation sim_;
  TcpHost server_;
  TcpHost client_;
  std::vector<TcpConnection*> conns_;
  std::unordered_map<FlowKey, TcpConnection*, FlowKeyHash> server_by_key_;
  size_t established_ = 0;
  size_t cursor_ = 0;
  size_t per_tick_ = 0;
  uint64_t sends_ = 0;
  bool driving_ = false;
};

struct MillionResult {
  size_t flows = 0;
  double setup_wall_s = 0.0;
  double teardown_wall_s = 0.0;
  double reopen_wall_s = 0.0;
  size_t churn_slice = 0;
  uint64_t steady_events = 0;
  uint64_t steady_sends = 0;
  uint64_t steady_allocs = 0;
  double steady_wall_s = 0.0;
  double bytes_per_socket_early = 0.0;  // averaged over the first ramp block
  double bytes_per_socket_late = 0.0;   // incremental over the last 90%
  uint64_t wheel_fires = 0;
  uint64_t wheel_wakes = 0;
  uint64_t wheel_spurious = 0;
  uint64_t wheel_cascades = 0;
  size_t peak_armed_timers = 0;
  size_t pending_events_steady = 0;

  double setup_per_sec() const {
    return setup_wall_s > 0 ? static_cast<double>(flows) / setup_wall_s : 0.0;
  }
  double teardown_per_sec() const {
    return teardown_wall_s > 0 ? static_cast<double>(churn_slice) / teardown_wall_s : 0.0;
  }
  double reopen_per_sec() const {
    return reopen_wall_s > 0 ? static_cast<double>(churn_slice) / reopen_wall_s : 0.0;
  }
  double allocs_per_event() const {
    return steady_events == 0
               ? 0.0
               : static_cast<double>(steady_allocs) / static_cast<double>(steady_events);
  }
};

int RunMillion(size_t flows, bool check, const std::string& out_path) {
  MillionBed bed(flows);

  // --- Ramp: one fresh port block at a time (collision-free). Sample the
  // allocator early and late so per-socket memory flatness is measurable.
  const uint64_t bytes_start = g_alloc_bytes.load(std::memory_order_relaxed);
  uint64_t bytes_early = 0;
  size_t early_count = 0;
  const auto setup0 = std::chrono::steady_clock::now();
  size_t opened = 0;
  for (int b = 0; b < kMillionPortBlocks && opened < flows; ++b) {
    const size_t count = std::min<size_t>(kPortBlockCapacity, flows - opened);
    bed.OpenBlock(static_cast<uint16_t>(kMillionBasePort + b), count);
    opened += count;
    bed.sim().RunFor(2 * kMillisecond);
    if (b == 0) {
      bytes_early = g_alloc_bytes.load(std::memory_order_relaxed);
      early_count = opened;
    }
  }
  if (!bed.SettleEstablished()) {
    std::fprintf(stderr, "million: only %zu/%zu connections established\n",
                 bed.established(), flows);
    return 1;
  }
  const auto setup1 = std::chrono::steady_clock::now();
  const uint64_t bytes_full = g_alloc_bytes.load(std::memory_order_relaxed);

  MillionResult r;
  r.flows = flows;
  r.setup_wall_s = std::chrono::duration<double>(setup1 - setup0).count();
  r.bytes_per_socket_early =
      early_count > 0 ? static_cast<double>(bytes_early - bytes_start) /
                            (2.0 * static_cast<double>(early_count))
                      : 0.0;
  r.bytes_per_socket_late =
      flows > early_count ? static_cast<double>(bytes_full - bytes_early) /
                                (2.0 * static_cast<double>(flows - early_count))
                          : 0.0;

  // --- Steady state: rotating sends keep both wheels churning. Warm up
  // first so every pool, ring, hash table and scratch list reaches its
  // high-water mark, then demand zero allocations in the measured window.
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

  const uint64_t sends0 = bed.sends();
  const uint64_t events0 = bed.sim().events_processed();
  const uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
  const auto steady0 = std::chrono::steady_clock::now();
  const SimTime window = check ? 20 * kMillisecond : 50 * kMillisecond;
  bed.sim().RunFor(window);
  const auto steady1 = std::chrono::steady_clock::now();

  r.steady_events = bed.sim().events_processed() - events0;
  r.steady_sends = bed.sends() - sends0;
  r.steady_allocs = g_allocs.load(std::memory_order_relaxed) - allocs0;
  r.steady_wall_s = std::chrono::duration<double>(steady1 - steady0).count();
  r.pending_events_steady = bed.sim().PendingEvents();
  for (const TimeSeries::Point& p : armed_series.points()) {
    r.peak_armed_timers =
        std::max(r.peak_armed_timers, static_cast<size_t>(p.value));
  }
  armed_series.Stop();
  bed.StopDriver();
  bed.sim().RunFor(20 * kMillisecond);

  r.wheel_fires = bed.server().wheel()->fires() + bed.client().wheel()->fires();
  r.wheel_wakes = bed.server().wheel()->wakes() + bed.client().wheel()->wakes();
  r.wheel_spurious =
      bed.server().wheel()->spurious_wakes() + bed.client().wheel()->spurious_wakes();
  r.wheel_cascades = bed.server().wheel()->cascades() + bed.client().wheel()->cascades();

  std::printf("million: %zu flows  setup %.0f conns/s  steady %.2fM events/s  "
              "allocs/event %.6f  pending events %zu  peak armed %zu\n",
              r.flows, r.setup_per_sec(),
              r.steady_wall_s > 0
                  ? static_cast<double>(r.steady_events) / r.steady_wall_s / 1e6
                  : 0.0,
              r.allocs_per_event(), r.pending_events_steady, r.peak_armed_timers);
  std::printf("million: bytes/socket %.0f (first block) vs %.0f (rest of ramp)  "
              "wheel fires %llu wakes %llu spurious %llu cascades %llu\n",
              r.bytes_per_socket_early, r.bytes_per_socket_late,
              static_cast<unsigned long long>(r.wheel_fires),
              static_cast<unsigned long long>(r.wheel_wakes),
              static_cast<unsigned long long>(r.wheel_spurious),
              static_cast<unsigned long long>(r.wheel_cascades));

  if (check) {
    if (bed.client().connection_count() != flows ||
        bed.server().connection_count() != flows) {
      std::fprintf(stderr, "FAIL: connection tables hold %zu/%zu conns, want %zu\n",
                   bed.client().connection_count(), bed.server().connection_count(), flows);
      return 1;
    }
    if (r.steady_allocs != 0) {
      std::fprintf(stderr,
                   "FAIL: %llu steady-state allocations across %llu events at %zu flows; "
                   "the timer/packet fast path must be allocation-free\n",
                   static_cast<unsigned long long>(r.steady_allocs),
                   static_cast<unsigned long long>(r.steady_events), flows);
      return 1;
    }
    if (r.wheel_fires == 0) {
      std::fprintf(stderr, "FAIL: the steady window fired no wheel timers — the bench "
                           "is not exercising the timer path\n");
      return 1;
    }
    std::printf("OK: %zu concurrent flows, %llu events, 0 steady-state allocations\n",
                flows, static_cast<unsigned long long>(r.steady_events));
    return 0;
  }

  // --- Churn: graceful FIN/TIME_WAIT teardown of one port block, then
  // reopen it. Both are honest rates: teardown includes reaping, reopen
  // includes connection allocation and the handshake.
  r.churn_slice = std::min<size_t>(kPortBlockCapacity, flows);
  const auto tear0 = std::chrono::steady_clock::now();
  bed.CloseSlice(r.churn_slice);
  const auto tear1 = std::chrono::steady_clock::now();
  r.teardown_wall_s = std::chrono::duration<double>(tear1 - tear0).count();

  const auto reopen0 = std::chrono::steady_clock::now();
  bed.OpenBlock(kMillionBasePort, r.churn_slice);
  if (!bed.SettleEstablished()) {
    std::fprintf(stderr, "million: reopen failed to establish\n");
    return 1;
  }
  const auto reopen1 = std::chrono::steady_clock::now();
  r.reopen_wall_s = std::chrono::duration<double>(reopen1 - reopen0).count();

  std::printf("million: teardown %.0f conns/s  reopen %.0f conns/s (slice %zu)\n",
              r.teardown_per_sec(), r.reopen_per_sec(), r.churn_slice);

  // --- Knee curve: the modeled control-path rate vs stack frequency.
  std::string knee = "[";
  char buf[160];
  for (FreqKhz f : {3'600'000 * kKhz, 2'400'000 * kKhz, 1'600'000 * kKhz,
                    1'200'000 * kKhz, 800'000 * kKhz}) {
    const double churn = MeasureChurnRps(f, false);
    const double ka = MeasureChurnRps(f, true);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"stack_ghz\": %s, \"churn_rps\": %.0f, \"keepalive_rps\": %.0f}",
                  knee.size() > 1 ? ", " : "", GhzStr(f).c_str(), churn, ka);
    knee += buf;
  }
  knee += "]";

  JsonWriter million;
  million.Uint("flows", r.flows)
      .Int("host_cpus", AvailableCpuCount())
      .Num("setup_conns_per_sec", r.setup_per_sec(), 0)
      .Num("teardown_conns_per_sec", r.teardown_per_sec(), 0)
      .Num("reopen_conns_per_sec", r.reopen_per_sec(), 0)
      .Uint("churn_slice", r.churn_slice)
      .Uint("steady_events", r.steady_events)
      .Uint("steady_sends", r.steady_sends)
      .Num("steady_events_per_sec",
           r.steady_wall_s > 0 ? static_cast<double>(r.steady_events) / r.steady_wall_s
                               : 0.0,
           0)
      .Uint("steady_allocs", r.steady_allocs)
      .Num("allocs_per_event", r.allocs_per_event(), 6)
      .Num("bytes_per_socket_early", r.bytes_per_socket_early, 0)
      .Num("bytes_per_socket_late", r.bytes_per_socket_late, 0)
      .Uint("peak_armed_timers", r.peak_armed_timers)
      .Uint("pending_events_steady", r.pending_events_steady)
      .Uint("wheel_fires", r.wheel_fires)
      .Uint("wheel_wakes", r.wheel_wakes)
      .Uint("wheel_spurious_wakes", r.wheel_spurious)
      .Uint("wheel_cascades", r.wheel_cascades);

  JsonWriter top;
  top.Raw("million", million.Finish()).Raw("knee", knee);
  const std::string micro = ReadJsonSection(out_path, "micro");
  if (!micro.empty()) {
    top.Raw("micro", micro);
  }
  if (!WriteFileChecked(out_path, top.Finish())) {
    std::fprintf(stderr, "tab5_conn_churn: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

// --- Default mode: the original table --------------------------------------

void RunTable(const char* argv0) {
  Table t({"stack_ghz", "churn_rps", "keepalive_rps", "churn_cost"});
  for (FreqKhz f : {3'600'000 * kKhz, 2'400'000 * kKhz, 1'600'000 * kKhz, 1'200'000 * kKhz,
                    800'000 * kKhz}) {
    const double churn = MeasureChurnRps(f, false);
    const double ka = MeasureChurnRps(f, true);
    t.AddRow({GhzStr(f), Table::Num(churn / 1e3, 1) + "k", Table::Num(ka / 1e3, 1) + "k",
              Table::Pct(1.0 - churn / ka)});
  }
  t.Print(std::cout, "Tab.5 — connection-per-request churn vs. keep-alive, by stack frequency");
  WriteBenchCsv(t, argv0, "tab5_conn_churn");
}

}  // namespace
}  // namespace newtos

int main(int argc, char** argv) {
  bool million = false;
  bool check = false;
  size_t flows = 1'000'000;
  std::string out = std::string(NEWTOS_REPO_ROOT) + "/BENCH_timers.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--million") == 0) {
      million = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--flows") == 0 && i + 1 < argc) {
      flows = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--million [--check] [--flows N] [--out PATH]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (million) {
    return newtos::RunMillion(flows, check, out);
  }
  newtos::RunTable(argv[0]);
  return 0;
}
