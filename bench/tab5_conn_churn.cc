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
// connections between two bare TcpHosts (no cycle-cost model), drives a
// rotating slice of them with small sends so RTO/delayed-ACK timers
// continuously arm, fire and cancel across both per-host wheels, and
// reports:
//   - steady-state allocations per event, counted by the global allocator
//     in tools/alloc_count, which is linked into this binary;
//   - allocated bytes per socket over the first port block and over the
//     rest of the ramp;
//   - the pending simulator events against the peak number of armed timers;
//   - wheel stats (fires, wakes, spurious wakes, cascades).
// --million --check is the ctest gate. It fails unless both tables hold
// every flow, the steady window fired wheel timers with zero allocations,
// the pending events stay well below the armed timers (one wake per wheel,
// not one event per flow), and the rest of the ramp costs no more bytes per
// socket than the first block (per-socket memory does not grow with the
// connection count).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/core/steering.h"
#include "src/metrics/table.h"
#include "src/metrics/timeseries.h"
#include "src/net/tcp_host.h"
#include "src/sim/timer_wheel.h"
#include "tools/alloc_count/alloc_count.h"

namespace newtos {
namespace {

// --- Tab. 5: churn vs keep-alive by stack frequency ------------------------

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
// A per-flow heap timer would hold one pending event per armed timer; the
// wheels hold one wake each plus the packets in flight. The gate wants the
// pending events below this fraction of the peak armed timers.
constexpr size_t kMaxPendingPerArmed = 4;

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
  size_t established() const { return established_; }

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

struct MillionResult {
  uint64_t steady_events = 0;
  uint64_t steady_allocs = 0;
  double bytes_per_socket_early = 0.0;  // averaged over the first ramp block
  double bytes_per_socket_late = 0.0;   // incremental over the rest of the ramp
  uint64_t wheel_fires = 0;
  uint64_t wheel_wakes = 0;
  uint64_t wheel_spurious = 0;
  uint64_t wheel_cascades = 0;
  size_t peak_armed_timers = 0;
  size_t pending_events_steady = 0;

  double allocs_per_event() const {
    return steady_events == 0
               ? 0.0
               : static_cast<double>(steady_allocs) / static_cast<double>(steady_events);
  }
};

int RunMillion(size_t flows, bool check) {
  MillionBed bed;

  // --- Ramp: one fresh port block at a time (collision-free). Sample the
  // allocator early and late so per-socket memory flatness is measurable.
  const uint64_t bytes_start = AllocBytes();
  uint64_t bytes_early = 0;
  size_t early_count = 0;
  size_t opened = 0;
  for (int b = 0; b < kMillionPortBlocks && opened < flows; ++b) {
    const size_t count = std::min<size_t>(kPortBlockCapacity, flows - opened);
    bed.OpenBlock(static_cast<uint16_t>(kMillionBasePort + b), count);
    opened += count;
    bed.sim().RunFor(2 * kMillisecond);
    if (b == 0) {
      bytes_early = AllocBytes();
      early_count = opened;
    }
  }
  if (!bed.SettleEstablished()) {
    std::fprintf(stderr, "million: only %zu/%zu connections established\n",
                 bed.established(), flows);
    return 1;
  }
  const uint64_t bytes_full = AllocBytes();

  MillionResult r;
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

  const uint64_t events0 = bed.sim().events_processed();
  const uint64_t allocs0 = AllocCount();
  bed.sim().RunFor(20 * kMillisecond);

  r.steady_events = bed.sim().events_processed() - events0;
  r.steady_allocs = AllocCount() - allocs0;
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

  std::printf("million: %zu flows  steady events %llu  allocs/event %.6f  "
              "pending events %zu  peak armed %zu\n",
              flows, static_cast<unsigned long long>(r.steady_events), r.allocs_per_event(),
              r.pending_events_steady, r.peak_armed_timers);
  std::printf("million: bytes/socket %.0f (first block) vs %.0f (rest of ramp)  "
              "wheel fires %llu wakes %llu spurious %llu cascades %llu\n",
              r.bytes_per_socket_early, r.bytes_per_socket_late,
              static_cast<unsigned long long>(r.wheel_fires),
              static_cast<unsigned long long>(r.wheel_wakes),
              static_cast<unsigned long long>(r.wheel_spurious),
              static_cast<unsigned long long>(r.wheel_cascades));
  if (!check) {
    return 0;
  }

  // Every claim is judged and every failure reported, so one run shows all
  // that broke (after the numbers above, hence the flush).
  std::fflush(stdout);
  bool ok = true;
  if (bed.client().connection_count() != flows || bed.server().connection_count() != flows) {
    std::fprintf(stderr, "FAIL: connection tables hold %zu/%zu conns, want %zu\n",
                 bed.client().connection_count(), bed.server().connection_count(), flows);
    ok = false;
  }
  if (r.steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu steady-state allocations across %llu events at %zu flows; "
                 "the timer/packet fast path must be allocation-free\n",
                 static_cast<unsigned long long>(r.steady_allocs),
                 static_cast<unsigned long long>(r.steady_events), flows);
    ok = false;
  }
  if (r.wheel_fires == 0) {
    std::fprintf(stderr, "FAIL: the steady window fired no wheel timers — the bench "
                         "is not exercising the timer path\n");
    ok = false;
  }
  if (r.peak_armed_timers < kMaxPendingPerArmed * r.pending_events_steady) {
    std::fprintf(stderr,
                 "FAIL: %zu pending simulator events against %zu peak armed timers; the "
                 "wheels must hold one wake each, not one event per flow timer (want "
                 "pending <= armed / %zu)\n",
                 r.pending_events_steady, r.peak_armed_timers, kMaxPendingPerArmed);
    ok = false;
  }
  if (r.bytes_per_socket_late > r.bytes_per_socket_early) {
    std::fprintf(stderr,
                 "FAIL: %.0f bytes/socket over the rest of the ramp exceeds %.0f over the "
                 "first block; per-socket memory must not grow with the connection count\n",
                 r.bytes_per_socket_late, r.bytes_per_socket_early);
    ok = false;
  }
  if (!ok) {
    return 1;
  }
  std::printf("OK: %zu concurrent flows, %llu events, 0 steady-state allocations, "
              "%zu pending events for %zu armed timers, flat bytes/socket\n",
              flows, static_cast<unsigned long long>(r.steady_events),
              r.pending_events_steady, r.peak_armed_timers);
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
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--million") == 0) {
      million = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--flows") == 0 && i + 1 < argc) {
      flows = static_cast<size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--million [--check] [--flows N]]\n", argv[0]);
      return 2;
    }
  }
  if (million) {
    return newtos::RunMillion(flows, check);
  }
  newtos::RunTable(argv[0]);
  return 0;
}
