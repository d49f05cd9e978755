// Incast testbeds: N client hosts converging on one system under test
// through the switch fabric, partitioned into parallel simulation lanes.
//
// Two rigs share the topology (clients on ports 1..N, SUT on port 0):
//
//   UdpIncastBed — N UdpPeerFlood generators firing at a zero-cost sink
//     host. The offered load oversubscribes the SUT-facing egress port, so
//     the switch's bounded egress queue tail-drops the excess — the classic
//     incast failure — and the surviving stream is exactly egress line
//     rate. Because drops happen in the fabric, the SUT lane pays nothing
//     for them: event load concentrates on the client lanes, which is what
//     makes the rig scale with lane count (see MaxLaneShare()).
//
//   TcpIncastBed — N real-TCP clients bulk-streaming into a full
//     multiserver-stack SUT (Machine + MultiserverStack + socket app).
//     The egress queue ahead of the SUT port turns synchronized bursts
//     into tail drops, retransmissions and RTT inflation — the
//     throughput/latency knee fig13_incast sweeps against system-core
//     frequency.
//
// Determinism: every observable either lives on one host (client counters,
// RNG streams seeded by Rng::HostSeed) or is derived from fabric delivery,
// whose arbitration is a lane-count-independent total order (switch.h). The
// beds fold per-host stream digests over (arrival time, tag, bytes) and
// reduce all cross-host aggregates in host-id order, so a 1-lane and an
// 8-lane run of the same options produce bit-identical digests, stats and
// CSV rows. lane_test.cc holds the rigs to that.

#ifndef SRC_FABRIC_INCAST_H_
#define SRC_FABRIC_INCAST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/steering.h"
#include "src/fabric/lane.h"
#include "src/fabric/switch.h"
#include "src/hw/machine.h"
#include "src/metrics/histogram.h"
#include "src/metrics/stats.h"
#include "src/net/tcp.h"
#include "src/os/peer_host.h"
#include "src/os/stack.h"
#include "src/workload/iperf.h"
#include "src/workload/udp_flood.h"

namespace newtos {

// FNV-1a accumulator for stream-integrity digests. Folding is ordered, so
// two digests match only if the same values arrived in the same order —
// the property the lane-equivalence tests pin down.
class StreamDigest {
 public:
  void Fold(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Topology shared by both rigs.
struct IncastOptions {
  int n_clients = 16;
  int lanes = 1;  // 1 = the determinism oracle; >1 = parallel lanes
  uint64_t seed = 42;
  SwitchParams fabric;      // see IncastFabricDefaults()
  Nic::Params client_nic;   // every client's adapter
};

// Fabric tuned for the incast rigs: 10G ports, non-blocking backplane, 2us
// switching + 5us cables => 7us of lookahead per window.
SwitchParams IncastFabricDefaults();

Ipv4Addr IncastSutAddr();          // 10.0.0.1
Ipv4Addr IncastClientAddr(int i);  // 10.0.(1 + i/256).(i%256)
int IncastClientIndex(Ipv4Addr a); // inverse of IncastClientAddr

// Lane placement: the SUT always runs in lane 0; client i runs in lane
// 1 + (i % (lanes-1)), or lane 0 when lanes == 1. Keeping the SUT alone in
// lane 0 gives the serial bottleneck its own thread.
int IncastLaneOfClient(int client, int lanes);

// Upper bound on lanes for any incast run. LaneEngine starts lanes - 1 OS
// threads, so a count taken from a script or a command line is bounded here
// before anything is built.
inline constexpr int kMaxIncastLanes = 64;

// Checks a lane count taken from outside the program, before it is narrowed
// to int: it must be in [1, kMaxIncastLanes], and at most clients + 1, since
// a lane past that holds no host (see IncastLaneOfClient). Returns "" when
// the count is usable, else the reason it is not. Every entry point that
// accepts a lane count (the .nsc parser, newtos_scenario --lanes,
// fig13_incast --lanes) calls this.
std::string IncastLanesError(int clients, long lanes);

// --- UDP incast -----------------------------------------------------------

struct UdpIncastOptions {
  IncastOptions topo;
  uint32_t payload_bytes = 1024;
  double pps_per_client = 150'000.0;  // 16 clients ~= 2x a 10G egress port
  bool poisson = true;
};

class UdpIncastBed {
 public:
  explicit UdpIncastBed(const UdpIncastOptions& options);
  ~UdpIncastBed();

  UdpIncastBed(const UdpIncastBed&) = delete;
  UdpIncastBed& operator=(const UdpIncastBed&) = delete;

  LaneEngine& engine() { return engine_; }
  Switch& fabric() { return fabric_; }
  PeerHost& sut() { return *sut_; }

  void Start();  // arms every client's flood
  void RunFor(SimTime d) { engine_.RunFor(d); }

  // Datagrams the sink actually received / clients offered (host-id order).
  uint64_t delivered() const { return delivered_total_; }
  uint64_t sent() const;
  uint64_t delivered_from(int client) const {
    return delivered_per_client_[static_cast<size_t>(client)];
  }
  RateMeter& window() { return window_; }

  // Stream-integrity digest: per-source fold of (arrival time, app_tag,
  // payload bytes) in delivery order, then reduced over clients in host-id
  // order. Identical for any lane count.
  uint64_t Digest() const;

 private:
  struct Client;

  UdpIncastOptions options_;
  LaneEngine engine_;
  Switch fabric_;
  std::unique_ptr<Nic> sut_nic_;
  std::unique_ptr<PeerHost> sut_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<StreamDigest> digest_per_client_;
  std::vector<uint64_t> delivered_per_client_;
  uint64_t delivered_total_ = 0;
  RateMeter window_;
};

// --- TCP incast -----------------------------------------------------------

struct TcpIncastOptions {
  IncastOptions topo;
  // System-core frequency for the SUT's stack stages (DedicatedSlowPlan);
  // the fig13 sweep compares 3.6 GHz against scaled-down system cores.
  FreqKhz system_freq = 3'600'000 * kKhz;
  FreqKhz app_freq = 3'600'000 * kKhz;
  uint64_t burst_bytes = 256 * 1024;
  // Clients connect at Uniform(0, start_jitter) derived from
  // Rng::HostSeed(seed, host_id): synchronized-but-not-simultaneous, the
  // incast onset pattern.
  SimTime start_jitter = 1 * kMillisecond;
  Machine::Params machine;
  StackConfig stack;
};

class TcpIncastBed {
 public:
  explicit TcpIncastBed(const TcpIncastOptions& options);
  ~TcpIncastBed();

  TcpIncastBed(const TcpIncastBed&) = delete;
  TcpIncastBed& operator=(const TcpIncastBed&) = delete;

  LaneEngine& engine() { return engine_; }
  Switch& fabric() { return fabric_; }
  Machine& machine() { return *machine_; }
  MultiserverStack& stack() { return *stack_; }

  // Arms the SUT listener and schedules every client's jittered connect.
  // Callers should RunFor a few milliseconds before measuring.
  void Start();
  void RunFor(SimTime d) { engine_.RunFor(d); }

  uint64_t total_bytes() const { return total_bytes_; }
  RateMeter& window() { return window_; }
  // Clients whose connection completed the handshake (counted client-side).
  int established() const;

  // Digest over (arrival time, socket handle, bytes) for every data
  // delivery the SUT app saw, in delivery order. Handles are assigned in
  // accept order, which the fabric's total order fixes per options.
  uint64_t Digest() const { return sut_digest_.value(); }

  // Cross-host aggregates, reduced in host-id order regardless of how
  // clients were spread over lanes.
  TcpStats AggregateClientStats() const;
  LatencyHistogram ClientRttHistogram() const;

 private:
  struct Client;

  TcpIncastOptions options_;
  LaneEngine engine_;
  Switch fabric_;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<MultiserverStack> stack_;
  SocketApi* api_ = nullptr;
  std::vector<std::unique_ptr<Client>> clients_;
  StreamDigest sut_digest_;
  uint64_t total_bytes_ = 0;
  RateMeter window_;
};

}  // namespace newtos

#endif  // SRC_FABRIC_INCAST_H_
