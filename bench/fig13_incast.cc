// Fig. 13 — N-to-1 TCP incast through the switch fabric vs. system-core
// frequency.
//
// N clients bulk-stream into one multiserver-stack SUT through a shared
// switch. Two regimes interact:
//   * the fabric: N synchronized senders oversubscribe the SUT-facing
//     egress port, whose small buffer tail-drops bursts — goodput is
//     capped at egress line rate while client RTT inflates with queueing
//     and recovery;
//   * the stack: once the system cores are slowed past the knee, the SUT
//     itself (driver/IP/TCP stages) becomes the bottleneck below what the
//     fabric delivers.
// Sweeping N at 3.6 GHz against 1.2 GHz system cores separates the two:
// at base clock the throughput knee is the fabric's egress port; with slow
// system cores the curve falls off earlier and RTTs grow — the stack, not
// the switch, is dropping the load.
//
// Expected shape: goodput rises with N to the egress cap at 3.6 GHz and to
// a lower, stack-bound plateau at 1.2 GHz; p99 RTT grows with N in both,
// dominated by egress queueing at base clock and by recovery (retransmits)
// when the stack is slow.
//
// Multi-lane note: --lanes N (1..33, exit 2 otherwise) runs the same
// simulation partitioned across worker threads; results are bit-identical
// for any lane count. The fig13_golden ctest pins this for the whole figure:
// a 4-lane run must reproduce tests/golden/fig13_incast.csv, which a 1-lane
// run wrote.

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "bench/common.h"
#include "src/fabric/incast.h"
#include "src/metrics/table.h"

namespace newtos {
namespace {

struct Fig13Row {
  int n_clients = 0;
  FreqKhz system_freq = 0;
  double goodput_gbps = 0.0;
  SimTime rtt_p50 = 0;
  SimTime rtt_p99 = 0;
  uint64_t retransmits = 0;
  uint64_t egress_drops = 0;
};

Fig13Row Measure(int n_clients, FreqKhz system_freq, int lanes) {
  TcpIncastOptions o;
  o.topo.n_clients = n_clients;
  o.topo.lanes = lanes;
  o.topo.seed = 42;
  o.topo.fabric = IncastFabricDefaults();
  o.topo.fabric.egress_queue_slots = 16;  // shallow buffer: visible incast
  o.system_freq = system_freq;
  o.burst_bytes = 128 * 1024;

  TcpIncastBed bed(o);
  bed.Start();
  // Warm-up covers jittered connects + slow start; measure a steady window.
  bed.RunFor(40 * kMillisecond);
  bed.window().Reset(bed.engine().Now());
  const uint64_t drops_before = bed.fabric().port_stats(0).egress_drops;
  const TcpStats before = bed.AggregateClientStats();
  const SimTime window = 160 * kMillisecond;
  bed.RunFor(window);

  Fig13Row row;
  row.n_clients = n_clients;
  row.system_freq = system_freq;
  row.goodput_gbps = static_cast<double>(bed.window().bytes()) * 8.0 /
                     (static_cast<double>(window) / kSecond) / 1e9;
  const LatencyHistogram rtt = bed.ClientRttHistogram();
  row.rtt_p50 = rtt.P50();
  row.rtt_p99 = rtt.P99();
  row.retransmits = bed.AggregateClientStats().retransmits - before.retransmits;
  row.egress_drops = bed.fabric().port_stats(0).egress_drops - drops_before;
  return row;
}

bool Run(const char* argv0, int lanes) {
  Table t({"clients", "sys_ghz", "goodput_gbps", "rtt_p50_us", "rtt_p99_us", "retransmits",
           "egress_drops"});
  for (int n : {2, 4, 8, 12, 16, 24, 32}) {
    for (FreqKhz f : {3'600'000 * kKhz, 1'200'000 * kKhz}) {
      const Fig13Row r = Measure(n, f, lanes);
      t.AddRow({Table::Int(r.n_clients), GhzStr(r.system_freq), Table::Num(r.goodput_gbps, 2),
                Table::Num(static_cast<double>(r.rtt_p50) / kMicrosecond, 1),
                Table::Num(static_cast<double>(r.rtt_p99) / kMicrosecond, 1),
                Table::Int(static_cast<int64_t>(r.retransmits)),
                Table::Int(static_cast<int64_t>(r.egress_drops))});
    }
  }
  t.Print(std::cout, "Fig.13 — N-to-1 incast through the switch fabric (" +
                         std::to_string(lanes) + " lane" + (lanes == 1 ? "" : "s") + ")");
  return WriteBenchCsv(t, argv0, "fig13_incast");
}

}  // namespace
}  // namespace newtos

int main(int argc, char** argv) {
  long lanes = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--lanes") == 0 && i + 1 < argc) {
      lanes = std::strtol(argv[++i], nullptr, 10);
    } else {
      std::cerr << "usage: " << argv[0] << " [--lanes N]\n";
      return 2;
    }
  }
  // Every row builds a LaneEngine with lanes - 1 threads, so the count is
  // bounded (for the largest row, 32 clients) before any bed is built.
  const std::string why = newtos::IncastLanesError(32, lanes);
  if (!why.empty()) {
    std::cerr << "--lanes: " << why << "\n";
    return 2;
  }
  return newtos::Run(argv[0], static_cast<int>(lanes)) ? 0 : 1;
}
