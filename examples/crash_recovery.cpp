// Crash recovery: kill stack servers mid-transfer and watch them come back.
//
//   $ ./crash_recovery
//
// Demonstrates the reliability half of the system: fault injection via
// MicrorebootManager, per-server recovery hooks (the IP server is stateless,
// the TCP server optionally checkpoints its connection state), and that a
// bulk transfer rides out both incidents. Exits 1 unless both servers
// recovered and the recovered goodput is above half the steady state.

#include <cstdio>

#include "src/newtos.h"

using namespace newtos;

namespace {

double WindowGbps(IperfPeerSink& sink, Testbed& tb, SimTime window) {
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(window);
  return sink.window().GbitsPerSec(tb.sim().Now());
}

}  // namespace

int main() {
  Testbed tb;
  tb.stack()->tcp()->set_checkpointing(true);  // survive TCP-server reboots

  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params params;
  params.dst = tb.peer_addr();
  IperfSender sender(api, params);
  IperfPeerSink sink(&tb.peer());
  sender.Start();
  tb.sim().RunFor(200 * kMillisecond);

  const double steady = WindowGbps(sink, tb, 200 * kMillisecond);
  std::printf("steady state:            %5.2f Gbit/s\n", steady);

  MicrorebootManager mgr(&tb.sim());
  const StackConfig& cfg = tb.stack()->config();

  // Incident 1: the (stateless) IP server dies.
  mgr.InjectCrash(tb.stack()->ip(), tb.sim().Now() + 10 * kMillisecond, cfg.ip.restart_cycles);
  std::printf("ip crash second:         %5.2f Gbit/s\n", WindowGbps(sink, tb, kSecond));

  // Incident 2: the (stateful, checkpointed) TCP server dies.
  mgr.InjectCrash(tb.stack()->tcp(), tb.sim().Now() + 10 * kMillisecond, cfg.tcp.restart_cycles);
  std::printf("tcp crash second:        %5.2f Gbit/s\n", WindowGbps(sink, tb, kSecond));

  const double recovered = WindowGbps(sink, tb, 200 * kMillisecond);
  std::printf("recovered steady state:  %5.2f Gbit/s\n", recovered);

  std::printf("\nincident log:\n");
  bool all_recovered = mgr.incidents().size() == 2;
  for (const auto& inc : mgr.incidents()) {
    all_recovered = all_recovered && inc.recovered_at != 0;
    std::printf("  %-7s crashed %-10s detected +%s  recovered +%s\n", inc.server.c_str(),
                FormatTime(inc.crashed_at).c_str(),
                FormatTime(inc.detected_at - inc.crashed_at).c_str(),
                FormatTime(inc.RecoveryTime()).c_str());
  }
  if (!all_recovered || recovered <= 0.5 * steady) {
    std::printf("\nThe transfer did not survive both microreboots: %.2f Gbit/s recovered\n"
                "against %.2f Gbit/s steady state, %s.\n",
                recovered, steady,
                all_recovered ? "both servers recovered" : "a server did not recover");
    return 1;
  }
  std::printf("\nThe transfer survived both microreboots; TCP retransmission filled\n"
              "the gaps, and the checkpointed TCP server kept its connections.\n");
  return 0;
}
