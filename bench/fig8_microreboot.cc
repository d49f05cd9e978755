// Fig. 8 — Microreboot under load: does a slower core hurt recovery?
//
// Mid-transfer, one stack server is crashed and rebooted (detection 200 us,
// reboot cost charged to the server's own core). We report recovery time
// and the goodput over the second containing the incident, for each server,
// at stack frequencies 3.6 / 1.6 / 0.8 GHz; the TCP server is measured both
// cold (connections lost) and checkpointed (connections survive).
//
// Expected shape: recovery time grows sub-linearly as the core slows
// (detection latency is frequency-independent); the goodput dip is a few
// hundred milliseconds of retransmission for stateless servers and for the
// checkpointed TCP server, while a cold TCP reboot kills the transfer.

#include <iostream>
#include <string>

#include "bench/common.h"
#include "src/core/steering.h"
#include "src/metrics/table.h"
#include "src/os/microreboot.h"

namespace newtos {
namespace {

struct CrashOutcome {
  SimTime recovery = 0;
  double dip_gbps = 0.0;     // goodput over the incident second
  double steady_gbps = 0.0;  // goodput before the crash
  bool transfer_alive = false;
};

CrashOutcome CrashServer(const std::string& which, FreqKhz stack_freq, bool checkpoint) {
  Testbed tb;
  DedicatedSlowPlan(*tb.stack(), stack_freq, 3'600'000 * kKhz).Apply(tb.machine());
  tb.stack()->tcp()->set_checkpointing(checkpoint);

  SocketApi* api = tb.stack()->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();
  tb.sim().RunFor(200 * kMillisecond);

  CrashOutcome out;
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(200 * kMillisecond);
  out.steady_gbps = sink.window().GbitsPerSec(tb.sim().Now());

  Server* victim = tb.stack()->tcp();
  if (which == "driver") {
    victim = tb.stack()->driver();
  } else if (which == "ip") {
    victim = tb.stack()->ip();
  }

  MicrorebootManager mgr(&tb.sim());
  mgr.InjectCrash(victim, tb.sim().Now() + 10 * kMillisecond, tb.stack()->RestartCycles(victim));

  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(kSecond);  // the incident second
  out.dip_gbps = sink.window().GbitsPerSec(tb.sim().Now());
  out.recovery = mgr.incidents()[0].recovered_at != 0 ? mgr.incidents()[0].RecoveryTime() : -1;

  // Is data still moving afterwards?
  sink.window().Reset(tb.sim().Now());
  tb.sim().RunFor(200 * kMillisecond);
  out.transfer_alive = sink.window().bytes() > 0;
  return out;
}

void Run(const char* argv0) {
  Table t({"victim", "stack_ghz", "recovery_ms", "incident_gbps", "steady_gbps", "alive_after"});
  const std::vector<FreqKhz> freqs{3'600'000 * kKhz, 1'600'000 * kKhz, 800'000 * kKhz};
  for (const char* which_name : {"driver", "ip", "tcp-cold", "tcp-ckpt"}) {
    const std::string which = which_name;
    for (FreqKhz f : freqs) {
      const bool ckpt = which == "tcp-ckpt";
      const std::string server = which.substr(0, 3) == "tcp" ? "tcp" : which;
      const CrashOutcome o = CrashServer(server, f, ckpt);
      t.AddRow({which, GhzStr(f),
                Table::Num(static_cast<double>(o.recovery) / kMillisecond, 2),
                Table::Num(o.dip_gbps, 2), Table::Num(o.steady_gbps, 2),
                o.transfer_alive ? "yes" : "no"});
    }
  }
  t.Print(std::cout, "Fig.8 — microreboot during bulk transfer, by victim and stack frequency");
  WriteBenchCsv(t, argv0, "fig8_microreboot");
}

}  // namespace
}  // namespace newtos

int main(int, char** argv) {
  newtos::Run(argv[0]);
  return 0;
}
