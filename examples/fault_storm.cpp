// Fault storm: a bulk transfer over slow stack cores rides out a randomized
// barrage of faults.
//
//   $ ./fault_storm
//
// The stack stages run at 1.2 GHz (the paper's "slower is fine" operating
// point) while the app core stays at 3.6 GHz. A seeded FaultPlan then throws
// the whole taxonomy at the stack at once: channel message drops and
// duplicates on the IP rings, wire bit flips on both NICs, and a hang, a
// livelock, and a crash staggered across the driver, IP, and TCP servers.
// The watchdog's heartbeats detect each silent server and escalate to the
// microreboot manager; checksum verification discards every corrupted
// packet before it can reach a socket.
//
// The printed log shows each injection, each watchdog detection, and each
// recovery incident — and the transfer's goodput before, during, and after
// the storm, with the verdict those numbers give: the transfer survived if
// every incident recovered, TCP accepted no corrupt segment, and the goodput
// after the storm is above half the calm goodput. Same binary, same output,
// every run: the storm is a pure function of the seed.
//
// The exit code is 0 whatever the verdict while the TCP recovery stall after
// a timeout (ROADMAP item 2) is open: at this seed the connection sits in RTO
// backoff after the storm, and each RTO retires a single hole.
//
// The storm second is also recorded with the tracing subsystem and exported
// to trace_fault_storm.json — load it at https://ui.perfetto.dev to see the
// hang/livelock/crash outages as async spans on the "recovery" track, the
// heartbeat traffic on the watchdog track, and the retransmission bursts
// that refill the pipeline after each microreboot.

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
  MultiserverStack* stack = tb.stack();

  // Slow stack plane, fast app plane.
  DedicatedSlowPlan(*stack, 1'200'000 * kKhz, 3'600'000 * kKhz).Apply(tb.machine());
  stack->tcp()->set_checkpointing(true);

  // Recovery plane: heartbeat watchdog on the app core, every stage watched.
  MicrorebootManager mgr(&tb.sim());
  WatchdogServer::Params wd;
  WatchdogServer watchdog(&tb.sim(), &mgr, wd);
  watchdog.BindCore(tb.machine().core(kWatchdogCore));
  for (Server* s : stack->SystemServers()) {
    watchdog.Watch(s, stack->RestartCycles(s));
  }

  // Tracing: the stack tracer wires every stage; the watchdog joins after
  // its Watch() calls (so its input rings exist) and the microreboot manager
  // routes outage windows onto the "recovery" track.
  StackTracer tracer(&tb.sim(), stack);
  tracer.AddServer(&watchdog);
  tracer.AddMicroreboot(&mgr);

  // The storm: background channel/wire noise plus three staggered
  // server-level faults, all from one seed.
  FaultPlan plan;
  plan.seed = 2013;
  FaultSpec s;
  s.cls = FaultClass::kChanDrop;
  s.target = "ip";
  s.probability = 0.002;
  plan.faults.push_back(s);
  s = FaultSpec();
  s.cls = FaultClass::kChanDuplicate;
  s.target = "ip";
  s.probability = 0.002;
  plan.faults.push_back(s);
  s = FaultSpec();
  s.cls = FaultClass::kWireBitFlip;
  s.probability = 0.0002;
  plan.faults.push_back(s);
  s = FaultSpec();
  s.cls = FaultClass::kServerHang;
  s.target = "ip";
  s.at = 300 * kMillisecond;
  plan.faults.push_back(s);
  s = FaultSpec();
  s.cls = FaultClass::kServerLivelock;
  s.target = "driver";
  s.at = 500 * kMillisecond;
  plan.faults.push_back(s);
  s = FaultSpec();
  s.cls = FaultClass::kServerCrash;
  s.target = "tcp";
  s.at = 700 * kMillisecond;
  plan.faults.push_back(s);

  FaultInjector injector(&tb.sim(), std::move(plan));
  injector.Arm(stack);
  injector.ArmWire(tb.machine().nic());
  injector.ArmWire(tb.peer().nic());

  // Workload: bulk iperf into the peer sink.
  SocketApi* api = stack->CreateApp("iperf", tb.machine().core(0));
  IperfSender::Params params;
  params.dst = tb.peer_addr();
  IperfSender sender(api, params);
  IperfPeerSink sink(&tb.peer());

  watchdog.Start();
  sender.Start();
  tb.sim().RunFor(200 * kMillisecond);

  std::printf("stack cores at 1.2 GHz, app core at 3.6 GHz\n\n");
  const double calm = WindowGbps(sink, tb, 100 * kMillisecond);
  std::printf("calm before the storm:  %5.2f Gbit/s\n", calm);
  tracer.Enable();
  std::printf("storm second:           %5.2f Gbit/s\n", WindowGbps(sink, tb, kSecond));
  tracer.Disable();
  const double after = WindowGbps(sink, tb, 200 * kMillisecond);
  std::printf("after the storm:        %5.2f Gbit/s\n", after);

  std::printf("\ninjections (server-level):\n");
  for (const auto& line : injector.injections()) {
    std::printf("  %s\n", line.c_str());
  }
  const auto& ctr = injector.counters();
  std::printf("background noise: %llu drops, %llu dups, %llu wire flips\n",
              static_cast<unsigned long long>(ctr.chan_drops),
              static_cast<unsigned long long>(ctr.chan_dups),
              static_cast<unsigned long long>(ctr.wire_flips));

  std::printf("\nwatchdog detections (deadline %s):\n",
              FormatTime(watchdog.DetectionDeadline()).c_str());
  for (const auto& d : watchdog.detections()) {
    std::printf("  %-7s silent since %-10s escalated at %s\n", d.server.c_str(),
                FormatTime(d.last_ack).c_str(), FormatTime(d.detected_at).c_str());
  }

  std::printf("\nrecovery incidents:\n");
  bool all_recovered = !mgr.incidents().empty();
  for (const auto& inc : mgr.incidents()) {
    all_recovered = all_recovered && inc.recovered_at != 0;
    std::printf("  %-7s down at %-10s recovered +%s\n", inc.server.c_str(),
                FormatTime(inc.crashed_at).c_str(), FormatTime(inc.RecoveryTime()).c_str());
  }

  uint64_t corrupt_accepted = 0;
  for (TcpConnection* c : stack->tcp()->host().Connections()) {
    corrupt_accepted += c->stats().corrupt_segments_accepted;
  }
  for (TcpConnection* c : tb.peer().tcp().Connections()) {
    corrupt_accepted += c->stats().corrupt_segments_accepted;
  }
  std::printf("\ncorrupt segments accepted by TCP: %llu (checksums dropped the rest)\n",
              static_cast<unsigned long long>(corrupt_accepted));
  if (tracer.ExportChromeTrace("trace_fault_storm.json")) {
    std::printf("\nwrote trace_fault_storm.json (last %llu of %llu events; "
                "load in https://ui.perfetto.dev)\n",
                static_cast<unsigned long long>(tracer.recorder().size()),
                static_cast<unsigned long long>(tracer.recorder().recorded()));
  } else {
    std::fprintf(stderr, "\nfailed to write trace_fault_storm.json\n");
  }

  if (all_recovered && corrupt_accepted == 0 && after > 0.5 * calm) {
    std::printf("\nThe transfer survived the storm: every hung or crashed server was\n"
                "detected by heartbeat silence and microrebooted; retransmission\n"
                "papered over the drops, flips, and the recovery gaps.\n");
  } else {
    std::printf("\nThe transfer did not survive the storm: %.2f Gbit/s after it against\n"
                "%.2f Gbit/s calm, %s, %llu corrupt segments accepted.\n",
                after, calm,
                all_recovered ? "every incident recovered" : "an incident did not recover",
                static_cast<unsigned long long>(corrupt_accepted));
  }
  return 0;
}
