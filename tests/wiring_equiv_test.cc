// The ring tables and the wiring the checkers observe.
//
// WiringTable checks the two tables themselves — src/os/stack_wiring.h for
// the DES stack, src/runtime/live_wiring.h for the live one — for SPSC
// discipline, and pins the check's report on a small synthetic table. WiringEquiv runs every DES configuration under its
// own ChannelChecker and both live flavours, and compares the observed
// wiring with that configuration's rendered table.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/check/channel_checker.h"
#include "src/check/stack_check.h"
#include "src/core/testbed.h"
#include "src/fault/watchdog.h"
#include "src/os/message.h"
#include "src/os/microreboot.h"
#include "src/os/stack_wiring.h"
#include "src/runtime/live_stack.h"
#include "src/workload/iperf.h"
#include "src/workload/udp_flood.h"

namespace newtos {
namespace {

StackConfig Configuration(bool use_pf, bool gateway) {
  StackConfig config;
  config.use_pf = use_pf;
  config.use_syscall_gateway = gateway;
  return config;
}

WiredRing Ring(std::string name, std::string consumer, std::vector<std::string> producers,
               const char* shared = nullptr) {
  WiredRing r;
  r.name = std::move(name);
  r.consumers = {std::move(consumer)};
  r.producers = std::move(producers);
  r.shared_reason = shared;
  return r;
}

bool HasRing(const std::vector<WiredRing>& rings, const std::string& name) {
  for (const WiredRing& r : rings) {
    if (r.name == name) {
      return true;
    }
  }
  return false;
}

TEST(WiringTable, StackTablesAreSpsc) {
  std::vector<std::vector<WiredRing>> des;
  for (const bool use_pf : {false, true}) {
    for (const bool gateway : {false, true}) {
      des.push_back(StackRings(Configuration(use_pf, gateway)));
      EXPECT_TRUE(CheckSpsc(des.back()).empty())
          << "pf=" << use_pf << " gateway=" << gateway << ": " << CheckSpsc(des.back())[0];
    }
  }
  for (const bool mini : {false, true}) {
    const std::vector<WiredRing> live = LiveRings(mini);
    EXPECT_TRUE(CheckSpsc(live).empty()) << CheckSpsc(live)[0];
  }
  // Every shared reason names a ring some configuration builds.
  for (const StackSharedRing& s : kStackSharedRings) {
    bool found = false;
    for (const auto& rings : des) {
      found = found || HasRing(rings, s.name);
    }
    EXPECT_TRUE(found) << "shared reason for a ring no configuration builds: " << s.name;
  }
}

TEST(WiringTable, SecondProducerWithoutReasonFiresOnce) {
  const std::vector<std::string> report = CheckSpsc(
      {Ring("rx/data", "sink", {"alpha", "beta"}), Ring("tx/data", "beta", {"sink"})});
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0],
            "ring 'rx/data' has 2 producing roles {alpha,beta} (consumer: sink) and no "
            "shared-by-design reason");
}

TEST(WiringTable, SharedRingWithReasonPasses) {
  EXPECT_TRUE(
      CheckSpsc({Ring("mux/shared", "mux", {"left", "right"}, "left and right both feed the mux")})
          .empty());
}

TEST(WiringTable, CleanTableRendersCanonically) {
  const std::vector<WiredRing> mini = LiveRings(/*mini=*/true);
  EXPECT_TRUE(CheckSpsc(mini).empty());
  EXPECT_EQ(RenderWiring(mini),
            "ring app/peer consumer=peer producers=app\n"
            "ring app/tcp consumer=tcp producers=app\n"
            "ring peer/tcp consumer=tcp producers=peer\n"
            "ring tcp/peer consumer=peer producers=tcp\n");
}

// One DES configuration under watch, through its own checker. The watchdog
// heartbeats every system server, and one outbound UDP datagram makes udp
// push ip/tx, so every row the configuration holds sees traffic. The checker
// is declared first so it outlives every channel that reports to it.
void ExpectDesMatchesTable(bool use_pf, bool gateway) {
  ChannelChecker check;
  TestbedOptions opts;
  opts.stack = Configuration(use_pf, gateway);
  Testbed tb(opts);
  SocketApi* api = tb.stack()->CreateApp("app", tb.machine().core(0));
  MicrorebootManager mgr(&tb.sim());
  WatchdogServer watchdog(&tb.sim(), &mgr, WatchdogServer::Params());
  watchdog.BindCore(tb.machine().core(kWatchdogCore));
  for (Server* s : tb.stack()->SystemServers()) {
    watchdog.Watch(s, 1'000'000);  // Watch() before Attach(): wd rings must exist
  }
  watchdog.Start();

  StackChecker wiring(&check);
  wiring.Attach(tb.stack());
  wiring.AttachServer(&watchdog);

  // Workloads start only after Attach: BindDirect pushes its bind request
  // into udp/app synchronously, and a pre-attach push would make the
  // server's pop look like pop-before-push to the checker.
  IperfSender::Params params;
  params.dst = tb.peer_addr();
  IperfSender sender(api, params);
  IperfPeerSink sink(&tb.peer());
  sender.Start();

  UdpSutSink udp_sink;
  udp_sink.BindDirect(tb.stack()->udp(), kUdpFloodPort);
  UdpPeerFlood::Params fp;
  fp.sut = tb.sut_addr();
  fp.packets_per_sec = 20'000;
  UdpPeerFlood flood(&tb.peer(), fp);
  flood.Start();

  // The direct anonymous push into udp/app is unrecorded (actor 0), as the
  // table's producer-less udp/app row says.
  Msg send;
  send.type = MsgType::kSockSend;
  send.addr = tb.peer_addr();
  send.port = kUdpFloodPort;
  send.value = 64;
  tb.stack()->udp()->app_in()->Push(send);

  tb.sim().RunFor(200 * kMillisecond);
  EXPECT_GT(sink.total_bytes(), 0u);
  EXPECT_GT(udp_sink.received(), 0u);
  std::ostringstream report;
  check.Report(report);
  EXPECT_TRUE(check.ok()) << report.str();
  EXPECT_EQ(RenderWiring(check.Wiring()), RenderWiring(StackRings(tb.stack()->config())));
}

TEST(WiringEquiv, DesPfGatewayMatchesTable) { ExpectDesMatchesTable(true, true); }
TEST(WiringEquiv, DesPfDirectMatchesTable) { ExpectDesMatchesTable(true, false); }
TEST(WiringEquiv, DesNoPfGatewayMatchesTable) { ExpectDesMatchesTable(false, true); }
TEST(WiringEquiv, DesNoPfDirectMatchesTable) { ExpectDesMatchesTable(false, false); }

TEST(WiringEquiv, LiveFullStackMatchesStaticTable) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = 2 * 1024 * 1024;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_FALSE(r.wiring.empty());
  // The wd rings only show up as wired once real heartbeat traffic flowed.
  EXPECT_GE(r.heartbeat_rounds, 1u);
  EXPECT_EQ(r.wiring, RenderWiring(LiveRings(/*mini=*/false)));
}

TEST(WiringEquiv, LiveMiniStackMatchesStaticTable) {
  LiveStackConfig cfg;
  cfg.mini = true;
  cfg.transfer_bytes = 1024 * 1024;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_FALSE(r.wiring.empty());
  EXPECT_EQ(r.wiring, RenderWiring(LiveRings(/*mini=*/true)));
}

}  // namespace
}  // namespace newtos
