// Monolithic-baseline tests: same workloads, one core for app + stack.

#include "src/os/monolithic_stack.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/testbed.h"
#include "src/workload/httpd.h"
#include "src/workload/iperf.h"

namespace newtos {
namespace {

TestbedOptions MonoOptions() {
  TestbedOptions opt;
  opt.monolithic = true;
  opt.machine.num_cores = 5;  // only core 0 is used by the SUT
  return opt;
}

TEST(Monolithic, IperfTransmitWorks) {
  Testbed tb(MonoOptions());
  ASSERT_NE(tb.mono(), nullptr);
  ASSERT_EQ(tb.stack(), nullptr);
  SocketApi* api = tb.mono()->CreateApp();

  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();

  tb.sim().RunFor(300 * kMillisecond);
  EXPECT_GT(sink.total_bytes(), 100u * 1024u * 1024u);  // multi-Gbit/s class
}

TEST(Monolithic, HttpServes) {
  Testbed tb(MonoOptions());
  SocketApi* api = tb.mono()->CreateApp();
  HttpParams hp;
  hp.concurrency = 4;
  HttpServerApp server(api, hp);
  server.Start();
  tb.sim().RunFor(1 * kMillisecond);
  HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
  client.Start();
  tb.sim().RunFor(200 * kMillisecond);
  EXPECT_GT(client.responses(), 500u);
}

TEST(Monolithic, AppComputeContendsWithStackWork) {
  // With heavy per-request compute, the shared core must serve fewer
  // requests than the multiserver layout where the app core is dedicated.
  HttpParams hp;
  hp.concurrency = 16;
  hp.server_compute_cycles = 200'000;  // heavy dynamic content

  uint64_t mono_responses = 0;
  {
    Testbed tb(MonoOptions());
    SocketApi* api = tb.mono()->CreateApp();
    HttpServerApp server(api, hp);
    server.Start();
    tb.sim().RunFor(1 * kMillisecond);
    HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
    client.Start();
    tb.sim().RunFor(400 * kMillisecond);
    mono_responses = client.responses();
  }

  uint64_t multi_responses = 0;
  {
    Testbed tb;  // multiserver default
    SocketApi* api = tb.stack()->CreateApp("httpd", tb.machine().core(0));
    HttpServerApp server(api, hp);
    server.Start();
    tb.sim().RunFor(1 * kMillisecond);
    HttpPeerClient client(&tb.peer(), tb.sut_addr(), hp);
    client.Start();
    tb.sim().RunFor(400 * kMillisecond);
    multi_responses = client.responses();
  }

  EXPECT_GT(mono_responses, 0u);
  EXPECT_GT(multi_responses, mono_responses)
      << "dedicating the app core must win under compute-heavy load";
}

TEST(Monolithic, MultipleAppsShareTheCore) {
  Testbed tb(MonoOptions());
  SocketApi* a1 = tb.mono()->CreateApp();
  SocketApi* a2 = tb.mono()->CreateApp();

  HttpParams hp1;
  hp1.port = 80;
  hp1.concurrency = 2;
  HttpParams hp2;
  hp2.port = 8080;
  hp2.concurrency = 2;
  HttpServerApp s1(a1, hp1);
  HttpServerApp s2(a2, hp2);
  s1.Start();
  s2.Start();
  tb.sim().RunFor(1 * kMillisecond);
  HttpPeerClient c1(&tb.peer(), tb.sut_addr(), hp1);
  HttpPeerClient c2(&tb.peer(), tb.sut_addr(), hp2);
  c1.Start();
  c2.Start();
  tb.sim().RunFor(200 * kMillisecond);
  EXPECT_GT(c1.responses(), 100u);
  EXPECT_GT(c2.responses(), 100u);
}

TEST(Monolithic, PacketCountersAdvance) {
  Testbed tb(MonoOptions());
  SocketApi* api = tb.mono()->CreateApp();
  IperfSender::Params sp;
  sp.dst = tb.peer_addr();
  IperfSender sender(api, sp);
  IperfPeerSink sink(&tb.peer());
  sender.Start();
  tb.sim().RunFor(50 * kMillisecond);
  EXPECT_GT(tb.mono()->packets_in(), 0u);
  EXPECT_GT(tb.mono()->packets_out(), 0u);
}

// Both architectures run one socket table (src/os/socket_table.h), so a
// socket call on a dead handle gets the same answer from either. The
// parameter is TestbedOptions::monolithic.
class SocketSemantics : public ::testing::TestWithParam<bool> {};

TEST_P(SocketSemantics, SendOnClosedHandleAnswersClosed) {
  TestbedOptions opt;
  opt.monolithic = GetParam();
  Testbed tb(opt);
  SocketApi* api = opt.monolithic ? static_cast<SocketApi*>(tb.mono()->CreateApp())
                                  : tb.stack()->CreateApp("app", tb.machine().core(0));

  // The peer closes its half as soon as the connection is up; the app closes
  // its own once established, so the connection is fully closed soon after.
  constexpr uint16_t kPort = 7000;
  TcpHost::AppHooks peer_hooks;
  peer_hooks.on_established = [](TcpConnection* c) { c->CloseSend(); };
  ASSERT_TRUE(tb.peer().tcp().Listen(kPort, peer_hooks, tb.peer().tcp_params()));

  uint64_t handle = 0;
  std::vector<MsgType> events;
  api->SetEventHandler([&](const Msg& m) {
    if (m.handle != handle ||
        (m.type != MsgType::kEvtEstablished && m.type != MsgType::kEvtClosed)) {
      return;
    }
    events.push_back(m.type);
    if (m.type == MsgType::kEvtEstablished) {
      api->Close(handle);
    } else if (events.size() == 2) {
      api->Send(handle, 1000);  // the connection is gone: must be answered
    }
  });
  handle = api->Connect(tb.peer_addr(), kPort);
  tb.sim().RunFor(50 * kMillisecond);

  EXPECT_EQ(events, (std::vector<MsgType>{MsgType::kEvtEstablished, MsgType::kEvtClosed,
                                          MsgType::kEvtClosed}));
}

std::string ArchName(const ::testing::TestParamInfo<bool>& p) {
  return p.param ? "monolithic" : "multiserver";
}

INSTANTIATE_TEST_SUITE_P(Architectures, SocketSemantics, ::testing::Bool(), ArchName);

}  // namespace
}  // namespace newtos
