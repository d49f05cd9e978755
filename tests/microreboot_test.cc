// Crash/microreboot experiments: the reliability story survives slow cores.

#include "src/os/microreboot.h"

#include <gtest/gtest.h>

#include "src/core/steering.h"
#include "src/core/testbed.h"
#include "src/workload/iperf.h"

namespace newtos {
namespace {

struct RunningIperf {
  explicit RunningIperf(Testbed& tb)
      : api(tb.stack()->CreateApp("iperf", tb.machine().core(0))),
        sender(api,
               [&tb] {
                 IperfSender::Params p;
                 p.dst = tb.peer_addr();
                 return p;
               }()),
        sink(&tb.peer()) {
    sender.Start();
  }
  SocketApi* api;
  IperfSender sender;
  IperfPeerSink sink;
};

// Each system server reboots at the cost its own StackConfig block names,
// every TCP shard included. Distinct costs make a swapped mapping visible.
TEST(Microreboot, RestartCyclesComeFromEachServersCostBlock) {
  TestbedOptions options;
  StackConfig& cfg = options.stack;
  cfg.use_pf = true;
  cfg.tcp_shards = 2;  // implies the syscall gateway
  cfg.driver.restart_cycles = 1;
  cfg.ip.restart_cycles = 2;
  cfg.pf.restart_cycles = 3;
  cfg.tcp.restart_cycles = 4;
  cfg.udp.restart_cycles = 5;
  cfg.syscall.restart_cycles = 6;
  Testbed tb(options);
  MultiserverStack* stack = tb.stack();
  ASSERT_NE(stack->syscall(), nullptr);

  EXPECT_EQ(stack->RestartCycles(stack->driver()), 1);
  EXPECT_EQ(stack->RestartCycles(stack->ip()), 2);
  EXPECT_EQ(stack->RestartCycles(stack->pf()), 3);
  EXPECT_EQ(stack->RestartCycles(stack->tcp_shard(0)), 4);
  EXPECT_EQ(stack->RestartCycles(stack->tcp_shard(1)), 4);
  EXPECT_EQ(stack->RestartCycles(stack->udp()), 5);
  EXPECT_EQ(stack->RestartCycles(stack->syscall()), 6);
  EXPECT_EQ(stack->SystemServers().size(), 7u);
}

TEST(Microreboot, IpServerCrashRecoversTransparently) {
  Testbed tb;
  RunningIperf load(tb);
  tb.sim().RunFor(100 * kMillisecond);
  const uint64_t before = load.sink.total_bytes();
  ASSERT_GT(before, 0u);

  MicrorebootManager mgr(&tb.sim());
  mgr.InjectCrash(tb.stack()->ip(), tb.sim().Now() + 10 * kMillisecond,
                  tb.stack()->config().ip.restart_cycles);
  tb.sim().RunFor(2 * kSecond);

  EXPECT_TRUE(mgr.AllRecovered());
  EXPECT_FALSE(tb.stack()->ip()->crashed());
  // Traffic resumed after the incident: clearly more bytes flowed.
  EXPECT_GT(load.sink.total_bytes(), before + 50'000'000u);
}

TEST(Microreboot, DriverCrashRecovers) {
  Testbed tb;
  RunningIperf load(tb);
  tb.sim().RunFor(100 * kMillisecond);

  MicrorebootManager mgr(&tb.sim());
  mgr.InjectCrash(tb.stack()->driver(), tb.sim().Now() + kMillisecond,
                  tb.stack()->config().driver.restart_cycles);
  tb.sim().RunFor(2 * kSecond);

  EXPECT_TRUE(mgr.AllRecovered());
  const auto& inc = mgr.incidents()[0];
  EXPECT_GT(inc.detected_at, inc.crashed_at);
  EXPECT_GT(inc.recovered_at, inc.detected_at);
}

TEST(Microreboot, TcpCrashWithoutCheckpointKillsConnections) {
  Testbed tb;
  RunningIperf load(tb);
  tb.sim().RunFor(100 * kMillisecond);
  ASSERT_EQ(tb.stack()->tcp()->host().connection_count(), 1u);

  MicrorebootManager mgr(&tb.sim());
  mgr.InjectCrash(tb.stack()->tcp(), tb.sim().Now() + kMillisecond,
                  tb.stack()->config().tcp.restart_cycles);
  tb.sim().RunFor(3 * kSecond);

  EXPECT_TRUE(mgr.AllRecovered());
  // Cold recovery: the connection table was lost.
  EXPECT_EQ(tb.stack()->tcp()->host().connection_count(), 0u);
}

TEST(Microreboot, TcpCrashWithCheckpointResumesTransfer) {
  Testbed tb;
  tb.stack()->tcp()->set_checkpointing(true);
  RunningIperf load(tb);
  tb.sim().RunFor(100 * kMillisecond);
  const uint64_t before = load.sink.total_bytes();

  MicrorebootManager mgr(&tb.sim());
  mgr.InjectCrash(tb.stack()->tcp(), tb.sim().Now() + kMillisecond,
                  tb.stack()->config().tcp.restart_cycles);
  tb.sim().RunFor(3 * kSecond);

  EXPECT_TRUE(mgr.AllRecovered());
  EXPECT_EQ(tb.stack()->tcp()->host().connection_count(), 1u);
  EXPECT_GT(load.sink.total_bytes(), before + 50'000'000u)
      << "the checkpointed connection must keep moving data after recovery";
}

TEST(Microreboot, SlowerCoreRebootsProportionallySlower) {
  auto recovery_time = [](FreqKhz stack_freq) {
    Testbed tb;
    SteeringPlan plan = DedicatedSlowPlan(*tb.stack(), stack_freq, 3'600'000 * kKhz);
    plan.Apply(tb.machine());
    RunningIperf load(tb);
    tb.sim().RunFor(50 * kMillisecond);
    MicrorebootManager mgr(&tb.sim());
    mgr.InjectCrash(tb.stack()->ip(), tb.sim().Now() + kMillisecond,
                    tb.stack()->config().ip.restart_cycles);
    tb.sim().RunFor(2 * kSecond);
    EXPECT_TRUE(mgr.AllRecovered());
    return mgr.incidents()[0].RecoveryTime();
  };
  const SimTime fast = recovery_time(3'600'000 * kKhz);
  const SimTime slow = recovery_time(1'200'000 * kKhz);
  EXPECT_GT(slow, fast);
  // Reboot cycles scale 3x, but detection latency is constant, so total
  // recovery grows by less than 3x — the paper's point that slow cores do
  // not meaningfully hurt recovery.
  EXPECT_LT(static_cast<double>(slow), 3.0 * static_cast<double>(fast));
}

TEST(Microreboot, IncidentsRecordTimeline) {
  Testbed tb;
  MicrorebootManager mgr(&tb.sim());
  mgr.set_detection_latency(500 * kMicrosecond);
  mgr.InjectCrash(tb.stack()->udp(), 10 * kMillisecond, 1'000'000);
  tb.sim().RunFor(kSecond);
  ASSERT_EQ(mgr.incidents().size(), 1u);
  const auto& inc = mgr.incidents()[0];
  EXPECT_EQ(inc.server, "udp");
  EXPECT_EQ(inc.crashed_at, 10 * kMillisecond);
  EXPECT_EQ(inc.detected_at, inc.crashed_at + 500 * kMicrosecond);
  EXPECT_GT(inc.recovered_at, inc.detected_at);
}

TEST(Microreboot, RepeatedCrashesAllRecover) {
  Testbed tb;
  RunningIperf load(tb);
  MicrorebootManager mgr(&tb.sim());
  for (int i = 1; i <= 3; ++i) {
    mgr.InjectCrash(tb.stack()->ip(), i * 200 * kMillisecond,
                    tb.stack()->config().ip.restart_cycles);
  }
  tb.sim().RunFor(2 * kSecond);
  EXPECT_TRUE(mgr.AllRecovered());
  EXPECT_EQ(mgr.incidents().size(), 3u);
}

}  // namespace
}  // namespace newtos
