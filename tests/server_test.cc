// Server base-class behaviour via a minimal concrete subclass.

#include "src/os/server.h"

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/hw/cpu.h"
#include "src/sim/ring_deque.h"
#include "src/sim/simulation.h"

namespace newtos {
namespace {

class RecordingServer : public Server {
 public:
  RecordingServer(Simulation* sim, Cycles cost) : Server(sim, "rec"), cost_(cost) {
    in_a_ = CreateInput("a", 16);
    in_b_ = CreateInput("b", 16);
  }

  Chan* in_a() { return in_a_; }
  Chan* in_b() { return in_b_; }
  void set_forward(Chan* out) { out_ = out; }

  std::vector<uint64_t> handled;
  std::vector<SimTime> handled_at;

 protected:
  Cycles CostFor(const Msg&) override { return cost_; }
  void Handle(const Msg& msg) override {
    handled.push_back(msg.value);
    handled_at.push_back(sim()->Now());
    if (out_ != nullptr) {
      Emit(out_, msg);
    }
  }

 private:
  Cycles cost_;
  Chan* in_a_ = nullptr;
  Chan* in_b_ = nullptr;
  Chan* out_ = nullptr;
};

// One channel source plus one internal-queue source (the shape of the TCP
// and UDP servers' pending_tx_/pending_evt_ sources).
class MixedSourceServer : public Server {
 public:
  explicit MixedSourceServer(Simulation* sim) : Server(sim, "mixed") {
    in_ = CreateInput("in", 16);
    AddWorkSource(WorkSource{
        .has_work = [this] { return !queue_.empty(); },
        .take =
            [this] {
              Msg m = std::move(queue_.front());
              queue_.pop_front();
              return m;
            },
    });
  }

  Chan* in() { return in_; }
  void Enqueue(Msg m) {
    queue_.push_back(std::move(m));
    MaybeSchedule();
  }

  std::vector<uint64_t> handled;

 protected:
  Cycles CostFor(const Msg&) override { return 100; }
  void Handle(const Msg& msg) override { handled.push_back(msg.value); }

 private:
  Chan* in_ = nullptr;
  RingDeque<Msg> queue_;
};

// The sources' own captures are what WorkFn accepts; anything bigger or
// owning is rejected (tests/compile_fail/work_fn.cc proves the static_assert).
struct TwoPointers {
  void* a;
  void* b;
  bool operator()() const { return a != b; }
};
struct ThreePointers {
  void* a;
  void* b;
  void* c;
  bool operator()() const { return a != nullptr; }
};
struct OwnsAString {
  std::string s;
  bool operator()() const { return s.empty(); }
};
static_assert(WorkFn<bool>::kFits<Server*>);
static_assert(WorkFn<bool>::kFits<TwoPointers>);
static_assert(!WorkFn<bool>::kFits<ThreePointers>);
static_assert(!WorkFn<bool>::kFits<OwnsAString>);
static_assert(std::is_trivially_copyable_v<Server::WorkSource>);

Msg V(uint64_t v) {
  Msg m;
  m.type = MsgType::kEvtData;
  m.value = v;
  return m;
}

class ServerTest : public ::testing::Test {
 protected:
  Simulation sim_;
  PowerModel pm_;
  Core core_{&sim_, 0, "cpu", BigCoreOperatingPoints(), &pm_};
};

TEST_F(ServerTest, ProcessesMessagesChargingCycles) {
  core_.set_dvfs_transition_latency(0);
  core_.SetFrequency(1'000'000 * kKhz);  // snaps to 800 MHz
  RecordingServer s(&sim_, 800);         // 1 us per message at 800 MHz
  s.BindCore(&core_);
  s.set_source_batch_limit(1);           // measure per-message spacing
  s.in_a()->Push(V(1));
  s.in_a()->Push(V(2));
  sim_.Run();
  ASSERT_EQ(s.handled.size(), 2u);
  // dequeue overhead (100 cycles) + handler (800) = 900 cycles = 1.125us each.
  EXPECT_EQ(s.handled_at[1] - s.handled_at[0], 1125 * kNanosecond);
}

TEST_F(ServerTest, RoundRobinAcrossInputsWithBatchLimitOne) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  s.set_source_batch_limit(1);
  for (int i = 0; i < 3; ++i) {
    s.in_a()->Push(V(10 + i));
    s.in_b()->Push(V(20 + i));
  }
  sim_.Run();
  ASSERT_EQ(s.handled.size(), 6u);
  // Strict alternation between the two sources.
  EXPECT_EQ(s.handled, (std::vector<uint64_t>{10, 20, 11, 21, 12, 22}));
}

TEST_F(ServerTest, ChannelAndQueueSourcesKeepRoundRobinOrder) {
  MixedSourceServer s(&sim_);
  s.BindCore(&core_);
  s.set_source_batch_limit(1);
  for (int i = 0; i < 3; ++i) {
    s.in()->Push(V(10 + i));
    s.Enqueue(V(20 + i));
  }
  sim_.Run();
  // The channel registered first, so it leads; then strict alternation.
  EXPECT_EQ(s.handled, (std::vector<uint64_t>{10, 20, 11, 21, 12, 22}));
  EXPECT_TRUE(s.Idle());
}

TEST_F(ServerTest, BurstSchedulingDrainsOneSourceFirst) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  ASSERT_GE(s.source_batch_limit(), 3);  // default bursts
  for (int i = 0; i < 3; ++i) {
    s.in_a()->Push(V(10 + i));
    s.in_b()->Push(V(20 + i));
  }
  sim_.Run();
  ASSERT_EQ(s.handled.size(), 6u);
  // The whole backlog of source a drains before b runs.
  EXPECT_EQ(s.handled, (std::vector<uint64_t>{10, 11, 12, 20, 21, 22}));
}

TEST_F(ServerTest, BurstLimitBoundsConsecutiveDrains) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  s.set_source_batch_limit(2);
  for (int i = 0; i < 4; ++i) {
    s.in_a()->Push(V(10 + i));
  }
  s.in_b()->Push(V(20));
  sim_.Run();
  ASSERT_EQ(s.handled.size(), 5u);
  // Two from a, then b gets its turn, then the rest of a.
  EXPECT_EQ(s.handled, (std::vector<uint64_t>{10, 11, 20, 12, 13}));
}

TEST_F(ServerTest, CrashDropsQueuedMessages) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  s.in_a()->Push(V(1));
  sim_.Run();
  s.in_a()->Push(V(2));
  s.in_a()->Push(V(3));
  s.Crash();
  sim_.Run();
  EXPECT_EQ(s.handled.size(), 1u);
  EXPECT_EQ(s.messages_lost_to_crash(), 2u);
  EXPECT_TRUE(s.crashed());
}

TEST_F(ServerTest, CrashMidExecutionInvalidatesInFlightWork) {
  RecordingServer s(&sim_, 1'000'000);  // long-running message
  s.BindCore(&core_);
  s.in_a()->Push(V(1));
  sim_.RunFor(10 * kMicrosecond);  // work started but not finished
  s.Crash();
  sim_.Run();
  EXPECT_TRUE(s.handled.empty());  // the generation guard dropped it
}

TEST_F(ServerTest, RestartResumesProcessing) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  s.Crash();
  s.Restart(1000);
  sim_.Run();
  EXPECT_FALSE(s.crashed());
  s.in_a()->Push(V(9));
  sim_.Run();
  ASSERT_EQ(s.handled.size(), 1u);
  EXPECT_EQ(s.handled[0], 9u);
}

TEST_F(ServerTest, RestartCostDelaysReadiness) {
  core_.set_dvfs_transition_latency(0);  // exact-timing test
  core_.SetFrequency(1'000'000 * kKhz);  // 800 MHz
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  s.Crash();
  SimTime ready_at = -1;
  s.Restart(800'000, [&] { ready_at = sim_.Now(); });  // 1 ms reboot
  sim_.Run();
  EXPECT_EQ(ready_at, kMillisecond);
}

TEST_F(ServerTest, MessagesArrivingWhileCrashedWaitForRestart) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  s.Crash();
  s.in_a()->Push(V(5));  // lands in the (fresh) input queue
  sim_.Run();
  EXPECT_TRUE(s.handled.empty());
  s.Restart(100);
  sim_.Run();
  ASSERT_EQ(s.handled.size(), 1u);
}

TEST_F(ServerTest, IdleObserverSeesTransitions) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  std::vector<bool> transitions;
  s.SetIdleObserver([&](bool idle) { transitions.push_back(idle); });
  s.in_a()->Push(V(1));
  sim_.Run();
  // Busy (false) then idle (true) again.
  ASSERT_GE(transitions.size(), 2u);
  EXPECT_FALSE(transitions.front());
  EXPECT_TRUE(transitions.back());
  EXPECT_TRUE(s.Idle());
}

TEST_F(ServerTest, ForwardingBetweenServersWorks) {
  Core core2(&sim_, 1, "cpu1", BigCoreOperatingPoints(), &pm_);
  RecordingServer first(&sim_, 100);
  RecordingServer second(&sim_, 100);
  first.BindCore(&core_);
  second.BindCore(&core2);
  first.set_forward(second.in_a());
  for (int i = 0; i < 5; ++i) {
    first.in_a()->Push(V(i));
  }
  sim_.Run();
  EXPECT_EQ(first.handled.size(), 5u);
  EXPECT_EQ(second.handled.size(), 5u);
  EXPECT_EQ(second.handled, (std::vector<uint64_t>{0, 1, 2, 3, 4}));
}

TEST_F(ServerTest, TwoServersShareOneCoreSerially) {
  RecordingServer s1(&sim_, 100'000);
  RecordingServer s2(&sim_, 100'000);
  s1.BindCore(&core_);
  s2.BindCore(&core_);
  s1.in_a()->Push(V(1));
  s2.in_a()->Push(V(2));
  sim_.Run();
  ASSERT_EQ(s1.handled.size(), 1u);
  ASSERT_EQ(s2.handled.size(), 1u);
  // Their work items cannot overlap on the shared core.
  EXPECT_NE(s1.handled_at[0], s2.handled_at[0]);
}

TEST_F(ServerTest, TenantSwitchPenaltyChargedOnAlternation) {
  core_.set_dvfs_transition_latency(0);
  core_.SetFrequency(1'000'000 * kKhz);  // 800 MHz
  RecordingServer s1(&sim_, 800);
  RecordingServer s2(&sim_, 800);
  s1.BindCore(&core_);
  s2.BindCore(&core_);
  s1.set_tenant_switch_cycles(400);
  s2.set_tenant_switch_cycles(400);
  s1.in_a()->Push(V(1));
  s2.in_a()->Push(V(2));
  sim_.Run();
  // First message: no previous tenant -> no penalty. Second: s2 follows s1.
  EXPECT_EQ(core_.tenant_switches(), 1u);
  // Per-message base cost = 100 dequeue + 800 work = 900 cycles; the second
  // adds 400 penalty cycles. All serialized on the one core.
  EXPECT_EQ(core_.busy_cycles(), 900 + 900 + 400);
}

TEST_F(ServerTest, SoleTenantNeverPaysSwitchPenalty) {
  RecordingServer s(&sim_, 100);
  s.BindCore(&core_);
  for (int i = 0; i < 10; ++i) {
    s.in_a()->Push(V(i));
  }
  sim_.Run();
  EXPECT_EQ(core_.tenant_switches(), 0u);
}

TEST_F(ServerTest, MessagesProcessedCounter) {
  RecordingServer s(&sim_, 10);
  s.BindCore(&core_);
  for (int i = 0; i < 7; ++i) {
    s.in_a()->Push(V(i));
  }
  sim_.Run();
  EXPECT_EQ(s.messages_processed(), 7u);
}

}  // namespace
}  // namespace newtos
