// Tests for the real-thread runtime backend (src/runtime).
//
// The headline assertion is the ISSUE's acceptance criterion: the fig2-small
// bulk transfer produces a byte-identical application stream — equal
// delivered bytes, equal chunk count, equal StreamIntegrityChecker digest —
// in the DES and live backends. The digests are computed dynamically in the
// same binary (no hardcoded goldens): the DES run is the oracle, verified
// loss-free via its retransmit tripwire, and the live run must match it.
// Counters and timings legitimately differ; bytes may not.

#include "src/runtime/live_stack.h"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>

#include "src/check/channel_checker.h"
#include "src/host/affinity.h"
#include "src/runtime/clock.h"
#include "src/runtime/engine.h"
#include "src/runtime/fig2_ref.h"
#include "src/runtime/thread_channel.h"

namespace newtos {
namespace {

// fig2-small: big enough for hundreds of segments and real window cycling,
// small enough to run in milliseconds on a 1-core CI container.
constexpr uint64_t kTransfer = 1 << 20;  // 1 MiB

// --- Engine: spawn / pin / fallback ---

TEST(RuntimeEngine, SpawnsRunsAndJoins) {
  RuntimeEngine engine;
  std::atomic<int> ran{0};
  engine.Add("a", -1, [&ran](ServerContext&) { ran.fetch_add(1); });
  engine.Add("b", -1, [&ran](ServerContext&) { ran.fetch_add(1); });
  engine.Start();
  engine.Join();
  EXPECT_EQ(ran.load(), 2);
  const auto stats = engine.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].name, "a");
  EXPECT_FALSE(stats[0].pinned);  // pinning was not requested
}

TEST(RuntimeEngine, PinsWhenCpuExistsFallsBackWhenNot) {
  const int ncpu = AvailableCpuCount();
  RuntimeEngine engine;
  engine.Add("fits", 0, [](ServerContext&) {});
  // A CPU index beyond the host's range must degrade to unpinned, not fail.
  engine.Add("beyond", ncpu + 7, [](ServerContext&) {});
  engine.Start();
  engine.Join();
  const auto stats = engine.Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].requested_cpu, 0);
  EXPECT_TRUE(stats[0].pinned);  // cpu 0 always exists
  EXPECT_EQ(stats[1].requested_cpu, ncpu + 7);
  EXPECT_FALSE(stats[1].pinned);
}

TEST(RuntimeEngine, RequestStopWakesParkedServer) {
  RuntimeEngine engine;  // default kHaltWhenIdle: the body will park
  engine.Add("sleeper", -1, [](ServerContext& ctx) {
    while (!ctx.StopRequested()) {
      ctx.Idle(false, [] { return false; });
    }
  });
  engine.Start();
  // Give the thread time to burn its spin budget and park.
  SleepNs(20'000'000);
  engine.RequestStop();
  engine.Join();  // would hang forever if the gate lost the wake
  const auto stats = engine.Stats();
  EXPECT_GT(stats[0].parks, 0u);
}

TEST(RuntimePoll, PollAlwaysNeverParks) {
  RuntimePollPolicy poll;
  poll.mode = PollMode::kPollAlways;
  RuntimeEngine engine(poll);
  engine.Add("spinner", -1, [](ServerContext& ctx) {
    for (int i = 0; i < 100000; ++i) {
      ctx.Idle(false, [] { return false; });
    }
  });
  engine.Start();
  engine.Join();
  EXPECT_EQ(engine.Stats()[0].parks, 0u);
}

// --- ThreadChannel ---

TEST(ThreadChannel, CountsAndNotifiesAcrossThreads) {
  ThreadChannel<int> chan("t", 64);
  IdleGate consumer_gate;
  chan.BindConsumerGate(&consumer_gate);
  constexpr int kN = 100000;
  std::atomic<long long> sum{0};
  std::thread consumer([&] {
    int got = 0;
    while (got < kN) {
      if (const int* v = chan.Front()) {
        sum.fetch_add(*v, std::memory_order_relaxed);
        chan.PopFront();
        ++got;
      } else {
        const uint32_t e = consumer_gate.PrepareWait();
        if (chan.EmptyConsumer()) {
          consumer_gate.Wait(e);
        } else {
          consumer_gate.CancelWait();
        }
      }
    }
  });
  for (int i = 1; i <= kN;) {
    if (chan.TryPush(i)) {
      ++i;
    }
  }
  consumer.join();
  EXPECT_EQ(sum.load(), static_cast<long long>(kN) * (kN + 1) / 2);
  EXPECT_EQ(chan.pushes(), static_cast<uint64_t>(kN));
  EXPECT_EQ(chan.pops(), static_cast<uint64_t>(kN));
  EXPECT_EQ(chan.Residue(), 0u);
  EXPECT_EQ(chan.imposters(), 0u);
}

TEST(ThreadChannel, PushCopiesOnlyOnSuccessAndCountsRetries) {
  struct Copies {
    int* n;
    explicit Copies(int* counter) noexcept : n(counter) {}
    Copies(const Copies& o) noexcept : n(o.n) { ++*n; }
  };
  int copies = 0;
  ThreadChannel<Copies> chan("t", 1);
  const Copies msg(&copies);
  EXPECT_TRUE(chan.TryPush(msg));
  EXPECT_FALSE(chan.TryPush(msg));
  EXPECT_FALSE(chan.TryPush(msg));
  EXPECT_EQ(copies, 1);
  EXPECT_EQ(chan.pushes(), 1u);
  EXPECT_EQ(chan.full_retries(), 2u);
}

TEST(ThreadChannel, PopFrontCountsPopAndRingsProducerGate) {
  ThreadChannel<int> chan("t", 4);
  IdleGate producer_gate;
  chan.BindProducerGate(&producer_gate);
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(chan.TryPush(i));
  }
  // A producer parked on backpressure must be woken by the consume.
  producer_gate.PrepareWait();
  ASSERT_NE(chan.Front(), nullptr);
  EXPECT_EQ(*chan.Front(), 1);
  chan.PopFront();
  EXPECT_EQ(chan.pops(), 1u);
  EXPECT_EQ(producer_gate.wakes(), 1u);
  producer_gate.CancelWait();
  for (int want = 2; want <= 3; ++want) {
    ASSERT_NE(chan.Front(), nullptr);
    EXPECT_EQ(*chan.Front(), want);
    chan.PopFront();
  }
  EXPECT_EQ(chan.Front(), nullptr);
  EXPECT_EQ(chan.pops(), 3u);
  EXPECT_EQ(chan.Residue(), 0u);
}

// --- The payload pattern ---

TEST(LivePayload, TableMatchesPatternByte) {
  static_assert(sizeof(kRtPattern.bytes) == kRtPatternPeriod + kRtMaxPayload);
  for (uint64_t i = 0; i < sizeof(kRtPattern.bytes); ++i) {
    ASSERT_EQ(kRtPattern.bytes[i], RtPatternByte(i)) << "table byte " << i;
  }
}

TEST(LivePayload, EachFlippedByteCountsOnce) {
  const uint64_t off = 7 * kRtMaxPayload;
  for (uint32_t at : {0u, 729u, kRtMaxPayload - 1}) {
    RtPayload p(off, kRtMaxPayload);
    ASSERT_EQ(RtPayloadErrors(p), 0u);
    p.bytes[at] ^= 0x01;
    EXPECT_EQ(RtPayloadErrors(p), 1u) << "flipped byte " << at;
  }
  RtPayload p(off, kRtMaxPayload);
  p.bytes[0] ^= 0x80;
  p.bytes[729] ^= 0xff;
  p.bytes[kRtMaxPayload - 1] ^= 0x10;
  EXPECT_EQ(RtPayloadErrors(p), 3u);
}

TEST(LivePayload, SegmentStraddlingThePatternPeriod) {
  // Starts 700 bytes before a period boundary (and in a later period), so
  // the fill wraps the pattern mid-segment.
  for (uint64_t off : {kRtPatternPeriod - 700, 5 * kRtPatternPeriod - 1}) {
    const RtPayload p(off, kRtMaxPayload);
    EXPECT_EQ(RtPayloadErrors(p), 0u) << "offset " << off;
    for (uint32_t i = 0; i < kRtMaxPayload; ++i) {
      ASSERT_EQ(p.bytes[i], RtPatternByte(off + i)) << "offset " << off << " byte " << i;
    }
  }
}

// A data header for the segment at `off`, as the app pushes it.
RtMsg DataHeader(uint64_t off, uint32_t len) {
  RtMsg h(RtMsg::Type::kData, static_cast<uint32_t>(off / kRtMaxPayload), off);
  h.len = static_cast<uint16_t>(len);
  return h;
}

TEST(LivePayload, HeaderAndPayloadOutOfStepCountOnce) {
  const uint64_t off = 3 * kRtMaxPayload;
  const RtPayload p(off, kRtMaxPayload);
  EXPECT_EQ(RtSegmentErrors(DataHeader(off, kRtMaxPayload), p), 0u);
  // The payload is a clean one, but of the next (or the previous) segment:
  // its bytes match its own offset, not the header's.
  EXPECT_EQ(RtSegmentErrors(DataHeader(off + kRtMaxPayload, kRtMaxPayload), p), 1u);
  EXPECT_EQ(RtSegmentErrors(DataHeader(off - kRtMaxPayload, kRtMaxPayload), p), 1u);
  // Same offset, different length.
  EXPECT_EQ(RtSegmentErrors(DataHeader(off, kRtMaxPayload - 1), p), 1u);
  // A mismatch and a flipped byte add up.
  RtPayload flipped(off, kRtMaxPayload);
  flipped.bytes[10] ^= 0x04;
  EXPECT_EQ(RtSegmentErrors(DataHeader(off + kRtMaxPayload, kRtMaxPayload), flipped), 2u);
}

// --- The live stack ---

TEST(LiveStack, QuiesceDrainJoinLosesNoMessages) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed) << "live transfer did not finish before the deadline";
  EXPECT_TRUE(r.conservation_ok);
  for (const LiveRingStats& ring : r.rings) {
    EXPECT_EQ(ring.pushes, ring.pops) << "ring " << ring.name;
    EXPECT_EQ(ring.residue, 0u) << "ring " << ring.name;
  }
  // Every byte arrived and every byte matched the deterministic pattern.
  EXPECT_EQ(r.delivered, kTransfer);
  EXPECT_EQ(r.payload_errors, 0u);
  // The watchdog exchanged real heartbeat traffic with every server.
  EXPECT_GT(r.heartbeat_rounds, 0u);
  // Per-segment latency was measured end to end.
  EXPECT_EQ(r.latency.count(), r.chunks);
}

// The backend digest-equivalence gate: one loss-free DES run against one
// live run of each topology. Any byte-stream divergence or channel-protocol
// violation fails it.
TEST(LiveStack, DigestMatchesDesReference) {
  const Fig2DesResult des = RunFig2Des(kTransfer);
  ASSERT_TRUE(des.completed);
  ASSERT_EQ(des.retransmits, 0u) << "lossy DES run cannot serve as the byte-stream oracle";

  for (const bool mini : {false, true}) {
    SCOPED_TRACE(mini ? "mini topology" : "full topology");
    LiveStackConfig cfg;
    cfg.transfer_bytes = kTransfer;
    cfg.mini = mini;
    const LiveStackResult live = RunLiveFig2(cfg);
    ASSERT_TRUE(live.completed);
    EXPECT_TRUE(live.conservation_ok);

    // The acceptance criterion: byte-identical application streams.
    EXPECT_EQ(live.delivered, des.delivered);
    EXPECT_EQ(live.chunks, des.chunks);
    EXPECT_EQ(live.digest, des.digest);
    EXPECT_EQ(live.payload_errors, 0u);
    EXPECT_EQ(live.TotalImposters(), 0u);
  }
}

// The payload ring is sized so that the app never finds it full: with the
// 2-slot rings and one-MSS window of perfbench's live_rtt and with the
// default rings and window, on both flavours, every payload push succeeds
// at the first attempt and the stream still matches the DES.
TEST(LiveStack, PayloadRingNeverRefusesTheApp) {
  constexpr uint64_t kBytes = 256 * 1024;
  const Fig2DesResult des = RunFig2Des(kBytes);
  ASSERT_TRUE(des.completed);
  for (const bool rtt : {true, false}) {
    for (const bool mini : {true, false}) {
      SCOPED_TRACE(std::string(rtt ? "live_rtt config" : "default config") +
                   (mini ? ", mini" : ", full"));
      LiveStackConfig cfg;
      cfg.transfer_bytes = kBytes;
      cfg.mini = mini;
      if (rtt) {
        cfg.ring_capacity = 2;
        cfg.window_bytes = cfg.mss;
        cfg.poll.mode = PollMode::kPollAlways;
      }
      const LiveStackResult r = RunLiveFig2(cfg);
      ASSERT_TRUE(r.completed);
      EXPECT_TRUE(r.conservation_ok);
      EXPECT_EQ(r.digest, des.digest);
      EXPECT_EQ(r.chunks, des.chunks);
      EXPECT_EQ(r.payload_errors, 0u);
      bool found = false;
      for (const LiveRingStats& ring : r.rings) {
        if (ring.name == "app/peer") {
          found = true;
          EXPECT_EQ(ring.pushes, r.chunks);
          EXPECT_EQ(ring.full_retries, 0u);
        }
      }
      EXPECT_TRUE(found) << "no app/peer ring in the result";
    }
  }
}

// A server's watchdog step never waits on its ack ring: an ack the full
// ring refused waits in the port, the heartbeats behind it stay in their
// ring, and the ack goes out on the first pass after the watchdog popped.
// The watchdog's self-clocked rounds never fill an ack ring in a whole run,
// so the ring is filled by hand here.
TEST(LiveStack, WatchdogAckWaitsWhileTheAckRingIsFull) {
  ThreadChannel<RtMsg> heartbeats("wd/tcp", 4);
  ThreadChannel<RtMsg> acks("tcp/wd", 1);
  WdPort wd;
  wd.in = &heartbeats;
  wd.out = &acks;
  bool wd_done = false;
  ASSERT_TRUE(heartbeats.TryEmplace(RtMsg::Type::kHeartbeat, 0));
  ASSERT_TRUE(heartbeats.TryEmplace(RtMsg::Type::kHeartbeat, 1));

  // Ack 0 fills the ring; ack 1 is refused and waits in the port.
  EXPECT_TRUE(ServiceWd(wd, &wd_done));
  ASSERT_TRUE(wd.pending_ack.has_value());
  EXPECT_EQ(*wd.pending_ack, 1u);
  EXPECT_TRUE(heartbeats.EmptyConsumer());
  EXPECT_FALSE(WdCanProgress(wd));

  // While ack 1 is pending, nothing behind it is drained.
  ASSERT_TRUE(heartbeats.TryEmplace(RtMsg::Type::kHeartbeat, 2));
  ASSERT_TRUE(heartbeats.TryEmplace(RtMsg::Type::kShutdown, 0));
  EXPECT_FALSE(ServiceWd(wd, &wd_done));
  EXPECT_FALSE(heartbeats.EmptyConsumer());
  EXPECT_FALSE(WdCanProgress(wd));

  // Each pop of the ack ring lets exactly one more ack out, in order.
  for (uint32_t round = 0; round < 3; ++round) {
    const RtMsg* ack = acks.Front();
    ASSERT_NE(ack, nullptr);
    EXPECT_EQ(ack->type, RtMsg::Type::kHeartbeatAck);
    EXPECT_EQ(ack->seq, round);
    acks.PopFront();
    if (round < 2) {
      EXPECT_TRUE(WdCanProgress(wd));
      EXPECT_TRUE(ServiceWd(wd, &wd_done));
    }
  }
  EXPECT_FALSE(wd.pending_ack.has_value());
  EXPECT_TRUE(wd_done);
  EXPECT_TRUE(heartbeats.EmptyConsumer());
  EXPECT_EQ(acks.full_retries(), 3u);
}

// The watchdog rings take the data rings' capacity, so the 1- and 2-slot
// stacks run every heartbeat and ack through a 1- or 2-slot ring.
TEST(LiveStack, WatchdogCompletesOnOneAndTwoSlotRings) {
  constexpr uint64_t kBytes = 256 * 1024;
  const Fig2DesResult des = RunFig2Des(kBytes);
  ASSERT_TRUE(des.completed);
  for (const size_t slots : {size_t{1}, size_t{2}}) {
    SCOPED_TRACE(std::to_string(slots) + "-slot rings");
    LiveStackConfig cfg;
    cfg.transfer_bytes = kBytes;
    cfg.ring_capacity = slots;
    const LiveStackResult r = RunLiveFig2(cfg);
    ASSERT_TRUE(r.completed);
    EXPECT_TRUE(r.conservation_ok);
    EXPECT_GT(r.heartbeat_rounds, 0u);
    EXPECT_EQ(r.digest, des.digest);
    EXPECT_EQ(r.chunks, des.chunks);
    EXPECT_EQ(r.payload_errors, 0u);
  }
}

TEST(LiveStack, MiniStackMatchesFullStackDigest) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  cfg.mini = true;
  const LiveStackResult mini = RunLiveFig2(cfg);
  ASSERT_TRUE(mini.completed);

  cfg.mini = false;
  const LiveStackResult full = RunLiveFig2(cfg);
  ASSERT_TRUE(full.completed);

  EXPECT_EQ(mini.digest, full.digest);
  EXPECT_EQ(mini.chunks, full.chunks);
}

TEST(LiveStack, PollAlwaysModeAlsoMatches) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = 256 * 1024;
  cfg.poll.mode = PollMode::kPollAlways;
  const LiveStackResult live = RunLiveFig2(cfg);
  ASSERT_TRUE(live.completed);
  const Fig2DesResult des = RunFig2Des(cfg.transfer_bytes);
  ASSERT_TRUE(des.completed);
  EXPECT_EQ(live.digest, des.digest);
  for (const ThreadStats& t : live.threads) {
    EXPECT_EQ(t.parks, 0u) << t.name << " parked in poll-always mode";
  }
}

TEST(LiveStack, ChannelCheckerReportsZeroImpostersInLiveMode) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = kTransfer;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);

  ChannelChecker checker;
  FoldIntoChecker(r, &checker);
  EXPECT_TRUE(checker.ok()) << [&checker] {
    std::ostringstream os;
    checker.Report(os);
    return os.str();
  }();
  EXPECT_EQ(r.TotalImposters(), 0u);
  // Full stack: 5 data/ack rings, the payload ring, and 2 watchdog rings
  // per watched server.
  EXPECT_EQ(checker.live_rings().size(), 16u);
}

TEST(LiveStack, TraceRecordersCaptureEndToEndHops) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = 128 * 1024;
  cfg.enable_trace = true;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.recorders.size(), 6u);  // one single-threaded recorder per server
  // The app recorded one AsyncBegin per segment, the peer one AsyncEnd.
  EXPECT_EQ(r.recorders[0]->recorded(), r.chunks);
  EXPECT_EQ(r.recorders[3]->recorded(), r.chunks);
  EXPECT_EQ(r.recorders[0]->dropped(), 0u);
}

TEST(LiveStack, UnpinnedRunStillCorrect) {
  LiveStackConfig cfg;
  cfg.transfer_bytes = 256 * 1024;
  cfg.pin_threads = false;
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.conservation_ok);
  for (const ThreadStats& t : r.threads) {
    EXPECT_FALSE(t.pinned);
    EXPECT_EQ(t.requested_cpu, -1);
  }
}

}  // namespace
}  // namespace newtos
