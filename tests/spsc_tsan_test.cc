// Real-thread stress harness for the SPSC fast path, built to run under
// ThreadSanitizer (cmake --preset tsan). The simulator never needs threads;
// the ring does — it is the paper's artifact, used from genuinely concurrent
// code (src/host, bench/tab3). These tests put real producer/consumer
// threads on it so TSan can see the release/acquire protocol end to end:
// any missing fence, any torn slot access, any misuse of the cached indices
// shows up as a data-race report here, not as a heisenbug in a bench.
//
// The same binary is part of the default suite too (the assertions hold
// with or without TSan); the tsan CI job just runs it with the sanitizer
// underneath.

#include "src/chan/spsc_ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/runtime/fig2_ref.h"
#include "src/runtime/live_stack.h"

namespace newtos {
namespace {

TEST(SpscTsan, TwoThreadFifoCountAndOrder) {
  constexpr uint64_t kMessages = 200'000;
  SpscRing<uint64_t> ring(1024);
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kMessages; ++i) {
      while (!ring.TryPush(i)) {
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kMessages) {
    if (auto v = ring.TryPop()) {
      ASSERT_EQ(*v, expected);  // strict FIFO, nothing lost, nothing torn
      ++expected;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.EmptyConsumer());
}

TEST(SpscTsan, MoveOnlyPayloadsCrossIntact) {
  // unique_ptr payloads: a torn or doubled slot hand-off would double-free
  // or leak, which ASan/TSan runs turn into hard failures.
  constexpr int kMessages = 50'000;
  SpscRing<std::unique_ptr<int>> ring(256);
  std::thread producer([&ring] {
    for (int i = 0; i < kMessages; ++i) {
      auto p = std::make_unique<int>(i);
      // A push checks for space before touching its argument, so a failed
      // attempt leaves `p` intact for the retry.
      while (!ring.TryPush(std::move(p))) {
      }
    }
  });
  long long sum = 0;
  int received = 0;
  while (received < kMessages) {
    if (auto v = ring.TryPop()) {
      sum += **v;
      ++received;
    }
  }
  producer.join();
  EXPECT_EQ(sum, static_cast<long long>(kMessages - 1) * kMessages / 2);
}

TEST(SpscTsan, FrontPeeksSafelyWhileProducing) {
  constexpr uint64_t kMessages = 100'000;
  SpscRing<uint64_t> ring(64);
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kMessages; ++i) {
      while (!ring.TryEmplace(i)) {
      }
    }
  });
  uint64_t popped = 0;
  while (popped < kMessages) {
    if (const uint64_t* front = ring.Front()) {
      EXPECT_EQ(*front, popped);  // peek then pop must agree
      auto v = ring.TryPop();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, popped);
      ++popped;
    }
  }
  producer.join();
}

TEST(SpscTsan, FrontPopFrontConsumerTwoThreads) {
  // The live stack's in-place consume: read the slot where it lies, then
  // release it, while the producer keeps writing the slots behind it.
  constexpr uint64_t kMessages = 100'000;
  SpscRing<uint64_t> ring(8);
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kMessages; ++i) {
      while (!ring.TryPush(i)) {
      }
    }
  });
  uint64_t popped = 0;
  while (popped < kMessages) {
    if (const uint64_t* front = ring.Front()) {
      ASSERT_EQ(*front, popped);
      ring.PopFront();
      ++popped;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.EmptyConsumer());
  EXPECT_EQ(ring.check_violations(), 0u);
}

TEST(SpscTsan, PingPongBouncesEveryMessage) {
  // Two rings, two threads, each thread producer of one ring and consumer of
  // the other — the steady-state topology of the pipelined stack.
  constexpr uint64_t kRounds = 100'000;
  SpscRing<uint64_t> there(128);
  SpscRing<uint64_t> back(128);
  std::thread echo([&there, &back] {
    uint64_t done = 0;
    while (done < kRounds) {
      if (auto v = there.TryPop()) {
        while (!back.TryPush(*v + 1)) {
        }
        ++done;
      }
    }
  });
  uint64_t in_flight = 0;
  uint64_t next_send = 0;
  uint64_t next_recv = 0;
  while (next_recv < kRounds) {
    if (next_send < kRounds && in_flight < 64 && there.TryPush(next_send)) {
      ++next_send;
      ++in_flight;
    }
    if (auto v = back.TryPop()) {
      EXPECT_EQ(*v, next_recv + 1);
      ++next_recv;
      --in_flight;
    }
  }
  echo.join();
}

TEST(SpscTsan, SecondProducerThreadIsFlagged) {
  // Identity violation without an actual data race: the pushes are
  // serialized through the release/acquire flag, so TSan stays quiet — but
  // the SPSC contract says ONE producer thread for the ring's lifetime, and
  // the debug check counts the imposter. Both threads stay alive until the
  // end so their ids (and thus identity tokens) cannot be recycled.
  SpscRing<int> ring(16);
  std::atomic<int> stage{0};
  std::thread owner([&ring, &stage] {
    ring.TryPush(1);
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) {
    }
  });
  std::thread imposter([&ring, &stage] {
    while (stage.load(std::memory_order_acquire) < 1) {
    }
    ring.TryPush(2);  // deliberate second producer
    stage.store(2, std::memory_order_release);
  });
  owner.join();
  imposter.join();
  EXPECT_GT(ring.check_violations(), 0u);
}

TEST(SpscTsan, SecondConsumerThreadIsFlagged) {
  SpscRing<int> ring(16);
  ring.TryPush(1);
  ring.TryPush(2);
  std::atomic<int> stage{0};
  std::thread owner([&ring, &stage] {
    ring.TryPop();
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) {
    }
  });
  std::thread imposter([&ring, &stage] {
    while (stage.load(std::memory_order_acquire) < 1) {
    }
    ring.TryPop();  // deliberate second consumer
    stage.store(2, std::memory_order_release);
  });
  owner.join();
  imposter.join();
  EXPECT_GT(ring.check_violations(), 0u);
}

TEST(SpscTsan, SecondPopFrontThreadIsFlagged) {
  // The imposter calls only PopFront, so PopFront's own side check is the
  // one that must count it. The owner's Front() has already seen both
  // elements, so the imposter's pop consumes a published slot.
  SpscRing<int> ring(16);
  ring.TryPush(1);
  ring.TryPush(2);
  std::atomic<int> stage{0};
  std::thread owner([&ring, &stage] {
    EXPECT_EQ(*ring.Front(), 1);
    ring.PopFront();
    stage.store(1, std::memory_order_release);
    while (stage.load(std::memory_order_acquire) < 2) {
    }
  });
  std::thread imposter([&ring, &stage] {
    while (stage.load(std::memory_order_acquire) < 1) {
    }
    ring.PopFront();  // deliberate second consumer
    stage.store(2, std::memory_order_release);
  });
  owner.join();
  imposter.join();
  EXPECT_EQ(ring.check_violations(), 1u);
}

TEST(SpscTsan, ResetCheckOwnersAllowsHandOff) {
  // A legitimate phase change (fill single-threaded, then hand the consumer
  // side to a worker) resets the owners at the barrier.
  SpscRing<int> ring(16);
  ring.TryPush(1);
  ring.ResetCheckOwners();
  std::thread worker([&ring] {
    EXPECT_EQ(*ring.TryPop(), 1);
    ring.TryPush(2);
  });
  worker.join();
  EXPECT_EQ(ring.check_violations(), 0u);
}

// --- Live mini-stack under TSan ---
//
// The full concurrency surface of the runtime backend in one test: three
// real server threads (app -> tcp -> peer, acks back) exchanging RtMsgs
// over ThreadChannels, with park/unpark (IdleGate's fence protocol), window
// flow control, backpressure, and the quiesce shutdown. Under the tsan
// preset this is the proof that the whole live message path — not just the
// bare ring — is data-race-free.

TEST(SpscTsan, LiveMiniStackTransfersRaceFree) {
  LiveStackConfig cfg;
  cfg.mini = true;
  cfg.transfer_bytes = 512 * 1024;
  cfg.ring_capacity = 64;  // small rings: force backpressure + parking paths
  const LiveStackResult r = RunLiveFig2(cfg);
  ASSERT_TRUE(r.completed);
  EXPECT_TRUE(r.conservation_ok);
  EXPECT_EQ(r.delivered, cfg.transfer_bytes);
  EXPECT_EQ(r.payload_errors, 0u);
  EXPECT_EQ(r.TotalImposters(), 0u);
}

TEST(SpscTsan, LiveMiniStackDigestMatchesDes) {
  LiveStackConfig cfg;
  cfg.mini = true;
  cfg.transfer_bytes = 256 * 1024;
  const LiveStackResult live = RunLiveFig2(cfg);
  ASSERT_TRUE(live.completed);
  const Fig2DesResult des = RunFig2Des(cfg.transfer_bytes);
  ASSERT_TRUE(des.completed);
  ASSERT_EQ(des.retransmits, 0u);
  EXPECT_EQ(live.digest, des.digest);
  EXPECT_EQ(live.chunks, des.chunks);
}

}  // namespace
}  // namespace newtos
