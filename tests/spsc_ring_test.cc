#include "src/chan/spsc_ring.h"

#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

namespace newtos {
namespace {

TEST(SpscRing, PushPopSingleThread) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.TryPush(1));
  EXPECT_TRUE(ring.TryPush(2));
  EXPECT_EQ(ring.TryPop(), std::optional<int>(1));
  EXPECT_EQ(ring.TryPop(), std::optional<int>(2));
  EXPECT_EQ(ring.TryPop(), std::nullopt);
}

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 1u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
}

TEST(SpscRing, FullRingRejectsPush) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99));
  EXPECT_EQ(ring.TryPop(), std::optional<int>(0));
  EXPECT_TRUE(ring.TryPush(99));  // slot freed
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 1000; ++round) {
    ASSERT_TRUE(ring.TryPush(round));
    ASSERT_EQ(ring.TryPop(), std::optional<int>(round));
  }
}

TEST(SpscRing, FifoOrderPreserved) {
  SpscRing<int> ring(128);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(ring.TryPush(i));
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(ring.TryPop(), std::optional<int>(i));
  }
}

TEST(SpscRing, FrontPeeksWithoutConsuming) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Front(), nullptr);
  ring.TryPush(7);
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 7);
  EXPECT_EQ(ring.TryPop(), std::optional<int>(7));
}

TEST(SpscRing, MoveOnlyTypesWork) {
  SpscRing<std::unique_ptr<int>> ring(4);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(5)));
  auto out = ring.TryPop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 5);
}

// An element that counts how often it is copied and moved, so the tests can
// pin how many times a push writes the message.
struct CopyMoveCount {
  int copies = 0;
  int moves = 0;
};
struct Counted {
  CopyMoveCount* n;
  int v;
  Counted(CopyMoveCount* counts, int value) noexcept : n(counts), v(value) {}
  Counted(const Counted& o) noexcept : n(o.n), v(o.v) { ++n->copies; }
  Counted(Counted&& o) noexcept : n(o.n), v(o.v) { ++n->moves; }
};

TEST(SpscRing, TryEmplaceConstructsInPlace) {
  CopyMoveCount n;
  SpscRing<Counted> ring(4);
  EXPECT_TRUE(ring.TryEmplace(&n, 7));
  EXPECT_EQ(n.copies, 0);
  EXPECT_EQ(n.moves, 0);
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(ring.Front()->v, 7);
}

TEST(SpscRing, ConstRefPushCopiesOnlyIntoAFreeSlot) {
  CopyMoveCount n;
  SpscRing<Counted> ring(1);
  const Counted msg(&n, 1);
  EXPECT_TRUE(ring.TryPush(msg));
  EXPECT_EQ(n.copies, 1);
  EXPECT_EQ(n.moves, 0);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(ring.TryPush(msg));  // full: nothing is copied
  }
  EXPECT_EQ(n.copies, 1);
  EXPECT_EQ(n.moves, 0);
}

TEST(SpscRing, RvaluePushMovesOnceAndNeverCopies) {
  CopyMoveCount n;
  SpscRing<Counted> ring(1);
  EXPECT_TRUE(ring.TryPush(Counted(&n, 1)));
  EXPECT_EQ(n.copies, 0);
  EXPECT_EQ(n.moves, 1);
  EXPECT_FALSE(ring.TryPush(Counted(&n, 2)));
  EXPECT_EQ(n.copies, 0);
  EXPECT_EQ(n.moves, 1);
}

TEST(SpscRing, FailedRvaluePushLeavesMoveOnlyValueIntact) {
  SpscRing<std::unique_ptr<int>> ring(1);
  EXPECT_TRUE(ring.TryPush(std::make_unique<int>(1)));
  auto p = std::make_unique<int>(2);
  EXPECT_FALSE(ring.TryPush(std::move(p)));
  ASSERT_NE(p, nullptr);  // space is checked before the value is touched
  EXPECT_EQ(**ring.TryPop(), 1);
  EXPECT_TRUE(ring.TryPush(std::move(p)));
  EXPECT_EQ(p, nullptr);
  EXPECT_EQ(**ring.TryPop(), 2);
}

TEST(SpscRing, PopFrontConsumesInFifoOrder) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 100; ++round) {
    ASSERT_TRUE(ring.TryPush(2 * round));
    ASSERT_TRUE(ring.TryPush(2 * round + 1));
    for (int k = 0; k < 2; ++k) {
      const int* front = ring.Front();
      ASSERT_NE(front, nullptr);
      ASSERT_EQ(*front, 2 * round + k);
      ring.PopFront();
    }
    ASSERT_EQ(ring.Front(), nullptr);
  }
  EXPECT_TRUE(ring.EmptyConsumer());
  EXPECT_EQ(ring.check_violations(), 0u);
}

TEST(SpscRing, PopFrontDestroysTheElement) {
  auto token = std::make_shared<int>(0);
  SpscRing<std::shared_ptr<int>> ring(4);
  ASSERT_TRUE(ring.TryPush(std::shared_ptr<int>(token)));
  EXPECT_EQ(token.use_count(), 2);
  ASSERT_NE(ring.Front(), nullptr);
  ring.PopFront();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SpscRing, DestructorDrainsRemainingElements) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> c;
    explicit Probe(std::shared_ptr<int> cc) noexcept : c(std::move(cc)) { ++*c; }
    Probe(Probe&& o) noexcept : c(std::move(o.c)) {}
    ~Probe() {
      if (c) {
        --*c;
      }
    }
  };
  {
    SpscRing<Probe> ring(8);
    for (int i = 0; i < 5; ++i) {
      ring.TryPush(Probe(counter));
    }
    EXPECT_EQ(*counter, 5);
  }
  EXPECT_EQ(*counter, 0);  // all destroyed on ring teardown
}

TEST(SpscRing, SizeEstimates) {
  SpscRing<int> ring(8);
  EXPECT_TRUE(ring.EmptyConsumer());
  for (int i = 0; i < 5; ++i) {
    ring.TryPush(i);
  }
  EXPECT_EQ(ring.SizeProducer(), 5u);
  EXPECT_EQ(ring.SizeConsumer(), 5u);
  EXPECT_FALSE(ring.EmptyConsumer());
}

// Real two-thread stress: every token arrives exactly once, in order.
TEST(SpscRing, TwoThreadStressPreservesOrderAndCount) {
  constexpr uint64_t kN = 200'000;
  SpscRing<uint64_t> ring(256);
  uint64_t received = 0;
  uint64_t sum = 0;
  bool order_ok = true;

  std::thread consumer([&] {
    uint64_t expect = 0;
    while (expect < kN) {
      auto v = ring.TryPop();
      if (!v) {
        std::this_thread::yield();
        continue;
      }
      if (*v != expect) {
        order_ok = false;
        break;
      }
      sum += *v;
      ++expect;
      ++received;
    }
  });

  for (uint64_t i = 0; i < kN; ++i) {
    while (!ring.TryPush(i)) {
      std::this_thread::yield();
    }
  }
  consumer.join();

  EXPECT_TRUE(order_ok);
  EXPECT_EQ(received, kN);
  EXPECT_EQ(sum, kN * (kN - 1) / 2);
}

// Stress with tiny capacity: maximum contention on the full/empty edges.
TEST(SpscRing, TinyRingStress) {
  constexpr uint64_t kN = 50'000;
  SpscRing<uint64_t> ring(1);
  uint64_t received = 0;
  std::thread consumer([&] {
    while (received < kN) {
      if (auto v = ring.TryPop()) {
        ++received;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (uint64_t i = 0; i < kN; ++i) {
    while (!ring.TryPush(i)) {
      std::this_thread::yield();
    }
  }
  consumer.join();
  EXPECT_EQ(received, kN);
}

}  // namespace
}  // namespace newtos
