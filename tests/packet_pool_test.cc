// Tests for the packet recycling pool: recycle correctness (blocks reused,
// contents re-initialized, ids still unique), occupancy accounting, and the
// owner/remote protocol between threads. The cross-thread cases also run
// under TSan in CI (see .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <future>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/net/packet_pool.h"

namespace newtos {
namespace {

TEST(PacketPool, SteadyChurnRecyclesInsteadOfAllocating) {
  PacketPool pool;
  {
    PacketPtr warm = pool.Make();  // grows the pool to one block
  }
  const PacketPool::Stats warm = pool.stats();
  EXPECT_EQ(warm.fresh_allocations, 1u);
  EXPECT_EQ(warm.outstanding, 0u);

  for (int i = 0; i < 1000; ++i) {
    PacketPtr p = pool.Make();
  }
  const PacketPool::Stats s = pool.stats();
  EXPECT_EQ(s.fresh_allocations, 1u) << "steady churn must not hit the system heap";
  EXPECT_EQ(s.recycled, 1000u);
  EXPECT_EQ(s.outstanding, 0u);
}

TEST(PacketPool, RecycledPacketsAreFreshlyInitialized) {
  PacketPool pool;
  uint64_t first_id = 0;
  {
    PacketPtr p = pool.Make();
    first_id = p->id;
    p->payload_bytes = 1460;
    p->tcp.seq = 77777;
    p->ip.ttl = 3;
    p->app_tag = 42;
  }
  PacketPtr q = pool.Make();
  // Same storage, but a brand-new Packet: default-constructed fields and a
  // fresh id.
  EXPECT_EQ(q->payload_bytes, 0u);
  EXPECT_EQ(q->tcp.seq, 0u);
  EXPECT_EQ(q->ip.ttl, 64);
  EXPECT_EQ(q->app_tag, 0u);
  EXPECT_EQ(q->id, first_id + 1);
}

TEST(PacketPool, IdsStayUniqueAcrossRecycling) {
  PacketPool pool;
  std::set<uint64_t> ids;
  for (int round = 0; round < 10; ++round) {
    std::vector<PacketPtr> batch;
    for (int i = 0; i < 20; ++i) {
      batch.push_back(pool.Make());
      EXPECT_TRUE(ids.insert(batch.back()->id).second) << "duplicate packet id";
    }
  }
  EXPECT_EQ(ids.size(), 200u);
}

TEST(PacketPool, HighWaterTracksMaxSimultaneousPackets) {
  PacketPool pool;
  {
    std::vector<PacketPtr> batch;
    for (int i = 0; i < 32; ++i) {
      batch.push_back(pool.Make());
    }
    EXPECT_EQ(pool.stats().outstanding, 32u);
    EXPECT_EQ(pool.stats().high_water, 32u);
  }
  EXPECT_EQ(pool.stats().outstanding, 0u);
  EXPECT_EQ(pool.stats().high_water, 32u);  // sticky

  // The pool retains all 32 blocks; a second burst of 32 is all-recycled.
  std::vector<PacketPtr> again;
  for (int i = 0; i < 32; ++i) {
    again.push_back(pool.Make());
  }
  const PacketPool::Stats s = pool.stats();
  EXPECT_EQ(s.fresh_allocations, 32u);
  EXPECT_EQ(s.recycled, 32u);
  EXPECT_EQ(s.high_water, 32u);
}

TEST(PacketPool, ReservePrefillsWithoutConsumingIdsOrStats) {
  PacketPool pool;
  PacketPtr probe = pool.Make();
  const uint64_t id_before = probe->id;
  probe.reset();

  pool.Reserve(64);
  EXPECT_GE(pool.free_blocks(), 64u);
  const PacketPool::Stats s = pool.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(s.high_water, 1u) << "Reserve must not count as live occupancy";

  PacketPtr next = pool.Make();
  EXPECT_EQ(next->id, id_before + 1) << "Reserve must not consume packet ids";

  // 64 reserved blocks serve 64 simultaneous packets with no fresh allocs.
  const uint64_t fresh_before = pool.stats().fresh_allocations;
  std::vector<PacketPtr> batch;
  for (int i = 0; i < 63; ++i) {
    batch.push_back(pool.Make());
  }
  EXPECT_EQ(pool.stats().fresh_allocations, fresh_before);
}

TEST(PacketPool, DefaultPoolBacksMakePacket) {
  const PacketPool::Stats before = PacketPool::Default().stats();
  {
    PacketPtr p = MakePacket();
    EXPECT_GT(p->id, 0u);
    EXPECT_EQ(PacketPool::Default().stats().outstanding, before.outstanding + 1);
  }
  EXPECT_EQ(PacketPool::Default().stats().outstanding, before.outstanding);
}

TEST(PacketPool, DefaultIdsStaySequential) {
  EXPECT_EQ(PacketPool::Default().id_base(), 0u);
  const PacketPtr a = MakePacket();
  {
    PacketPool other;  // another pool's ids come from its own counter
    for (int i = 0; i < 5; ++i) {
      other.Make();
    }
  }
  const PacketPtr b = MakePacket();
  const PacketPtr c = MakePacket();
  EXPECT_EQ(b->id, a->id + 1);
  EXPECT_EQ(c->id, a->id + 2);
  EXPECT_EQ(c->trace_id, c->id);
}

TEST(PacketPool, IdsAreUniqueAcrossPools) {
  PacketPool p1;
  PacketPool p2;
  EXPECT_NE(p1.id_base(), p2.id_base());
  EXPECT_NE(p1.id_base(), PacketPool::Default().id_base());
  std::set<uint64_t> ids;
  std::vector<PacketPtr> live;
  for (int i = 0; i < 50; ++i) {
    for (PacketPool* pool : {&p1, &p2, &PacketPool::Default()}) {
      live.push_back(pool->Make());
      EXPECT_TRUE(ids.insert(live.back()->id).second) << "duplicate packet id";
    }
  }
  // Within a pool, ids count up from its base in Make() order.
  EXPECT_EQ(live[0]->id, p1.id_base() + 1);
  EXPECT_EQ(live[3]->id, p1.id_base() + 2);
  EXPECT_EQ(live[1]->id, p2.id_base() + 1);
  EXPECT_EQ(live[148]->id, p2.id_base() + 50);
}

// Thread A, with its pool bound, makes N packets; thread B, with another
// pool bound, drops them. The blocks come back to A's pool through its remote
// list, so A's next N packets are all recycled.
TEST(PacketPool, ForeignThreadFreesComeBackToTheOwner) {
  constexpr size_t kN = 256;
  PacketPool pool_a;
  PacketPool pool_b;
  std::promise<std::vector<PacketPtr>> handoff;
  std::promise<void> dropped;
  uint64_t fresh_after_first = 0;
  uint64_t fresh_after_second = 0;
  uint64_t recycled_second = 0;

  std::thread a([&] {
    PacketPool::ScopedUse use(&pool_a);
    std::vector<PacketPtr> batch;
    for (size_t i = 0; i < kN; ++i) {
      batch.push_back(MakePacket());
    }
    fresh_after_first = pool_a.stats().fresh_allocations;
    handoff.set_value(std::move(batch));
    dropped.get_future().wait();
    const uint64_t recycled_before = pool_a.stats().recycled;
    std::vector<PacketPtr> again;
    for (size_t i = 0; i < kN; ++i) {
      again.push_back(MakePacket());
    }
    fresh_after_second = pool_a.stats().fresh_allocations;
    recycled_second = pool_a.stats().recycled - recycled_before;
  });
  std::thread b([&] {
    PacketPool::ScopedUse use(&pool_b);
    std::vector<PacketPtr> batch = handoff.get_future().get();
    batch.clear();  // every release is remote: pool_a is not bound here
    dropped.set_value();
  });
  a.join();
  b.join();

  EXPECT_EQ(fresh_after_first, kN);
  EXPECT_EQ(fresh_after_second, fresh_after_first) << "remote frees must be reused";
  EXPECT_EQ(recycled_second, kN);
  const PacketPool::Stats s = pool_a.stats();
  EXPECT_EQ(s.outstanding, 0u);
  EXPECT_EQ(pool_a.free_blocks(), kN);
  EXPECT_EQ(pool_b.stats().fresh_allocations, 0u);
}

#ifndef NDEBUG
// The local free path belongs to the thread that has the pool bound: a
// second thread with no pool bound releasing the pool's packet while the
// owner holds the binding trips the ownership assert.
TEST(PacketPoolDeathTest, LocalFreeOffTheOwningThreadAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        PacketPool pool;
        PacketPool::ScopedUse use(&pool);
        PacketPtr p = MakePacket();
        std::thread other([&p] { p.reset(); });
        other.join();
      },
      "off the thread that has it bound");
}
#endif

}  // namespace
}  // namespace newtos
