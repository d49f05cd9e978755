#include "src/net/packet_pool.h"

#include <cassert>
#include <initializer_list>
#include <memory>
#include <new>
#include <vector>

namespace newtos {
namespace {

// Each pool's ids start at its number shifted past 2^40 ids; Default() is
// number 0, so its ids stay 1, 2, 3, ...
constexpr int kPoolIdShift = 40;
std::atomic<uint64_t> g_next_pool_number{1};

// Thread-local current-pool binding (see PacketPool::ScopedUse). A plain
// pointer: reads on the MakePacket() fast path are one TLS load.
thread_local PacketPool* t_current_pool = nullptr;

// Its address identifies the thread in PacketPool::owner_.
thread_local char t_thread_tag;

}  // namespace

PacketPool::PacketPool()
    : PacketPool(g_next_pool_number.fetch_add(1, std::memory_order_relaxed) << kPoolIdShift) {}

PacketPool::PacketPool(uint64_t id_base) : id_base_(id_base), next_id_(id_base + 1) {}

PacketPool::~PacketPool() {
  // Only the freelists are owned here; outstanding packets must not exist
  // (guaranteed for Default(), which leaks; required of test-local pools).
  for (FreeNode* node : {free_head_, remote_head_.exchange(nullptr, std::memory_order_acquire)}) {
    while (node != nullptr) {
      FreeNode* next = node->next;
      ::operator delete(node);
      node = next;
    }
  }
}

bool PacketPool::UsableHere() const {
  const void* owner = owner_.load(std::memory_order_relaxed);
  return owner == nullptr || owner == &t_thread_tag;
}

void PacketPool::AdoptRemote() {
  if (remote_head_.load(std::memory_order_relaxed) == nullptr) {
    return;
  }
  // Pairs with the release CAS in FreeBlock: the freeing thread's writes to
  // each block happen before the owner reuses it.
  free_head_ = remote_head_.exchange(nullptr, std::memory_order_acquire);
  // A push between the two exchanges is counted now or at the next
  // adoption; the totals are exact once no free is in flight.
  const uint64_t n = remote_frees_.exchange(0, std::memory_order_relaxed);
  free_count_ += n;
  stats_.outstanding -= n;
}

void* PacketPool::AllocBlock(size_t bytes) {
  assert(UsableHere() && "PacketPool used off the thread that has it bound");
  if (block_bytes_ == 0) {
    block_bytes_ = bytes;
  }
  assert(bytes == block_bytes_);
  if (free_head_ == nullptr) {
    AdoptRemote();
  }
  FreeNode* node = free_head_;
  if (!reserving_) {
    if (node != nullptr) {
      ++stats_.recycled;
    } else {
      ++stats_.fresh_allocations;
    }
    if (++stats_.outstanding > stats_.high_water) {
      stats_.high_water = stats_.outstanding;
    }
  }
  if (node == nullptr) {
    return ::operator new(bytes);
  }
  free_head_ = node->next;
  --free_count_;
  return node;
}

void PacketPool::FreeBlock(void* p, size_t bytes) {
  assert(bytes == block_bytes_);
  (void)bytes;
  FreeNode* node = static_cast<FreeNode*>(p);
  if (t_current_pool != nullptr && t_current_pool != this) {
    FreeNode* head = remote_head_.load(std::memory_order_relaxed);
    do {
      node->next = head;
    } while (!remote_head_.compare_exchange_weak(head, node, std::memory_order_release,
                                                 std::memory_order_relaxed));
    remote_frees_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  assert(UsableHere() && "PacketPool freed locally off the thread that has it bound");
  if (!reserving_) {
    assert(stats_.outstanding > 0);
    --stats_.outstanding;
  }
  node->next = free_head_;
  free_head_ = node;
  ++free_count_;
}

PacketPtr PacketPool::Make() {
  PacketPtr p = std::allocate_shared<Packet>(Recycler<Packet>(this));
  p->id = next_id_++;
  p->trace_id = p->id;  // default flow = the packet itself; TCP overrides
  return p;
}

void PacketPool::Reserve(size_t n) {
  if (free_count_ >= n) {
    return;
  }
  // Hold `n` live packets simultaneously (the first ones come off the
  // existing freelist), then drop them: every block lands on the freelist,
  // leaving exactly >= n free. Ids are untouched (assigned only by Make())
  // and stats are suppressed by `reserving_`. The binding keeps every free
  // on the local path, whatever pool the caller has bound.
  ScopedUse use(this);
  reserving_ = true;
  {
    std::vector<PacketPtr> tmp;
    tmp.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      tmp.push_back(std::allocate_shared<Packet>(Recycler<Packet>(this)));
    }
  }
  reserving_ = false;
}

PacketPool::Stats PacketPool::stats() const {
  Stats s = stats_;
  s.outstanding -= remote_frees_.load(std::memory_order_relaxed);
  return s;
}

size_t PacketPool::free_blocks() const {
  return free_count_ + remote_frees_.load(std::memory_order_relaxed);
}

PacketPool& PacketPool::Default() {
  // lint:allow(heap-new): process-wide singleton, constructed once; leaked on purpose (see header)
  static PacketPool* pool = new PacketPool(0);  // leaked: see header comment
  return *pool;
}

PacketPool& PacketPool::Current() {
  return t_current_pool != nullptr ? *t_current_pool : Default();
}

PacketPool::ScopedUse::ScopedUse(PacketPool* pool)
    : pool_(pool),
      prev_(t_current_pool),
      prev_owner_(pool->owner_.load(std::memory_order_relaxed)) {
  assert(pool->UsableHere() && "PacketPool bound on two threads at once");
  pool->owner_.store(&t_thread_tag, std::memory_order_relaxed);
  t_current_pool = pool;
}

PacketPool::ScopedUse::~ScopedUse() {
  pool_->owner_.store(prev_owner_, std::memory_order_relaxed);
  t_current_pool = prev_;
}

}  // namespace newtos
