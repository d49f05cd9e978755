// PacketPool: recycles the shared_ptr<Packet> control-block+payload
// allocation.
//
// Packets are the highest-volume heap object in the simulator: every
// segment, ACK and datagram is a fresh `std::make_shared<Packet>` that dies
// within a few microseconds of simulated time. The pool allocates packets
// with std::allocate_shared and a freelist-backed allocator, so the fused
// (control block + Packet) allocation is returned to the pool — not to
// malloc — when the last reference drops, and the next MakePacket() reuses
// it. Once the pool has grown to the workload's in-flight high-water mark,
// packet creation touches no allocator at all.
//
// Ownership. A pool belongs to one thread at a time: the thread that has it
// bound with ScopedUse, or, while no thread has it bound, whichever thread
// uses it (the single-threaded DES). Make() and local frees touch only the
// owner's state: a plain free list and plain counters, no lock and no
// atomic read-modify-write. A free is *remote* when the releasing thread
// has a different pool bound (a running simulation lane dropping another
// lane's packet): the block is CAS-pushed onto the pool's remote list,
// which sits on its own cache line, and a relaxed counter beside it
// records the free. When the owner's local list runs empty, Make() takes
// the whole remote list with one exchange (O(1), no walk) and folds the
// counter into its stats. The pushes' release CAS and the owner's acquire
// exchange order every write to a block before its reuse. Debug builds
// assert that no other thread has the pool bound when a local path runs.
//
// Packet ids are per pool: pool number k hands out k * 2^40 + 1, + 2, ...
// in Make() order, with k = 0 for Default(), so a single-threaded run's ids
// read 1, 2, 3, ... Ids are unique across pools, and a lane's ids depend
// only on what its own lane does, not on thread timing.
//
// The Default() pool is intentionally leaked (packets may legally outlive
// every static destructor). Pool objects created locally in tests must
// outlive every packet they produced.

#ifndef SRC_NET_PACKET_POOL_H_
#define SRC_NET_PACKET_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "src/net/packet.h"

namespace newtos {

class PacketPool {
 public:
  struct Stats {
    uint64_t fresh_allocations = 0;  // blocks obtained from the system heap
    uint64_t recycled = 0;           // Make() calls served from the freelist
    uint64_t outstanding = 0;        // live packets right now
    // Max simultaneous live packets. A remote free counts toward it only
    // once the owner adopts it, so with remote frees this is an upper bound.
    uint64_t high_water = 0;
  };

  PacketPool();
  ~PacketPool();

  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;

  // Allocates (or recycles) a zero-initialized packet with a fresh id.
  PacketPtr Make();

  // Pre-grows the freelist to at least `n` blocks so the first `n` in-flight
  // packets never hit the system heap. Does not consume packet ids and does
  // not count toward outstanding/high_water.
  void Reserve(size_t n);

  // Both read the owner's counters and the remote-free counter without
  // synchronizing with remote frees in flight: exact once the pool is
  // quiescent (every thread that freed into it has joined, or has passed a
  // barrier the reader has passed too).
  Stats stats() const;
  // Number of recycled blocks waiting on the local and remote freelists.
  size_t free_blocks() const;

  // The ids this pool hands out are id_base() + 1, + 2, ... in Make() order.
  uint64_t id_base() const { return id_base_; }

  // The process-wide pool used by MakePacket(). Never destroyed.
  static PacketPool& Default();

  // The pool MakePacket() draws from on the calling thread: the thread's
  // scoped pool if a ScopedUse is active, Default() otherwise. Simulation
  // lanes (src/fabric/lane.h) scope each worker thread to its lane's pool,
  // so each lane allocates from and frees into its own pool alone; a block
  // still returns to its owning pool whichever thread drops the last
  // reference (the deleter captured the allocating pool).
  static PacketPool& Current();

  // RAII thread-local pool override; also makes the calling thread the
  // pool's owner (see the file comment). Nestable; restores the previous
  // binding on destruction. Must not outlive the pool it binds, and a pool
  // must not be bound on two threads at once.
  class ScopedUse {
   public:
    explicit ScopedUse(PacketPool* pool);
    ~ScopedUse();
    ScopedUse(const ScopedUse&) = delete;
    ScopedUse& operator=(const ScopedUse&) = delete;

   private:
    PacketPool* pool_;
    PacketPool* prev_;
    const void* prev_owner_;
  };

 private:
  // Minimal C++17 allocator handing out fixed-size blocks from the pool's
  // freelist. allocate_shared rebinds it to its internal combined type, so
  // every allocation through one pool has the same size.
  template <typename T>
  struct Recycler {
    using value_type = T;
    PacketPool* pool;

    explicit Recycler(PacketPool* p) : pool(p) {}
    template <typename U>
    Recycler(const Recycler<U>& other) : pool(other.pool) {}  // NOLINT

    T* allocate(size_t n) { return static_cast<T*>(pool->AllocBlock(n * sizeof(T))); }
    void deallocate(T* p, size_t n) { pool->FreeBlock(p, n * sizeof(T)); }

    template <typename U>
    bool operator==(const Recycler<U>& other) const {
      return pool == other.pool;
    }
    template <typename U>
    bool operator!=(const Recycler<U>& other) const {
      return pool != other.pool;
    }
  };

  struct FreeNode {
    FreeNode* next;
  };

  explicit PacketPool(uint64_t id_base);

  void* AllocBlock(size_t bytes);
  void FreeBlock(void* p, size_t bytes);
  // Moves the remote list onto the (empty) local list.
  void AdoptRemote();
  // True unless another thread has this pool bound.
  bool UsableHere() const;

  // Owner-local state.
  FreeNode* free_head_ = nullptr;
  size_t free_count_ = 0;
  size_t block_bytes_ = 0;  // learned on the first allocation
  bool reserving_ = false;  // suppresses stats while Reserve() cycles blocks
  const uint64_t id_base_;
  uint64_t next_id_;
  Stats stats_;
  // The thread that has the pool bound (a per-thread tag), or null. Written
  // by ScopedUse, read by the ownership asserts.
  std::atomic<const void*> owner_{nullptr};

  // Remote frees, on their own cache line so pushes from other threads do
  // not contend with the owner's fast path.
  alignas(64) std::atomic<FreeNode*> remote_head_{nullptr};
  std::atomic<uint64_t> remote_frees_{0};  // pushes not yet adopted
};

}  // namespace newtos

#endif  // SRC_NET_PACKET_POOL_H_
