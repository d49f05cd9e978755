// Lock-free single-producer/single-consumer ring buffer.
//
// This is the paper's fast-path artifact built for real: NewtOS replaced
// kernel IPC on the network fast path with shared-memory channels exactly
// like this one — a fixed-size power-of-two ring where the producer only
// writes `prod_.head` and the consumer only writes `cons_.tail`, so steady-state
// communication needs no atomic RMW, no syscalls, and no kernel at all.
//
// Memory ordering: the producer publishes a slot with a release store of
// `prod_.head`; the consumer observes it with an acquire load, and vice versa for
// `cons_.tail`. Head and tail live on separate cache lines to avoid false sharing,
// and each side keeps a cached copy of the other's index so the common case
// touches a single shared line only when the cache runs dry (the classic
// optimization from Lee et al. / FastForward / Lamport queues).
//
// Element traffic: a push checks for space first and then constructs the
// slot once, from a const reference, an rvalue (TryPush) or constructor
// arguments (TryEmplace); a full ring copies nothing. The consumer either
// moves the element out (TryPop) or uses it where it lies and then releases
// the slot (Front + PopFront). For large fixed-slot messages that makes a
// hop one slot write and one slot read.
//
// The same class is used from real threads (tests, bench/tab3, src/host,
// the live backend's ThreadChannel) — it is a genuinely concurrent
// structure, not simulation-only code.

#ifndef SRC_CHAN_SPSC_RING_H_
#define SRC_CHAN_SPSC_RING_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>

namespace newtos {

// Pinned rather than std::hardware_destructive_interference_size: that value
// may differ between compilers and tuning flags (GCC warns that it is not
// ABI-stable), and it is 64 on x86-64 anyway.
inline constexpr size_t kCacheLineBytes = 64;

// The calling thread's SPSC identity token — the value the ring's first-touch
// check binds to each side. A thread records this for itself so post-join
// audits can map a ring's bound producer_token()/consumer_token() back to a
// named role (the live stack's wiring export does exactly that). Never 0, so
// 0 stays the "side never touched" sentinel.
inline uint64_t CurrentSpscThreadToken() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) | 1;
}

template <typename T>
class SpscRing {
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "SpscRing requires nothrow-movable elements");

 public:
  // Capacity is rounded up to a power of two; the ring holds `capacity`
  // elements (one slot is not wasted: indices are free-running counters).
  explicit SpscRing(size_t capacity) : mask_(RoundUpPow2(capacity) - 1) {
    slots_ = std::allocator<Slot>().allocate(mask_ + 1);
  }

  ~SpscRing() {
    // Drain remaining elements (single-threaded at destruction time).
    const size_t head = prod_.head.load(std::memory_order_relaxed);
    for (size_t i = cons_.tail.load(std::memory_order_relaxed); i != head; ++i) {
      slots_[i & mask_].Destroy();
    }
    std::allocator<Slot>().deallocate(slots_, mask_ + 1);
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return mask_ + 1; }

  // --- Producer side (one thread only) ---

  // Attempts to enqueue; returns false if the ring is full. Space is checked
  // before the value is touched, so a failed push copies (or moves) nothing
  // and a successful one constructs the slot exactly once: for the live
  // stack's one-line RtMsg header and 1,472-byte RtPayload, one slot write
  // per hop.
  bool TryPush(const T& value) { return TryEmplace(value); }
  bool TryPush(T&& value) { return TryEmplace(std::move(value)); }

  // Constructs T(args...) directly in the slot; returns false if full,
  // leaving `args` untouched.
  template <typename... Args>
  bool TryEmplace(Args&&... args) {
    CheckSide(check_state_.producer_thread);
    const size_t head = prod_.head.load(std::memory_order_relaxed);
    if (head - prod_.cached_tail > mask_) {
      prod_.cached_tail = cons_.tail.load(std::memory_order_acquire);
      if (head - prod_.cached_tail > mask_) {
        return false;
      }
    }
    slots_[head & mask_].Construct(std::forward<Args>(args)...);
    prod_.head.store(head + 1, std::memory_order_release);
    return true;
  }

  // Producer-side occupancy estimate (exact for the producer).
  size_t SizeProducer() const {
    return prod_.head.load(std::memory_order_relaxed) - cons_.tail.load(std::memory_order_acquire);
  }

  // --- Consumer side (one thread only) ---

  // Attempts to dequeue.
  std::optional<T> TryPop() {
    CheckSide(check_state_.consumer_thread);
    const size_t tail = cons_.tail.load(std::memory_order_relaxed);
    if (cons_.cached_head == tail) {
      cons_.cached_head = prod_.head.load(std::memory_order_acquire);
      if (cons_.cached_head == tail) {
        return std::nullopt;
      }
    }
    Slot& slot = slots_[tail & mask_];
    std::optional<T> out(std::move(slot.value()));
    slot.Destroy();
    cons_.tail.store(tail + 1, std::memory_order_release);
    return out;
  }

  // Peeks without consuming (consumer thread only). Pointer valid until the
  // next TryPop or PopFront.
  const T* Front() {
    CheckSide(check_state_.consumer_thread);
    const size_t tail = cons_.tail.load(std::memory_order_relaxed);
    if (cons_.cached_head == tail) {
      cons_.cached_head = prod_.head.load(std::memory_order_acquire);
      if (cons_.cached_head == tail) {
        return nullptr;
      }
    }
    return &slots_[tail & mask_].value();
  }

  // Consumes the element the last Front() returned (consumer thread only;
  // Front() must have returned non-null since the last pop). Together they
  // are the in-place consume: read or forward the slot where it lies, then
  // release it, with no copy out of the ring.
  void PopFront() {
    CheckSide(check_state_.consumer_thread);
    const size_t tail = cons_.tail.load(std::memory_order_relaxed);
    assert(cons_.cached_head != tail && "PopFront on a ring Front() saw empty");
    slots_[tail & mask_].Destroy();
    cons_.tail.store(tail + 1, std::memory_order_release);
  }

  // True if the consumer currently sees an empty ring.
  bool EmptyConsumer() {
    CheckSide(check_state_.consumer_thread);
    const size_t tail = cons_.tail.load(std::memory_order_relaxed);
    if (cons_.cached_head == tail) {
      cons_.cached_head = prod_.head.load(std::memory_order_acquire);
    }
    return cons_.cached_head == tail;
  }

  // Consumer-side occupancy estimate (exact for the consumer).
  size_t SizeConsumer() const {
    return prod_.head.load(std::memory_order_acquire) - cons_.tail.load(std::memory_order_relaxed);
  }

  // --- Thread-identity check ---
  //
  // The first thread to touch each side owns it for the ring's lifetime; a
  // different thread showing up on an owned side is the SPSC contract
  // violation that turns this lock-free structure into a data race. Counted,
  // not asserted: the TSan harness (tests/spsc_tsan_test.cc) reads the
  // counter, and release builds compile asserts out anyway. Costs one
  // relaxed load per operation.

  uint64_t check_violations() const {
    return check_state_.check_violations.load(std::memory_order_relaxed);
  }

  // Bound side owners (0 = side never touched). Read post-join, when the
  // worker threads are gone and the bindings are final.
  uint64_t producer_token() const {
    return check_state_.producer_thread.load(std::memory_order_relaxed);
  }
  uint64_t consumer_token() const {
    return check_state_.consumer_thread.load(std::memory_order_relaxed);
  }

  // Forgets the side owners (e.g. between the single-threaded fill phase of
  // a test and its threaded phase). Call only while no other thread is
  // touching the ring.
  void ResetCheckOwners() {
    check_state_.producer_thread.store(0, std::memory_order_relaxed);
    check_state_.consumer_thread.store(0, std::memory_order_relaxed);
  }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    template <typename... Args>
    void Construct(Args&&... args) {
      ::new (static_cast<void*>(storage)) T(std::forward<Args>(args)...);
    }
    T& value() { return *std::launder(reinterpret_cast<T*>(storage)); }
    void Destroy() { value().~T(); }
  };

  static size_t RoundUpPow2(size_t v) {
    assert(v > 0);
    size_t p = 1;
    while (p < v) {
      p <<= 1;
    }
    return p;
  }

  // Each cursor group owns a full cache line: the alignas on the struct both
  // aligns it to a line boundary and pads sizeof up to a line multiple, so
  // the producer's head/cached_tail can never share a line with the
  // consumer's tail/cached_head — or with whatever object the allocator
  // places after the ring. The static_asserts pin that: if a field is ever
  // added that pushes a group past one line (silently giving it two, with
  // the neighbour group starting mid-way through an even cadence on some
  // toolchain), the build fails instead of the bench quietly regressing.
  struct alignas(kCacheLineBytes) ProducerCursor {
    std::atomic<size_t> head{0};
    size_t cached_tail = 0;
  };
  struct alignas(kCacheLineBytes) ConsumerCursor {
    std::atomic<size_t> tail{0};
    size_t cached_head = 0;
  };
  static_assert(sizeof(ProducerCursor) == kCacheLineBytes,
                "producer cursor group must occupy exactly one cache line");
  static_assert(sizeof(ConsumerCursor) == kCacheLineBytes,
                "consumer cursor group must occupy exactly one cache line");
  static_assert(alignof(ProducerCursor) == kCacheLineBytes &&
                    alignof(ConsumerCursor) == kCacheLineBytes,
                "cursor groups must start on a cache-line boundary");

  const size_t mask_;
  Slot* slots_;

  ProducerCursor prod_;
  ConsumerCursor cons_;

  static uint64_t ThreadToken() { return CurrentSpscThreadToken(); }

  void CheckSide(std::atomic<uint64_t>& owner) {
    const uint64_t self = ThreadToken();
    if (owner.load(std::memory_order_relaxed) == self) {
      return;  // the common case: the bound owner calling again
    }
    uint64_t expected = 0;
    if (!owner.compare_exchange_strong(expected, self, std::memory_order_relaxed) &&
        expected != self) {
      check_state_.check_violations.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // The identity tokens get their own line: the producer token is read on
  // every producer-side call, so leaving it on the consumer's line (where it
  // used to sit, right after cached_head) made every producer op pull a line
  // the consumer dirties on every Pop — false sharing the check paid on the
  // hot path it was checking.
  struct alignas(kCacheLineBytes) CheckState {
    std::atomic<uint64_t> producer_thread{0};
    std::atomic<uint64_t> consumer_thread{0};
    std::atomic<uint64_t> check_violations{0};
  };
  static_assert(sizeof(CheckState) == kCacheLineBytes,
                "checker identity tokens must occupy exactly one cache line");
  CheckState check_state_;
};

}  // namespace newtos

#endif  // SRC_CHAN_SPSC_RING_H_
