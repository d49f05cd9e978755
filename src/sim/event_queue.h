// A cancellable, deterministic discrete-event queue with an allocation-free
// steady state.
//
// Events scheduled for the same instant fire in the order they were scheduled
// (FIFO tie-break on a monotonically increasing sequence number), which makes
// every simulation in this project bit-for-bit reproducible.
//
// Layout: the queue holds small POD entries {when, seq, slot}; the callback
// and cancellation state live in a generation-counted slot pool. Pushing an
// event acquires a recycled slot (no allocation once the pool has grown to
// the workload's high-water mark), and an EventHandle is just {pool, slot
// index, generation} — cancelling flips a bit in the slot, and a stale
// handle (its slot was recycled after the event fired or was discarded) is
// detected by a generation mismatch. Cancelled entries are lazily skipped at
// the front of the queue and eagerly compacted away whenever they outnumber
// the live entries, so heavy timer churn (e.g. tab5_conn_churn) cannot grow
// the queue without bound.
//
// Two tiers. Most events are due within a few microseconds of the one
// firing, behind a dozen or so timers that sit further out. Entries due less
// than kNearHorizon after the last fired event go into the near tier, an
// inline sorted ring of kNearCapacity entries: Push inserts from the back,
// shifting only entries with a strictly later `when` (an equal `when` stays
// behind, which is FIFO, since the new entry has the largest seq), and the
// front pops in O(1). Everything else — later events, and any push that
// finds the ring full — goes to the far tier, a binary min-heap. RunNext,
// NextTime and SkipCancelled take the smaller (when, seq) of the two fronts.
// Order is exactly that of a single heap: (when, seq) is a total order, each
// tier is sorted by it, and the smaller of two sorted fronts is the global
// minimum, so which tier holds an entry changes only the cost. The horizon
// and the ring size are fixed by measurement (see the constants below).
//
// In-place dispatch: slots live in fixed-size chunks that never relocate.
// Push constructs the callable straight into its slot, and RunNext runs it
// where it lies — so an event's callback is never moved, however many events
// that callback schedules (and however far the pool grows) while it runs.
// The firing slot's generation is bumped before the call (its handles read
// as fired inside the callback) and the slot is recycled after it returns.
// Order is untouched: the entry leaves its tier before the call, so anything
// the callback pushes sorts by (when, seq) against what remains.
//
// The hot methods are defined inline below the class so the simulator's run
// loop compiles down to direct ring and heap manipulation with no call
// overhead.

#ifndef SRC_SIM_EVENT_QUEUE_H_
#define SRC_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/sim/inline_callback.h"
#include "src/sim/time.h"

namespace newtos {

// Slab of per-event state shared between the queue and its handles. Kept
// alive by an intrusive, *non-atomic* refcount (the simulator is
// single-threaded by design), so handles stay safe (inert) even if they
// outlive the queue without paying shared_ptr's atomic ops on every Push.
struct EventSlotPool {
  static constexpr uint32_t kNil = 0xffffffff;
  // Slots per chunk. A chunk never moves once allocated, so a slot's address
  // is stable for the pool's lifetime.
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSlots = uint32_t{1} << kChunkShift;

  struct Slot {
    InlineCallback fn;
    uint32_t gen = 0;
    uint32_t next_free = kNil;
    bool cancelled = false;
  };

  std::vector<std::unique_ptr<Slot[]>> chunks;
  uint32_t used = 0;  // slots handed out so far; the rest of the last chunk is unused
  uint32_t free_head = kNil;
  // Cancelled entries still occupying either tier; drives eager compaction.
  size_t cancelled_queued = 0;
  uint32_t refcount = 0;  // managed by PoolRef only

  Slot& slot(uint32_t index) {
    return chunks[index >> kChunkShift][index & (kChunkSlots - 1)];
  }

  // Returns the index of an empty slot (recycled, or fresh from the chunks).
  uint32_t Acquire();
  // Destroys the slot's callback, bumps the generation (invalidating every
  // outstanding handle to it) and recycles the index.
  void Release(uint32_t index) {
    ++slot(index).gen;
    Recycle(index);
  }
  // Release() without the generation bump, for a slot whose event already
  // bumped it when it fired.
  void Recycle(uint32_t index);
  // Allocates chunks until `n` slots exist.
  void Reserve(size_t n);

 private:
  void AddChunk();
};

// Intrusive smart pointer for EventSlotPool (see refcount comment above).
class PoolRef {
 public:
  PoolRef() = default;
  explicit PoolRef(EventSlotPool* pool) : p_(pool) {
    if (p_ != nullptr) {
      ++p_->refcount;
    }
  }
  PoolRef(const PoolRef& other) : p_(other.p_) {
    if (p_ != nullptr) {
      ++p_->refcount;
    }
  }
  PoolRef(PoolRef&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
  PoolRef& operator=(PoolRef other) noexcept {
    std::swap(p_, other.p_);
    return *this;
  }
  ~PoolRef() {
    if (p_ != nullptr && --p_->refcount == 0) {
      delete p_;
    }
  }

  EventSlotPool* operator->() const { return p_; }
  EventSlotPool& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  EventSlotPool* p_ = nullptr;
};

// Handle to a scheduled event; allows cancellation. Default-constructed
// handles are inert. Handles are cheap to copy (shared ownership of the
// queue's slot pool plus an index/generation pair).
class EventHandle {
 public:
  EventHandle() = default;

  // Cancels the event if it has not fired yet. Safe to call repeatedly and on
  // inert handles. Returns true if this call prevented a pending event.
  bool Cancel();

  // True if the event is still scheduled (not fired, not cancelled).
  bool pending() const;

 private:
  friend class EventQueue;
  EventHandle(const PoolRef& pool, uint32_t index, uint32_t gen)
      : pool_(pool), index_(index), gen_(gen) {}

  PoolRef pool_;
  uint32_t index_ = 0;
  uint32_t gen_ = 0;
};

// Two-tier priority queue of timed callbacks (see the file comment). Not
// thread-safe: the simulator is single-threaded by design.
//
// Accessor contract: Empty(), NextTime() and RunNext() are all
// self-compacting — each discards cancelled entries from the fronts of both
// tiers first, so they may be called in any order. NextTime() still requires
// a live event to exist, i.e. !Empty().
class EventQueue {
 public:
  // lint:allow(heap-new): one-time slab allocation at engine construction; events recycle slots
  EventQueue() : pool_(new EventSlotPool) {}
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Enqueues `fn` to fire at absolute time `when`, constructing it in its
  // slot. `when` may be in the past relative to other queued events;
  // ordering is purely by (when, seq).
  template <typename F>
  EventHandle Push(SimTime when, F&& fn);

  // True if no live (uncancelled) events remain.
  bool Empty();

  // Time of the earliest live event. Precondition: !Empty().
  SimTime NextTime();

  // Fires the earliest live event if it is due at or before `until`:
  // removes it from its tier, marks it fired (its handles go stale), calls
  // `on_fire(when)`, runs the callback in its slot, then recycles the slot.
  // Returns false, and fires nothing, when no live event is due.
  template <typename OnFire>
  bool RunNext(SimTime until, OnFire&& on_fire);

  // Pre-sizes the far heap and the slot pool so a run whose concurrent-event
  // high-water mark stays under `n` never regrows either mid-run.
  void Reserve(size_t n);

  // Destroys every pending event without running it (the queue stays
  // usable). Teardown-only: callbacks can own pooled resources (e.g. a
  // staged cross-lane packet), so whoever owns several queues must drain
  // all of them while every such pool is still alive, not rely on member
  // destruction order.
  void Clear();

  // Number of entries currently held, including not-yet-discarded cancelled
  // ones. For tests and diagnostics.
  size_t RawSize() const { return heap_.size() + near_size_; }

  // Number of live (uncancelled) events. RawSize() - LiveSize() is the
  // cancelled backlog awaiting lazy discard or compaction.
  size_t LiveSize() const { return RawSize() - pool_->cancelled_queued; }

  // Total number of events ever pushed.
  uint64_t pushed() const { return next_seq_; }

  // An event due less than kNearHorizon after the last fired one goes into
  // the near ring. Chosen on tab7_campaign at seed 1 (58 M pushes over two
  // passes), by share of pushes into the ring / shifts per ring push:
  // 300 ns 26% / 0.04, 1 us 60% / 0.70, 2 us 70% / 1.04, 3 us 81% / 1.79,
  // 10 us 99% / 6.2. Traced sim.ns_per_event was about 3% lower at 2, 3 and
  // 5 us than at 1 us, and the three were within noise of each other; 2 us is
  // the smallest of them, so it shifts least.
  static constexpr SimTime kNearHorizon = 2 * kMicrosecond;
  // Entries in the near ring. tab7_campaign holds 17 entries on average, and
  // no push in it found the ring full; a power of two keeps the ring index a
  // mask.
  static constexpr uint32_t kNearCapacity = 64;

 private:
  // Entries are trivially copyable; sifting and shifting move 24-byte PODs.
  struct Entry {
    SimTime when;
    uint64_t seq;
    uint32_t slot;
  };
  // Comparator for std::push_heap/pop_heap: "later fires lower", so the
  // front of the vector is the earliest (when, seq).
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) {
        return a.when > b.when;
      }
      return a.seq > b.seq;
    }
  };
  static constexpr uint32_t kNearMask = kNearCapacity - 1;
  static_assert((kNearCapacity & kNearMask) == 0, "the near ring indexes by mask");

  Entry& NearAt(uint32_t i) { return near_[(near_head_ + i) & kNearMask]; }
  // Inserts into the near ring, keeping it sorted. Precondition: not full.
  void NearInsert(const Entry& e);
  void NearPopFront() {
    near_head_ = (near_head_ + 1) & kNearMask;
    --near_size_;
  }
  // True if the next entry to fire is the near ring's front. Precondition:
  // at least one tier is non-empty.
  bool NearIsNext() const {
    return near_size_ != 0 &&
           (heap_.empty() || Later{}(heap_.front(), near_[near_head_]));
  }

  // Drops cancelled entries from the fronts of both tiers.
  void SkipCancelled();
  // Removes every cancelled entry from both tiers: the ring keeps its order
  // and the heap is rebuilt. Pop order is unaffected: (when, seq) is a total
  // order, so the filtered tiers pop identically.
  void Compact();

  // Near tier: a sorted circular buffer; entry i is near_[(head + i) & mask].
  std::array<Entry, kNearCapacity> near_{};
  uint32_t near_head_ = 0;
  uint32_t near_size_ = 0;
  // Pushes due before this go to the near tier: the last fired event's
  // `when` plus kNearHorizon, saturated so it cannot overflow.
  SimTime near_limit_ = kNearHorizon;
  // Far tier.
  std::vector<Entry> heap_;
  PoolRef pool_;
  uint64_t next_seq_ = 0;
};

// --- Hot-path inline definitions ---

inline uint32_t EventSlotPool::Acquire() {
  if (free_head != kNil) {
    const uint32_t index = free_head;
    Slot& s = slot(index);
    free_head = s.next_free;
    s.next_free = kNil;
    assert(!s.cancelled && !s.fn);
    return index;
  }
  if (used == chunks.size() * kChunkSlots) {
    AddChunk();
  }
  return used++;
}

inline void EventSlotPool::Recycle(uint32_t index) {
  Slot& s = slot(index);
  s.fn = InlineCallback();
  s.cancelled = false;
  s.next_free = free_head;
  free_head = index;
}

inline void EventQueue::NearInsert(const Entry& e) {
  assert(near_size_ < kNearCapacity);
  uint32_t i = near_size_;
  // Strictly later entries move back one place; an equal `when` has a
  // smaller seq, so the new entry stays behind it (FIFO).
  while (i != 0 && NearAt(i - 1).when > e.when) {
    NearAt(i) = NearAt(i - 1);
    --i;
  }
  NearAt(i) = e;
  ++near_size_;
}

template <typename F>
inline EventHandle EventQueue::Push(SimTime when, F&& fn) {
  // Eager compaction: when cancelled entries outnumber live ones, sweep them
  // out instead of letting heavy timer churn grow the queue without bound.
  const size_t raw = RawSize();
  if (pool_->cancelled_queued > raw / 2 && raw >= 64) {
    Compact();
  }
  const uint32_t index = pool_->Acquire();
  EventSlotPool::Slot& s = pool_->slot(index);
  s.fn.Emplace(std::forward<F>(fn));
  const Entry e{when, next_seq_++, index};
  if (when < near_limit_ && near_size_ < kNearCapacity) {
    NearInsert(e);
  } else {
    heap_.push_back(e);
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  return EventHandle(pool_, index, s.gen);
}

inline void EventQueue::SkipCancelled() {
  // Steady-state fast path: with no cancellations pending anywhere, skip the
  // slot lookup entirely — the slot access is a near-guaranteed cache miss.
  if (pool_->cancelled_queued == 0) {
    return;
  }
  while (near_size_ != 0 && pool_->slot(near_[near_head_].slot).cancelled) {
    --pool_->cancelled_queued;
    pool_->Release(near_[near_head_].slot);
    NearPopFront();
  }
  while (!heap_.empty() && pool_->slot(heap_.front().slot).cancelled) {
    --pool_->cancelled_queued;
    pool_->Release(heap_.front().slot);
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

inline bool EventQueue::Empty() {
  SkipCancelled();
  return near_size_ == 0 && heap_.empty();
}

inline SimTime EventQueue::NextTime() {
  SkipCancelled();
  assert(near_size_ != 0 || !heap_.empty());
  return NearIsNext() ? near_[near_head_].when : heap_.front().when;
}

template <typename OnFire>
inline bool EventQueue::RunNext(SimTime until, OnFire&& on_fire) {
  SkipCancelled();
  if (near_size_ == 0 && heap_.empty()) {
    return false;
  }
  const bool near = NearIsNext();
  const Entry e = near ? near_[near_head_] : heap_.front();
  if (e.when > until) {
    return false;
  }
  if (near) {
    NearPopFront();
  } else {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
  constexpr SimTime kLast = std::numeric_limits<SimTime>::max() - kNearHorizon;
  near_limit_ = std::min(e.when, kLast) + kNearHorizon;
  // The slot stays out of the free list until the callback returns, and its
  // chunk never moves, so `s` stays valid while the callback pushes events.
  EventSlotPool::Slot& s = pool_->slot(e.slot);
  ++s.gen;  // fired: every handle to it is now stale, also inside the callback
  on_fire(e.when);
  s.fn();
  pool_->Recycle(e.slot);
  return true;
}

}  // namespace newtos

#endif  // SRC_SIM_EVENT_QUEUE_H_
