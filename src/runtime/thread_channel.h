// ThreadChannel: the live backend's channel — a bare SpscRing plus the
// doorbells and counters the engine needs, presenting the same vocabulary as
// the simulated SimChannel (push, front and pop, per-side stats, checker
// hook).
//
// The DES wrapper modeled a shared-memory ring; this IS one. No cost model,
// no taps, no scheduled delivery: a push is one slot write and a release
// store into the ring, and (when the consumer might be parked) a doorbell
// ring on its IdleGate. A consumer may read or forward a message where it
// lies (Front, then PopFront), so a hop copies the message exactly once.
// Stats are split per side into cache-line-aligned groups for the same
// reason the ring's cursors are: the producer's counters must never bounce
// on the consumer's line.
//
// Threading contract: exactly one producer thread and one consumer thread,
// the same contract the underlying SpscRing checks: imposters() surfaces the
// ring's first-touch identity violations so the live stack can report them
// through the ChannelChecker.

#ifndef SRC_RUNTIME_THREAD_CHANNEL_H_
#define SRC_RUNTIME_THREAD_CHANNEL_H_

#include <cstdint>
#include <string>
#include <utility>

#include "src/chan/spsc_ring.h"
#include "src/runtime/park.h"

namespace newtos {

template <typename T>
class ThreadChannel {
 public:
  ThreadChannel(std::string name, size_t capacity) : ring_(capacity), name_(std::move(name)) {}

  ThreadChannel(const ThreadChannel&) = delete;
  ThreadChannel& operator=(const ThreadChannel&) = delete;

  const std::string& name() const { return name_; }
  size_t capacity() const { return ring_.capacity(); }

  // Doorbells. The consumer gate is rung after every successful push (so a
  // parked consumer wakes); the producer gate after every successful pop (so
  // a producer parked on backpressure wakes). Either may stay null.
  void BindConsumerGate(IdleGate* gate) { consumer_gate_ = gate; }
  void BindProducerGate(IdleGate* gate) { producer_gate_ = gate; }
  IdleGate* consumer_gate() const { return consumer_gate_; }
  IdleGate* producer_gate() const { return producer_gate_; }

  // --- Producer side ---
  //
  // Every push checks for space before touching the message and then
  // constructs the slot once (see spsc_ring.h): a failed push costs a
  // counter bump, not a copy of the message.

  bool TryPush(const T& value) { return CountPush(ring_.TryPush(value)); }
  bool TryPush(T&& value) { return CountPush(ring_.TryPush(std::move(value))); }

  // Constructs T(args...) in the slot: the app builds each RtPayload there
  // straight from the pattern table, with no staging copy.
  template <typename... Args>
  bool TryEmplace(Args&&... args) {
    return CountPush(ring_.TryEmplace(std::forward<Args>(args)...));
  }

  // True if a push could currently succeed (producer thread only; exact for
  // the producer). Used by park rechecks on backpressured producers.
  bool HasSpaceProducer() const { return ring_.SizeProducer() < ring_.capacity(); }

  // --- Consumer side ---

  // The consume is in place: Front() peeks (pointer valid until the next
  // PopFront), the caller reads or forwards the message where it lies, and
  // PopFront() releases the slot, counts the pop and rings the producer gate.
  const T* Front() { return ring_.Front(); }

  void PopFront() {
    ring_.PopFront();
    ++cons_stats_.pops;
    if (producer_gate_ != nullptr) {
      producer_gate_->Notify();
    }
  }

  bool EmptyConsumer() { return ring_.EmptyConsumer(); }

  // --- Post-join accounting (single-threaded once workers are joined) ---

  uint64_t pushes() const { return prod_stats_.pushes; }
  uint64_t pops() const { return cons_stats_.pops; }
  uint64_t full_retries() const { return prod_stats_.full_retries; }
  size_t Residue() const { return ring_.SizeProducer(); }

  uint64_t imposters() const { return ring_.check_violations(); }

  // First-touch side owners from the ring's identity check (0 = never
  // touched). Post-join, these map back to role names via the tokens each
  // server thread recorded for itself — the observed-wiring export.
  uint64_t producer_token() const { return ring_.producer_token(); }
  uint64_t consumer_token() const { return ring_.consumer_token(); }

 private:
  bool CountPush(bool pushed) {
    if (!pushed) {
      ++prod_stats_.full_retries;
      return false;
    }
    ++prod_stats_.pushes;
    if (consumer_gate_ != nullptr) {
      consumer_gate_->Notify();
    }
    return true;
  }

  SpscRing<T> ring_;

  // Plain counters, one side each — no atomics needed under the SPSC
  // contract, but they must live on distinct lines (see spsc_ring.h).
  struct alignas(kCacheLineBytes) ProducerStats {
    uint64_t pushes = 0;
    uint64_t full_retries = 0;
  };
  struct alignas(kCacheLineBytes) ConsumerStats {
    uint64_t pops = 0;
  };
  static_assert(sizeof(ProducerStats) == kCacheLineBytes &&
                    sizeof(ConsumerStats) == kCacheLineBytes,
                "per-side stats must occupy exactly one cache line each");

  ProducerStats prod_stats_;
  ConsumerStats cons_stats_;

  IdleGate* consumer_gate_ = nullptr;
  IdleGate* producer_gate_ = nullptr;
  std::string name_;
};

}  // namespace newtos

#endif  // SRC_RUNTIME_THREAD_CHANNEL_H_
