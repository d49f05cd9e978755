// IdleGate: park/unpark for live server threads.
//
// Mirrors the paper's poll-vs-halt axis (src/core/poll_policy.h) on real
// threads: kPollAlways spins on the rings forever (minimum latency, a whole
// core burned per server — the NewtOS fast-path default); kHaltWhenIdle
// spins a grace budget and then parks on a futex (C++20 atomic wait), paying
// a wake-up on the next message — the "halt" the paper prices in fig 7.
//
// The sleep/wake race is the classic lost-wakeup: the consumer checks its
// rings, finds them empty, and parks — but the producer pushed in between.
// The gate closes it with the Dekker store-fence-load pattern:
//
//   consumer                           producer
//   --------                           --------
//   e = PrepareWait()                  ring.TryPush(...)   (release store)
//     parked = true                    Notify():
//     seq_cst fence                      seq_cst fence
//   recheck rings                        if (parked) { ++epoch; notify }
//   empty? Wait(e)
//
// The two seq_cst fences totally order the four accesses: either the
// consumer's recheck observes the push (it cancels the wait), or the
// producer's parked-load observes true (it bumps the epoch, and Wait(e)
// returns immediately because the epoch moved). Both sides touch only
// atomics, so the pattern is exactly as TSan-clean as it is correct.
//
// The parked flag is the fast-path filter: a producer whose consumer is
// running costs one relaxed load per push, no RMW, no syscall.

#ifndef SRC_RUNTIME_PARK_H_
#define SRC_RUNTIME_PARK_H_

#include <atomic>
#include <cstdint>

#include "src/chan/spsc_ring.h"
#include "src/core/poll_policy.h"

namespace newtos {

class IdleGate {
 public:
  IdleGate() = default;
  IdleGate(const IdleGate&) = delete;
  IdleGate& operator=(const IdleGate&) = delete;

  // Consumer: announce intent to park and capture the epoch. MUST be
  // followed by a recheck of every input ring before Wait().
  uint32_t PrepareWait() {
    const uint32_t e = epoch_.load(std::memory_order_relaxed);
    parked_.store(true, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    return e;
  }

  // Consumer: the recheck found work — stand down.
  void CancelWait() { parked_.store(false, std::memory_order_relaxed); }

  // Consumer: park until the epoch moves past `e` (or a spurious wake; the
  // caller's loop rechecks either way).
  void Wait(uint32_t e) {
    epoch_.wait(e, std::memory_order_relaxed);
    parked_.store(false, std::memory_order_relaxed);
  }

  // Producer: call after publishing work the gated thread might be asleep
  // for. Cheap when the consumer is awake (one fence + one relaxed load).
  void Notify() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed)) {
      epoch_.fetch_add(1, std::memory_order_relaxed);
      epoch_.notify_all();
    }
  }

  uint64_t wakes() const { return epoch_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint32_t> epoch_{0};
  std::atomic<bool> parked_{false};
};

// The live backend's poll policy: reuses the simulator's PollMode axis. Its
// grace period before parking is ServerContext::kSpinIterations empty loops.
struct RuntimePollPolicy {
  PollMode mode = PollMode::kHaltWhenIdle;
};

}  // namespace newtos

#endif  // SRC_RUNTIME_PARK_H_
