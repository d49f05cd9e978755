// RuntimeEngine: thread lifecycle for the live multiserver stack.
//
// The engine owns one OS thread per server role. Construction is two-phase,
// like the testbed: Add() declares a server (allocating its IdleGate so
// channels can bind doorbells), wiring happens single-threaded, Start()
// spawns everything at once. Shutdown is cooperative: RequestStop() raises a
// flag and rings every gate (so parked servers wake to observe it), and
// Join() waits for the bodies to drain their rings and return — the engine
// never cancels a thread, so no message is ever lost to teardown.
//
// Pinning: each server may request a CPU. On hosts with enough cores the
// thread is pinned there (pthread_setaffinity_np, via src/host/affinity);
// when cores < servers or affinity is denied, the engine falls back to
// letting the scheduler timeslice — recorded honestly in ThreadStats.pinned,
// never fatal. A 1-core CI container runs the full stack correctly, just
// slower, which is exactly the paper's point about correctness being a
// property of the architecture and speed a property of the placement.

#ifndef SRC_RUNTIME_ENGINE_H_
#define SRC_RUNTIME_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/park.h"

namespace newtos {

class RuntimeEngine;

// Handed to each server body; also the engine's per-thread bookkeeping.
// The stats fields are written by the owning thread only and read by the
// engine after Join() — no concurrent access by construction.
class ServerContext {
 public:
  const std::string& name() const { return name_; }
  IdleGate& gate() { return gate_; }
  int requested_cpu() const { return requested_cpu_; }
  bool pinned() const { return pinned_; }
  uint64_t loops() const { return loops_; }
  uint64_t parks() const { return parks_; }

  bool StopRequested() const;

  // Call once per server-loop iteration. `did_work` resets the idle streak;
  // an exhausted spin budget parks on the gate (kHaltWhenIdle only) until a
  // producer's doorbell or RequestStop() rings it. `recheck` must return
  // true if any input ring is non-empty: it runs between PrepareWait and
  // Wait and is what makes the park race-free (see park.h).
  template <typename Recheck>
  void Idle(bool did_work, Recheck&& recheck) {
    ++loops_;
    if (did_work) {
      idle_streak_ = 0;
      return;
    }
    if (PollAlways() || ++idle_streak_ < kSpinIterations) {
      return;
    }
    const uint32_t e = gate_.PrepareWait();
    if (recheck() || StopRequested()) {
      gate_.CancelWait();
      return;
    }
    ++parks_;
    gate_.Wait(e);
    idle_streak_ = 0;
  }

 private:
  friend class RuntimeEngine;

  // Empty loops before a kHaltWhenIdle server parks. The grace period is
  // counted in loop iterations, not time: the live loop has no event queue
  // to measure against, and one iteration is roughly tens of nanoseconds.
  static constexpr uint32_t kSpinIterations = 4096;

  bool PollAlways() const;

  std::string name_;
  RuntimeEngine* engine_ = nullptr;
  IdleGate gate_;
  int requested_cpu_ = -1;
  bool pinned_ = false;
  uint64_t loops_ = 0;
  uint64_t parks_ = 0;
  uint32_t idle_streak_ = 0;
};

struct ThreadStats {
  std::string name;
  int requested_cpu = -1;
  bool pinned = false;
  uint64_t loops = 0;
  uint64_t parks = 0;
  uint64_t gate_wakes = 0;
};

class RuntimeEngine {
 public:
  explicit RuntimeEngine(RuntimePollPolicy policy = {});
  ~RuntimeEngine();

  RuntimeEngine(const RuntimeEngine&) = delete;
  RuntimeEngine& operator=(const RuntimeEngine&) = delete;

  // Declares a server. Valid only before Start(); the returned context is
  // stable (bind channel doorbells to its gate during wiring). `cpu` < 0
  // means "don't pin".
  ServerContext& Add(std::string name, int cpu, std::function<void(ServerContext&)> body);

  // Spawns every declared server. Each thread pins itself (or records the
  // fallback) before running its body.
  void Start();

  // Raises the stop flag and wakes every parked server. Safe from any
  // thread, idempotent.
  void RequestStop();

  bool stop_requested() const { return stop_.load(std::memory_order_acquire); }

  // Waits for all server bodies to return. Idempotent.
  void Join();

  bool started() const { return started_; }
  const RuntimePollPolicy& policy() const { return policy_; }

  // Valid after Join().
  std::vector<ThreadStats> Stats() const;

 private:
  friend class ServerContext;

  struct Entry {
    ServerContext ctx;
    std::function<void(ServerContext&)> body;
    std::thread thread;
  };

  RuntimePollPolicy policy_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  bool joined_ = false;
  std::vector<std::unique_ptr<Entry>> entries_;
};

inline bool ServerContext::StopRequested() const { return engine_->stop_requested(); }
inline bool ServerContext::PollAlways() const {
  return engine_->policy().mode == PollMode::kPollAlways;
}

}  // namespace newtos

#endif  // SRC_RUNTIME_ENGINE_H_
