#include "src/fabric/lane.h"

#include <algorithm>
#include <cassert>

#include "src/host/affinity.h"

namespace newtos {
namespace {

// Barrier polls before a waiting lane parks on the futex. The lint rules
// keep clock reads out of src/, so the budget is an iteration count. One
// poll is a load plus a pause hint (10-150 cycles by core; ~25 ns on a
// 4-vCPU Xeon VM), so 16384 polls span roughly 0.1-0.8 ms. A window takes
// tens of microseconds of host time, and the budget must also ride out a
// peer lane's brief preemption: on that VM with 3 incast lanes, 256 polls
// parked almost every window, 4096 still parked on ~10% of windows, and
// 16384 on ~0.1% (5.3 M vs 3.8 M events/s). It stays below a scheduler
// tick, so a lane whose peer lost its CPU for longer still yields soon.
constexpr uint32_t kBarrierSpins = 16384;

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

LaneEngine::LaneEngine(int lanes) {
  assert(lanes >= 1);
  lanes_.reserve(static_cast<size_t>(lanes));
  for (int i = 0; i < lanes; ++i) {
    // lint:allow(heap-new): one-time engine construction; Lane's ctor is private
    lanes_.emplace_back(new Lane(i));
    lanes_.back()->sim().set_lane(i);
  }
  if (lanes > 1) {
    // A spinning lane is only cheaper than a parked one when it does not
    // hold the CPU a straggler needs. Workers inherit this thread's mask.
    spin_budget_ = lanes <= AvailableCpuCount() ? kBarrierSpins : 0;
    workers_.reserve(static_cast<size_t>(lanes - 1));
    for (int i = 1; i < lanes; ++i) {
      workers_.emplace_back([this, lane = lanes_[static_cast<size_t>(i)].get()] {
        WorkerMain(lane);
      });
    }
  }
}

LaneEngine::~LaneEngine() {
  if (!workers_.empty()) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) {
      t.join();
    }
  }
  // Undelivered cross-lane arrivals (scheduled by the switch into the
  // destination lane's queue) hold packets owned by the *source* lane's
  // pool, so destroying lanes_ one Lane at a time would recycle packets
  // into already-freed pools. Drain every queue while all pools are alive.
  for (auto& lane : lanes_) {
    lane->sim().DiscardPendingEvents();
  }
}

void LaneEngine::SetLookahead(SimTime lookahead) {
  assert(lookahead > 0);
  lookahead_ = lookahead;
}

void LaneEngine::ArriveAndWait() {
  // phase_ cannot move before this lane arrives, so `ph` is this window's.
  const uint32_t ph = phase_.load(std::memory_order_relaxed);
  // acq_rel: the arrivals form one release sequence, so the last arriver
  // sees every lane's window (and its staged frames) before flushing.
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 ==
      static_cast<uint32_t>(lanes_.size())) {
    OnBarrier();
    arrived_.store(0, std::memory_order_relaxed);
    phase_.store(ph + 1, std::memory_order_release);
    phase_.notify_all();
    return;
  }
  for (uint32_t i = 0; i < spin_budget_; ++i) {
    if (phase_.load(std::memory_order_acquire) != ph) {
      return;
    }
    CpuRelax();
  }
  if (phase_.load(std::memory_order_acquire) != ph) {
    return;
  }
  parks_.fetch_add(1, std::memory_order_relaxed);
  phase_.wait(ph, std::memory_order_acquire);  // returns once phase_ != ph
}

void LaneEngine::OnBarrier() noexcept {
  // Runs on exactly one (arbitrary) thread, the last to arrive, while every
  // other lane waits at the same window edge — the only place fabric state
  // and cross-lane scheduling are touched.
  if (flush_) {
    flush_();
  }
  if (window_ >= until_) {
    run_done_ = true;
  } else {
    window_ = std::min(window_ + lookahead_, until_);
  }
}

void LaneEngine::RunWindows(Lane* lane) {
  PacketPool::ScopedUse use(&lane->pool());
  for (;;) {
    lane->sim().RunUntil(window_);
    ArriveAndWait();
    if (run_done_) {
      return;
    }
  }
}

void LaneEngine::WorkerMain(Lane* lane) {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++parked_;
      parked_cv_.notify_all();
      cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) {
        return;
      }
      seen = generation_;
    }
    RunWindows(lane);
  }
}

void LaneEngine::RunUntil(SimTime until) {
  assert(lookahead_ > 0 && "SetLookahead before running");
  const SimTime start = Now();
  if (until <= start) {
    return;
  }

  if (lanes_.size() == 1) {
    Lane& lane = *lanes_[0];
    PacketPool::ScopedUse use(&lane.pool());
    SimTime w = start;
    while (w < until) {
      w = std::min(w + lookahead_, until);
      lane.sim().RunUntil(w);
      if (flush_) {
        flush_();
      }
    }
    return;
  }

  {
    // Wait for every worker to be parked in cv_.wait before touching the
    // shared windowing state. Only the first run can find one that is not:
    // the workers start parking when their threads start, and every run
    // waits for them to re-park before it returns.
    std::unique_lock<std::mutex> lock(mutex_);
    parked_cv_.wait(lock, [&] { return parked_ == workers_.size(); });
    parked_ = 0;
    window_ = std::min(start + lookahead_, until);
    until_ = until;
    run_done_ = false;
    ++generation_;
  }
  cv_.notify_all();
  // The caller's thread is lane 0's worker; returns once every lane has
  // reached `until` and the final flush ran.
  RunWindows(lanes_[0].get());
  // Wait for the workers to re-park, which ends their lane-pool bindings:
  // once RunUntil returns, the caller may free any lane's packets on the
  // pool's local path (PacketPool's ownership rule).
  std::unique_lock<std::mutex> lock(mutex_);
  parked_cv_.wait(lock, [&] { return parked_ == workers_.size(); });
}

uint64_t LaneEngine::TotalEventsProcessed() const {
  uint64_t total = 0;
  for (const auto& lane : lanes_) {
    total += lane->sim().events_processed();
  }
  return total;
}

double LaneEngine::MaxLaneShare() const {
  const uint64_t total = TotalEventsProcessed();
  if (total == 0) {
    return 0.0;
  }
  uint64_t max_lane = 0;
  for (const auto& lane : lanes_) {
    max_lane = std::max(max_lane, lane->sim().events_processed());
  }
  return static_cast<double>(max_lane) / static_cast<double>(total);
}

}  // namespace newtos
