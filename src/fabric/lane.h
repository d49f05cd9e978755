// Simulation lanes: conservative parallel execution of a multi-host testbed.
//
// Hosts in this model interact only through explicit channels — within one
// machine over SimChannel rings, and between machines through the switch
// fabric (switch.h). That makes a *host* the natural unit of parallelism:
// partition hosts into lanes, give each lane its own Simulation (event
// queue + slab pools), its own PacketPool and its own worker thread, and
// the only cross-lane traffic left is frames traversing the switch.
//
// Synchronization is conservative lookahead windowing (classic null-message
// -free barrier synchronization): no frame handed to the fabric at time t
// can become host-visible anywhere before t + L, where L = Lookahead() is
// the switch's minimum port latency. So all lanes may run [W, W+L)
// independently; at the barrier one thread flushes the fabric, which
// schedules every staged frame's arrival at times >= W+L into the
// destination lanes; repeat. Arrival timestamps are computed from ingress
// times alone (never from which window processed them), and fabric
// arbitration is a chronological merge with deterministic round-robin tie
// breaking — so the merged timeline is bit-identical for ANY lane count,
// and the single-lane run is the determinism oracle for the parallel ones.
//
// Threading model: lane 0 is always driven by the caller's thread; lanes
// 1..N-1 get persistent worker threads (created at construction, parked
// between runs). Persistent workers keep thread identity stable across
// RunUntil calls — the SPSC ring's thread-identity check and the
// ChannelChecker actor scopes stay valid because every object a lane owns
// is only ever touched by that lane's one thread. Each worker
// binds its lane's PacketPool for the duration of a run
// (PacketPool::ScopedUse), so a lane allocates and recycles its own packets
// with no lock and no shared counter. The one cross-lane path is a lane
// releasing another lane's packet (the sink dropping a delivered frame):
// one CAS onto that pool's remote list, which its owner takes whole when its
// local list runs empty (packet_pool.h). RunUntil returns only after every
// worker has re-parked and dropped its binding.
//
// With one lane there are no threads and no barriers — just windowed
// RunUntil + Flush on the caller's thread, which is also why --lanes 1
// keeps the engine's single-threaded event rate.
//
// The window barrier spins, then parks (DESIGN.md §8.2). A window lasts
// tens of microseconds of host time or less, so a futex sleep and wake per
// window would cost about as much as the window; waiting lanes poll the phase
// instead and fall back to a futex wait only after a fixed spin budget.
// Spinning is enabled only when every lane can have its own CPU
// (lanes <= AvailableCpuCount() at construction); otherwise a spinning
// lane would burn the timeslice of the very lane it waits for, so waiters
// park at once.

#ifndef SRC_FABRIC_LANE_H_
#define SRC_FABRIC_LANE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/net/packet_pool.h"
#include "src/sim/simulation.h"
#include "src/sim/time.h"

namespace newtos {

// One lane: a simulation clock/queue plus the slab pools its hosts draw
// from. Everything constructed against lane.sim() belongs to this lane and
// must only be touched by its thread (enforced by construction: build each
// lane's hosts against its sim and never share model objects across lanes).
class Lane {
 public:
  Simulation& sim() { return sim_; }
  const Simulation& sim() const { return sim_; }
  PacketPool& pool() { return pool_; }
  int id() const { return id_; }

 private:
  friend class LaneEngine;
  explicit Lane(int id) : id_(id) {}

  Simulation sim_;
  PacketPool pool_;
  int id_;
};

class LaneEngine {
 public:
  // `lanes` >= 1. Worker threads for lanes 1..N-1 start parked.
  explicit LaneEngine(int lanes);
  ~LaneEngine();

  LaneEngine(const LaneEngine&) = delete;
  LaneEngine& operator=(const LaneEngine&) = delete;

  int lanes() const { return static_cast<int>(lanes_.size()); }
  Lane& lane(int i) { return *lanes_[static_cast<size_t>(i)]; }

  // The window length. Must be <= the fabric's Lookahead(); RunUntil
  // asserts it was set. Typically SetLookahead(switch.Lookahead()).
  void SetLookahead(SimTime lookahead);
  SimTime lookahead() const { return lookahead_; }

  // Runs at every window barrier, single-threaded, with all lanes stopped
  // at the same instant. Typically [&switch]{ switch.Flush(); }.
  void SetBarrierFlush(std::function<void()> flush) { flush_ = std::move(flush); }

  // Advances every lane to exactly `until` in lookahead windows, flushing
  // the fabric at each boundary. The caller's thread drives lane 0. All
  // lane clocks equal `until` on return.
  void RunUntil(SimTime until);
  void RunFor(SimTime d) { RunUntil(Now() + d); }

  // Common clock: all lanes agree between runs.
  SimTime Now() const { return lanes_[0]->sim().Now(); }

  // Total events processed across all lanes.
  uint64_t TotalEventsProcessed() const;
  // Largest single lane's share of TotalEventsProcessed() — the serial
  // fraction that bounds parallel speedup (speedup <= 1/share).
  double MaxLaneShare() const;

  // Times a lane outwaited the spin budget and parked on the futex at a
  // window barrier, summed over lanes and runs. About 0 per window while
  // every lane has its own CPU; up to lanes() - 1 per window when not.
  uint64_t barrier_parks() const { return parks_.load(std::memory_order_relaxed); }

 private:
  void WorkerMain(Lane* lane);
  void RunWindows(Lane* lane);
  void ArriveAndWait();
  void OnBarrier() noexcept;  // last arriver: flush + advance window

  std::vector<std::unique_ptr<Lane>> lanes_;
  SimTime lookahead_ = 0;
  std::function<void()> flush_;

  // Windowing state: written only by OnBarrier() (the last arriver, with
  // every other lane waiting) and by RunUntil before releasing the workers;
  // read by lanes after ArriveAndWait(), whose acquire load of phase_ pairs
  // with the release store that ends OnBarrier's barrier.
  SimTime window_ = 0;
  SimTime until_ = 0;
  bool run_done_ = true;

  // Window barrier (multi-lane only). Arrivals count up in arrived_; the
  // last arriver runs OnBarrier, resets the count and bumps phase_, which
  // the others spin on and then futex-wait on. Separate cache lines keep the
  // arrivals' RMW traffic off the line the waiters poll.
  alignas(64) std::atomic<uint32_t> arrived_{0};
  alignas(64) std::atomic<uint32_t> phase_{0};
  uint32_t spin_budget_ = 0;  // 0 when lanes outnumber the available CPUs
  std::atomic<uint64_t> parks_{0};

  // Parked-worker handshake (multi-lane only): RunUntil waits until every
  // worker is back in cv_.wait (parked_ == workers) before mutating the
  // windowing state for the next run, then bumps generation_ to release.
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable parked_cv_;
  size_t parked_ = 0;
  uint64_t generation_ = 0;  // bumped by RunUntil to release parked workers
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace newtos

#endif  // SRC_FABRIC_LANE_H_
